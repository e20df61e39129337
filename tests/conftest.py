import itertools

import numpy as np
import pytest

from oversmooth import OperatorKind, load_edge_list, make_graph
from oversmooth.synthetic import random_connected_graph, write_synthetic_enzymes  # noqa: F401

PENDANT_TRIANGLE_TEXT = "n 4\n0 1\n0 2\n0 3\n1 2\n"


@pytest.fixture
def pendant_triangle():
    """Triangle with a pendant node: degrees (3, 2, 2, 1)."""
    return load_edge_list(PENDANT_TRIANGLE_TEXT)


@pytest.fixture
def p3():
    return load_edge_list("n 3\n0 1\n1 2\n")


@pytest.fixture
def k4():
    return make_graph(4, itertools.combinations(range(4), 2))


@pytest.fixture
def k2():
    return make_graph(2, [(0, 1)])


def edge_sum_energy(g, x, kind, include_volume_constant=False):
    """Independent oracle: direct neighbor-sum over both edge directions."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    shift = {
        OperatorKind.UNNORMALIZED_LAPLACIAN: None,
        OperatorKind.NORMALIZED_LAPLACIAN: 0.0,
        OperatorKind.RENORMALIZED_LAPLACIAN: 1.0,
    }[kind]
    total = 0.0
    for i, j in g.edges:
        if shift is None:
            diff = x[i] - x[j]
        else:
            diff = x[i] / np.sqrt(g.degrees[i] + shift) - x[j] / np.sqrt(g.degrees[j] + shift)
        total += 2.0 * float(diff @ diff)
    if include_volume_constant:
        total /= g.n_nodes
    return total


@pytest.fixture
def synthetic_enzymes_dir(tmp_path):
    data_dir = tmp_path / "data"
    write_synthetic_enzymes(data_dir)
    return data_dir
