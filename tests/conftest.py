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
    for i, j in g.edge_array.tolist():
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


def dense_adjacency(g):
    a = np.zeros((g.n_nodes, g.n_nodes))
    for i, j in g.edge_array.tolist():
        a[i, j] = a[j, i] = 1.0
    return a


def dense_operator(g, kind):
    """Independent oracle: the standard operators as dense n x n formulas."""
    a = dense_adjacency(g)
    d = g.degrees
    eye = np.eye(g.n_nodes)
    if kind is OperatorKind.UNNORMALIZED_LAPLACIAN:
        return np.diag(d) - a
    if kind in (OperatorKind.NORMALIZED_LAPLACIAN, OperatorKind.NORMALIZED_ADJACENCY):
        s = 1.0 / np.sqrt(d)
        m = s[:, None] * a * s[None, :]
    else:
        s = 1.0 / np.sqrt(d + 1.0)
        m = s[:, None] * (a + eye) * s[None, :]
    if kind in (OperatorKind.NORMALIZED_LAPLACIAN, OperatorKind.RENORMALIZED_LAPLACIAN):
        return eye - m
    return m


def ring_with_chords(n, n_chords, seed):
    """Connected sparse graph: an n-cycle plus n_chords random chords."""
    rng = np.random.default_rng(seed)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(int(i), int(j)) for i, j in rng.integers(0, n, size=(n_chords, 2)) if i != j]
    return make_graph(n, pairs)
