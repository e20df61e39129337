"""Seeded random graphs and a small synthetic TU-format dataset (tests, demos, scripts)."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from .graph_core import Graph, make_graph, stats

DEFAULT_DATASET_SEED = 20240817


def random_connected_graph(rng, n, p=0.35, regular=None, bipartite=None) -> Graph:
    """Sample an Erdos-Renyi G(n, p) graph until it is connected and matches the predicates.

    regular/bipartite: None = don't care, True/False = require that value.
    """
    for _ in range(1000):
        mask = rng.random((n, n)) < p
        g = Graph(n, np.argwhere(np.triu(mask, 1)))  # the pairs i < j, in row-major order
        st = stats(g)
        if not st.connected:
            continue
        if regular is not None and st.regular != regular:
            continue
        if bipartite is not None and st.bipartite != bipartite:
            continue
        return g
    raise RuntimeError("could not sample a graph with the requested properties")


def write_synthetic_enzymes(data_dir, seed=DEFAULT_DATASET_SEED, n_graphs=19, attr_width=6):
    """Write a TU-format dataset (ENZYMES_*.txt) into data_dir and return its graphs.

    Indices 0/10/18 mirror the shapes the experiment recipes use: a 37-node
    non-regular graph, K4, and K2. Everything else is drawn from the seed.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for idx in range(n_graphs):
        if idx == 0:
            graphs.append(random_connected_graph(rng, 37, 0.13, regular=False,
                                                 bipartite=False))
        elif idx == 10:
            graphs.append(make_graph(4, itertools.combinations(range(4), 2)))
        elif idx == 18:
            graphs.append(make_graph(2, [(0, 1)]))
        else:
            n = int(rng.integers(3, 12))
            graphs.append(random_connected_graph(rng, n, 0.5))

    sizes = [g.n_nodes for g in graphs]
    offsets = np.cumsum(sizes) - sizes + 1  # 1-based id of each graph's first node
    adjacency = [f"{i}, {j}\n{j}, {i}" for g, off in zip(graphs, offsets)
                 for i, j in (g.edge_array + off).tolist()]
    indicator = np.repeat(np.arange(1, n_graphs + 1), sizes).astype(str).tolist()
    row = ",".join(["%.6f"] * attr_width)
    attributes = [row % tuple(r) for r in rng.standard_normal((sum(sizes), attr_width)).tolist()]

    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    (data_dir / "ENZYMES_A.txt").write_text("\n".join(adjacency) + "\n")
    (data_dir / "ENZYMES_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (data_dir / "ENZYMES_node_attributes.txt").write_text("\n".join(attributes) + "\n")
    return graphs
