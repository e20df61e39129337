"""Seeded synthetic inputs for the benchmark, written with numpy and the stdlib only.

The program under test sees only the files written here:

* ``cora.content`` / ``cora.cites``: a citation graph of Cora's shape, 2708
  papers with 1433 sparse binary word features and about 5.2k citations. Its
  largest connected component (LCC) has exactly 2485 nodes and is grown by
  preferential attachment (two links per new paper), which keeps the spectral
  gap wide enough that 50 propagation layers over-smooth. The remaining 223
  papers form small trees.
* ``ENZYMES_A.txt`` / ``ENZYMES_graph_indicator.txt`` /
  ``ENZYMES_node_attributes.txt``: a TU-format collection of 600 connected
  graphs with 10-60 nodes (each size 11 or 12 times), about 1.9 edges per
  node and 18 continuous attributes per node.

The same seed gives byte-identical files. This module deliberately shares no
code with the repository's test fixtures or scripts, so refactoring those
never changes the benchmark's inputs.

Usage: python3 perfbench/bench_inputs.py --seed N --out DIR
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CORA_NODES = 2708
CORA_FEATURES = 1433
CORA_LCC_NODES = 2485
CORA_WORDS_PER_PAPER = 18
CORA_LABELS = (
    "Case_Based", "Genetic_Algorithms", "Neural_Networks", "Probabilistic_Methods",
    "Reinforcement_Learning", "Rule_Learning", "Theory",
)
CORA_REVERSE_CITE_SHARE = 0.03  # share of links also cited in the other direction

ENZYMES_GRAPHS = 600
ENZYMES_MIN_NODES = 10
ENZYMES_MAX_NODES = 60
ENZYMES_EDGES_PER_NODE = 1.9
ENZYMES_ATTRIBUTES = 18


@dataclass(frozen=True)
class CoraFacts:
    """What the oracles need to know about the generated citation graph."""

    lcc_nodes: int
    lcc_edges: int


@dataclass(frozen=True)
class EnzymesFacts:
    """Per-graph node counts and undirected edge lists (0-based local ids)."""

    n_nodes: tuple[int, ...]
    edges: tuple[np.ndarray, ...]  # (m, 2) int arrays, i < j


def _preferential_attachment(rng: np.random.Generator, n: int) -> set[tuple[int, int]]:
    """Connected graph: a triangle, then each new node links to two distinct
    earlier nodes drawn proportionally to degree."""
    edges = {(0, 1), (1, 2), (0, 2)}
    endpoints = [0, 1, 1, 2, 0, 2]
    for v in range(3, n):
        chosen: set[int] = set()
        while len(chosen) < 2:
            chosen.add(endpoints[int(rng.integers(len(endpoints)))])
        for u in sorted(chosen):
            edges.add((u, v))
            endpoints += [u, v]
    return edges


def _random_tree(rng: np.random.Generator, nodes: list[int]) -> list[tuple[int, int]]:
    return [(nodes[int(rng.integers(k))], nodes[k]) for k in range(1, len(nodes))]


def _small_component_sizes(rng: np.random.Generator, total: int) -> list[int]:
    sizes = []
    while total > 0:
        size = min(int(rng.integers(2, 7)), total)
        if total - size == 1:  # never leave a single isolated paper
            size += 1
        sizes.append(size)
        total -= size
    return sizes


def write_cora(out: Path, seed: int) -> CoraFacts:
    rng = np.random.default_rng([seed, 1])
    # position p in the content file holds graph node perm[p]
    perm = rng.permutation(CORA_NODES)
    lcc = _preferential_attachment(rng, CORA_LCC_NODES)
    pairs = sorted(lcc)
    rest = list(range(CORA_LCC_NODES, CORA_NODES))
    start = 0
    for size in _small_component_sizes(rng, len(rest)):
        pairs += _random_tree(rng, rest[start:start + size])
        start += size

    ids = rng.choice(np.arange(30, 1_200_000), size=CORA_NODES, replace=False)
    node_id = ids[np.argsort(perm)]  # paper id of graph node v
    cites = []
    for u, v in pairs:
        a, b = (u, v) if rng.random() < 0.5 else (v, u)
        cites.append(f"{node_id[a]}\t{node_id[b]}")
        if rng.random() < CORA_REVERSE_CITE_SHARE:
            cites.append(f"{node_id[b]}\t{node_id[a]}")
    order = rng.permutation(len(cites))
    (out / "cora.cites").write_text("\n".join(cites[k] for k in order) + "\n")

    words = np.zeros((CORA_NODES, CORA_FEATURES), dtype=np.uint8)
    counts = np.clip(rng.poisson(CORA_WORDS_PER_PAPER, CORA_NODES), 1, CORA_FEATURES)
    for row, count in enumerate(counts):
        words[row, rng.choice(CORA_FEATURES, size=int(count), replace=False)] = 1
    labels = rng.integers(len(CORA_LABELS), size=CORA_NODES)
    lines = []
    for p in range(CORA_NODES):
        bits = " ".join("01"[b] for b in words[p])
        lines.append(f"{node_id[perm[p]]}\t{bits}\t{CORA_LABELS[labels[p]]}")
    (out / "cora.content").write_text("\n".join(lines) + "\n")
    return CoraFacts(lcc_nodes=CORA_LCC_NODES, lcc_edges=len(lcc))


def _connected_sparse_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    target = min(round(ENZYMES_EDGES_PER_NODE * n), n * (n - 1) // 2)
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    while len(edges) < target:
        i, j = (int(v) for v in rng.integers(n, size=2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return np.array(sorted(edges), dtype=np.int64)


def write_enzymes(out: Path, seed: int) -> EnzymesFacts:
    rng = np.random.default_rng([seed, 2])
    # every seed shuffles the same multiset of sizes, so the total the parser
    # reads is the same for every seed and only the graphs' structure differs
    span = ENZYMES_MAX_NODES - ENZYMES_MIN_NODES + 1
    sizes = rng.permutation(ENZYMES_MIN_NODES + np.arange(ENZYMES_GRAPHS) % span)
    graphs = [_connected_sparse_graph(rng, int(n)) for n in sizes]
    adjacency, indicator = [], []
    offset = 0
    for gid, (n, edges) in enumerate(zip(sizes, graphs), start=1):
        for i, j in edges + offset + 1:
            adjacency.append(f"{i}, {j}")
            adjacency.append(f"{j}, {i}")
        indicator.extend([str(gid)] * int(n))
        offset += int(n)
    attrs = rng.standard_normal((offset, ENZYMES_ATTRIBUTES)) * 4.0 + 10.0
    (out / "ENZYMES_A.txt").write_text("\n".join(adjacency) + "\n")
    (out / "ENZYMES_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (out / "ENZYMES_node_attributes.txt").write_text(
        "\n".join(",".join(f"{v:.6f}" for v in row) for row in attrs) + "\n"
    )
    return EnzymesFacts(n_nodes=tuple(int(n) for n in sizes), edges=tuple(graphs))


def read_enzymes_attributes(out: Path, facts: EnzymesFacts) -> list[np.ndarray]:
    """Per-graph attribute matrices as parsed back from the written file."""
    flat = np.loadtxt(out / "ENZYMES_node_attributes.txt", delimiter=",", ndmin=2)
    bounds = np.cumsum((0,) + facts.n_nodes)
    return [flat[bounds[k]:bounds[k + 1]] for k in range(len(facts.n_nodes))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cora = write_cora(out, args.seed)
    enzymes = write_enzymes(out, args.seed)
    print(f"cora: LCC {cora.lcc_nodes} nodes / {cora.lcc_edges} edges; "
          f"ENZYMES: {len(enzymes.n_nodes)} graphs, {sum(enzymes.n_nodes)} nodes -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
