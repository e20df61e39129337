"""Undirected simple graphs: construction, text ingestion, structural predicates.

Node ids are dense 0-based integers after ingestion. TU-format and Cora files
use their native 1-based / symbolic ids, converted at parse time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, GraphFormatError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph (no self-loops, no multi-edges)."""

    n_nodes: int
    edges: frozenset[tuple[int, int]]  # pairs stored as (min, max)
    degrees: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise DomainError("graph must have at least one node")
        for i, j in self.edges:
            if i == j:
                raise DomainError(f"self-loop at node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise DomainError(f"edge ({i}, {j}) outside [0, {self.n_nodes})")
            if i > j:
                raise DomainError(f"edge ({i}, {j}) not stored as (min, max)")
        if not self.degrees:
            object.__setattr__(self, "degrees", tuple(self._recompute_degrees()))
        elif tuple(self.degrees) != tuple(self._recompute_degrees()):
            raise DomainError("degrees inconsistent with edges")

    def _recompute_degrees(self) -> list[int]:
        deg = [0] * self.n_nodes
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degree_vector(self) -> np.ndarray:
        return np.asarray(self.degrees, dtype=float)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Read-only (n_edges, 2) array of the (min, max) pairs in sorted order, made once."""
        arr = np.array(sorted(self.edges), dtype=np.intp).reshape(-1, 2)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        # breadth-first search, run once per graph; read through connected_components
        adj = self.neighbors()
        seen = [False] * self.n_nodes
        comps = []
        for start in range(self.n_nodes):
            if seen[start]:
                continue
            comp = []
            queue = deque([start])
            seen[start] = True
            while queue:
                u = queue.popleft()
                comp.append(u)
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        queue.append(v)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)


@dataclass(frozen=True)
class GraphStats:
    connected: bool
    regular: bool
    bipartite: bool
    avg_degree: float
    degree_variance: float


def make_graph(n_nodes: int, edge_pairs) -> Graph:
    """Build a Graph from any iterable of (i, j) pairs, deduplicating."""
    edges = frozenset((min(i, j), max(i, j)) for i, j in edge_pairs)
    return Graph(n_nodes=n_nodes, edges=edges)


def load_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines are "i j" with 0-based integer ids; '#' starts a comment; an optional
    header line "n <count>" fixes the node count (otherwise max id + 1).
    """
    n_nodes = None
    pairs = []
    max_id = -1
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
        max_id = max(max_id, i, j)
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
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges))
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

    # global node id (1-based) -> (graph index 0-based, local node id 0-based)
    local_of: list[tuple[int, int]] = []
    counts = [0] * n_graphs
    for gid in indicator:
        gidx = gid - 1
        local_of.append((gidx, counts[gidx]))
        counts[gidx] += 1
    if 0 in counts:
        raise GraphFormatError(
            f"graph indicator skips graph id {counts.index(0) + 1} (ids must be 1..{n_graphs})"
        )

    edge_lists: list[list[tuple[int, int]]] = [[] for _ in range(n_graphs)]
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
        gu, lu = local_of[u - 1]
        gv, lv = local_of[v - 1]
        if gu != gv:
            raise GraphFormatError(f"adjacency line {lineno}: edge crosses graphs {gu} and {gv}")
        edge_lists[gu].append((lu, lv))

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
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise GraphFormatError("inconsistent attribute row widths")
        all_attrs = np.asarray(rows, dtype=float)
        per_graph: list[list[np.ndarray]] = [[] for _ in range(n_graphs)]
        for node_idx, (gidx, _) in enumerate(local_of):
            per_graph[gidx].append(all_attrs[node_idx])
        attrs = [np.vstack(a) if a else None for a in per_graph]

    out = []
    for gidx in range(n_graphs):
        g = make_graph(counts[gidx], edge_lists[gidx])
        out.append((g, attrs[gidx]))
    return out


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
    """Components as sorted node lists, via breadth-first search.

    The search runs once per graph; every call returns a fresh copy.
    """
    return [list(comp) for comp in g._components]


def largest_connected_component(
    g: Graph, x: np.ndarray | None = None
) -> tuple[Graph, np.ndarray | None]:
    """Induced subgraph of the largest component, ids re-based in original order.

    Ties on size are broken by the smallest minimum original node id. Rows of
    ``x`` are filtered consistently.
    """
    comps = connected_components(g)
    best = max(comps, key=lambda c: (len(c), -c[0]))
    relabel = {orig: new for new, orig in enumerate(best)}
    keep = set(best)
    edges = [(relabel[i], relabel[j]) for i, j in g.edges if i in keep]
    sub = make_graph(len(best), edges)
    if x is None:
        return sub, None
    x = np.asarray(x, dtype=float)
    if x.shape[0] != g.n_nodes:
        raise DomainError(f"signal has {x.shape[0]} rows for a {g.n_nodes}-node graph")
    return sub, x[best]


def stats(g: Graph) -> GraphStats:
    """Structural summary: connectivity, regularity, bipartiteness, degree stats."""
    deg = g.degree_vector()
    comps = connected_components(g)
    adj = g.neighbors()

    color = [-1] * g.n_nodes
    bipartite = True
    for comp in comps:
        color[comp[0]] = 0
        queue = deque([comp[0]])
        while queue and bipartite:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    bipartite = False
                    break
        if not bipartite:
            break

    return GraphStats(
        connected=len(comps) == 1,
        regular=bool(deg.max() == deg.min()),
        bipartite=bipartite,
        avg_degree=float(2 * g.n_edges / g.n_nodes),
        degree_variance=float(np.var(deg)),
    )
