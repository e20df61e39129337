"""Undirected simple graphs: construction, text ingestion, structural predicates.

A graph is its node count and its edge array. Node ids are dense 0-based
integers after ingestion. TU-format and Cora files use their native 1-based /
symbolic ids, converted at parse time.

The loaders read each file with numpy's C text reader and check it as whole
arrays. When the reader or a check refuses a file, a walk over its lines names
the first fault in file order.
"""

from __future__ import annotations

import operator
import re
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NoReturn

import numpy as np

from .errors import DomainError, GraphFormatError


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the widest id range m whose sort key (lo - base) * m + (hi - base) fits int64
_KEY_RANGE = 3_037_000_499


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """(n, 2) int64 pairs as (min, max) rows in sorted order, repeats dropped.

    The rows sort as one int64 key per pair. Over an id range too wide for that
    key, they sort as two columns.
    """
    p = pairs.reshape(-1, 2)
    if not len(p):
        return p.copy()
    lo, hi = np.minimum(p[:, 0], p[:, 1]), np.maximum(p[:, 0], p[:, 1])
    base = int(lo.min())
    m = int(hi.max()) - base + 1
    if m > _KEY_RANGE:
        e = np.stack((lo, hi), axis=1)[np.lexsort((hi, lo))]
        first = np.ones(len(e), dtype=bool)
        first[1:] = np.any(e[1:] != e[:-1], axis=1)
        return e[first]
    key = np.sort((lo - base) * m + (hi - base))
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    e = np.empty((len(key), 2), dtype=key.dtype)
    np.divmod(key, m, out=(e[:, 0], e[:, 1]))
    return e + base


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


def _read(
    lines: list[str], dtype, width: int | None = None, *, delimiter=None, comments=None
) -> np.ndarray | None:
    """The fields of ``lines`` as a 2-D array read by numpy's C reader, or None if it refuses them.

    The reader skips blank lines and, with comments="#", the text from a '#'. It refuses a
    field it cannot convert (an integer beyond int64 among them) and rows of unequal width;
    rows that are not ``width`` wide are refused too. No rows give a (0, width) array.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            a = np.loadtxt(lines, dtype=dtype, comments=comments, delimiter=delimiter, ndmin=2)
        except UserWarning:  # loadtxt's warning that the input holds no rows
            return np.empty((0, width or 0), dtype=dtype)
        except (ValueError, Warning):
            return None
    return a if width is None or a.shape[1] == width else None


# a decimal integer: the reader refuses one only when it lies beyond int64
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _raise_first(faults: Iterator[str]) -> NoReturn:
    """Raise the first fault that the walk of a refused file finds, in file order.

    Each walk yields the first fault of each bad line, then the faults of the whole
    file; it only names faults and builds no result.
    """
    raise GraphFormatError(next(faults, "file refused by the text reader"))


def _header_count(parts: list[str]) -> int | None:
    """The node count of an edge-list header split into fields, or None if it is malformed."""
    count = _read(parts[1:], np.int64, 1) if len(parts) == 2 else None
    return None if count is None else int(count[0, 0])


def _edge_list_faults(lines: list[str]) -> Iterator[str]:
    n_nodes, seen, beyond = None, False, None
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        at = f"line {lineno}"
        if parts[0] == "n":
            if seen:
                yield f"{at}: header must come first"
            elif (n_nodes := _header_count(parts)) is None:
                yield f"{at}: malformed header {raw!r}"
            elif n_nodes < 1:
                yield f"{at}: node count must be >= 1"
            seen = True
            continue
        seen = True
        ids = _read([raw], np.int64, 2, comments="#") if len(parts) == 2 else None
        if len(parts) != 2:
            yield f"{at}: expected 'i j', got {raw!r}"
        elif ids is None and not all(map(_INTEGER.fullmatch, parts)):
            yield f"{at}: non-integer node id in {raw!r}"
        else:
            i, j = map(int, parts if ids is None else ids[0])
            if i < 0 or j < 0:
                yield f"{at}: negative node id in {raw!r}"
            elif i == j:
                yield f"{at}: self-loop {i}"
            elif ids is None and n_nodes is None:
                yield f"{at}: node id {max(i, j)} exceeds the int64 range"
            elif ids is None:
                beyond = max(i, j, beyond or 0)
    if beyond is not None:
        yield f"node id {beyond} exceeds declared count {n_nodes}"


def load_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines are "i j" with 0-based integer ids; '#' starts a comment; an optional
    header line "n <count>" fixes the node count (otherwise max id + 1).
    """
    lines = text.splitlines()
    fields = (raw.split("#", 1)[0].split() for raw in lines)
    first, head = next(((k, parts) for k, parts in enumerate(fields) if parts), (len(lines), []))
    n_nodes = None
    if head[0:1] == ["n"]:
        n_nodes = _header_count(head)
        if n_nodes is None or n_nodes < 1:
            _raise_first(_edge_list_faults(lines))
        first += 1
    e = _read(lines[first:], np.int64, 2, comments="#")
    if e is None or (e < 0).any() or (e[:, 0] == e[:, 1]).any():
        _raise_first(_edge_list_faults(lines))
    max_id = int(e.max()) if len(e) else -1
    if n_nodes is None:
        n_nodes = max_id + 1
    if n_nodes <= 0:
        raise GraphFormatError("empty edge list with no header")
    if max_id >= n_nodes:
        raise GraphFormatError(f"node id {max_id} exceeds declared count {n_nodes}")
    return Graph(n_nodes, _canonical(e))


def _indicator_faults(lines: list[str]) -> Iterator[str]:
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip() and _read([raw], np.int64, 1) is None:
            yield f"indicator line {lineno}: {raw!r}"


def _adjacency_faults(lines: list[str], graph_of: np.ndarray) -> Iterator[str]:
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        parts = raw.replace(",", " ").split()
        at = f"adjacency line {lineno}"
        ids = _read([" ".join(parts)], np.int64, 2) if len(parts) == 2 else None
        if len(parts) != 2:
            yield f"{at}: expected 'i, j', got {raw!r}"
        elif ids is None and not all(map(_INTEGER.fullmatch, parts)):
            yield f"{at}: non-integer id in {raw!r}"
        elif ids is None or ids.min() < 1 or ids.max() > len(graph_of):
            yield f"{at}: node id out of range"
        elif ids[0, 0] == ids[0, 1]:
            yield f"{at}: self-loop at node {ids[0, 0]}"
        elif (gu := graph_of[ids[0, 0] - 1]) != (gv := graph_of[ids[0, 1] - 1]):
            yield f"{at}: edge crosses graphs {gu} and {gv}"


def _attribute_faults(lines: list[str], total_nodes: int) -> Iterator[str]:
    widths = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        row = _read([raw.strip()], float, delimiter=",")
        if row is None:
            yield f"attribute line {lineno}: {raw!r}"
        else:
            widths.append(row.shape[1])
    if len(widths) != total_nodes:
        yield f"attribute row count {len(widths)} != node count {total_nodes}"
    if len(set(widths)) > 1:
        yield "inconsistent attribute row widths"


@dataclass(frozen=True, eq=False)
class _TUGraphs(Sequence):
    """The (Graph, attributes | None) pairs of a checked TU dataset, each built when indexed.

    Graph k holds the nodes ``bounds[k]:bounds[k + 1]`` of the grouped node order,
    which are also its rows of the grouped attributes ``x``, and the rows
    ``offsets[k]:offsets[k + 1]`` of the canonical ``edges`` in that order.
    """

    bounds: np.ndarray
    edges: np.ndarray
    offsets: np.ndarray
    x: np.ndarray | None

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, k: int) -> tuple[Graph, np.ndarray | None]:
        k = operator.index(k)
        if not -len(self) <= k < len(self):
            raise IndexError(f"graph index {k} out of range")
        k %= len(self)
        lo, hi = self.bounds[k:k + 2]
        g = Graph(int(hi - lo), self.edges[self.offsets[k]:self.offsets[k + 1]] - lo)
        return g, None if self.x is None else self.x[lo:hi]


def load_tu_dataset(
    adjacency_text: str,
    indicator_text: str,
    node_attr_text: str | None = None,
) -> Sequence[tuple[Graph, np.ndarray | None]]:
    """Parse the TU collection text format (DS_A, DS_graph_indicator, DS_node_attributes).

    Node ids and graph ids are 1-based in the files; each graph is re-based to
    dense 0-based ids in original node order. The files are checked whole here;
    the returned read-only sequence builds a graph and its attribute rows only
    when it is indexed.
    """
    lines = indicator_text.splitlines()
    indicator = _read(lines, np.int64, 1)
    if indicator is None:
        _raise_first(_indicator_faults(lines))
    if not len(indicator):
        raise GraphFormatError("empty graph indicator file")
    if indicator.min() < 1:
        raise GraphFormatError("graph indicator ids must be >= 1")
    graph_of = indicator[:, 0] - 1  # 0-based graph index of each node
    total_nodes = len(graph_of)
    present = np.unique(graph_of)  # sorted: a skipped id is the first place it leaves 0, 1, 2, ...
    n_graphs = int(present[-1]) + 1
    if len(present) != n_graphs:
        skipped = int(np.argmax(present != np.arange(len(present)))) + 1
        raise GraphFormatError(
            f"graph indicator skips graph id {skipped} (ids must be 1..{n_graphs})"
        )
    # nodes grouped by graph, file order kept inside each graph; pos is a node's
    # place in that order, so graph k's nodes hold pos bounds[k] .. bounds[k + 1] - 1
    bounds = np.concatenate(([0], np.cumsum(np.bincount(graph_of, minlength=n_graphs))))
    by_graph = np.argsort(graph_of, kind="stable")
    pos = np.empty(total_nodes, dtype=np.intp)
    pos[by_graph] = np.arange(total_nodes)

    rows = adjacency_text.replace(",", " ").splitlines()
    a = _read(rows, np.int64, 2)
    if (
        a is None
        # commas read as blanks, but a line of commas alone is a bad line, not a blank one
        or (len(a) != len(rows)
            and len(a) != sum(map(bool, map(str.strip, adjacency_text.splitlines()))))
        or ((a < 1) | (a > total_nodes)).any()
        or (a[:, 0] == a[:, 1]).any()
        or (graph_of[a[:, 0] - 1] != graph_of[a[:, 1] - 1]).any()
    ):
        _raise_first(_adjacency_faults(adjacency_text.splitlines(), graph_of))
    # in pos ids the canonical order is by (graph, local min, local max)
    e = _canonical(pos[a - 1])

    x = None
    if node_attr_text is not None:
        lines = node_attr_text.splitlines()
        x = _read([row for row in map(str.strip, lines) if row], float, delimiter=",")
        if x is None:
            _raise_first(_attribute_faults(lines, total_nodes))
        if len(x) != total_nodes:
            raise GraphFormatError(f"attribute row count {len(x)} != node count {total_nodes}")
        x = x[by_graph]
    # each graph's block already passes every check Graph makes when it is built:
    # every graph has a node, ids lie in their graph (range and cross-graph checks),
    # no self-loop, and _canonical gives sorted (min, max) rows without repeats
    return _TUGraphs(bounds, e, np.searchsorted(e[:, 0], bounds), x)


def _content_faults(lines: list[str]) -> Iterator[str]:
    seen, width = set(), None
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        at = f"content line {lineno}"
        row = _read([" ".join(parts[1:-1])], float) if len(parts) >= 3 else None
        if len(parts) < 3:
            yield f"{at}: too few fields"
        elif parts[0] in seen:
            yield f"{at}: duplicate node id {parts[0]}"
        elif row is None:
            yield f"{at}: non-numeric feature"
        else:
            width = width or row.shape[1]  # the first row's
            if row.shape[1] != width:
                yield f"{at}: {row.shape[1]} features, expected {width}"
        seen.add(parts[0])


def load_cora(content_text: str, cites_text: str) -> tuple[Graph, np.ndarray]:
    """Parse the two-file citation format (content: id feats... label; cites: citing cited).

    Returns the undirected citation graph and the node feature matrix, node
    order following the content file. Labels are parsed but not returned.
    """
    lines = content_text.splitlines()
    ids, tails = [], []
    for raw in lines:
        head = raw.split(None, 1)  # [id, features and label], [id] or [] for a blank line
        if head:
            ids.append(head[0])
            tails.append(head[-1].rsplit(None, 1))  # [features, label] if the line has 3 fields
    index = {node_id: k for k, node_id in enumerate(ids)}
    x = None
    if all(len(tail) == 2 for tail in tails) and len(index) == len(ids):
        x = _read([tail[0] for tail in tails], float)
    if x is None:
        _raise_first(_content_faults(lines))
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

    return make_graph(len(ids), pairs), x


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
