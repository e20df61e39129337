import itertools
from dataclasses import fields

import numpy as np
import pytest

from oversmooth import (
    DomainError,
    Graph,
    GraphFormatError,
    OperatorKind,
    build,
    eigendecompose,
    load_edge_list,
    make_graph,
    superposition,
)
from oversmooth.dynamics import LayerRecord, LayerTrace, PerLayerWeights, _weight_chain
from oversmooth.energy import as_signal, quadratic_form
from oversmooth.io_formats import TRACE_COLUMNS
from oversmooth.operators import KINDS, LAPLACIAN_KINDS
from oversmooth.synthetic import random_connected_graph, write_synthetic_enzymes  # noqa: F401

PENDANT_TRIANGLE_TEXT = "n 4\n0 1\n0 2\n0 3\n1 2\n"


@pytest.fixture
def built_graphs(monkeypatch):
    """The node counts of the Graphs built while the test runs, in build order."""
    built = []
    check = Graph.__post_init__

    def counted(g):
        check(g)
        built.append(g.n_nodes)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    return built


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



def constant_signal_energy_closed_form(g, kind, c):
    """Closed form c^2 * sum_i sum_{j in N_i} (1/sqrt(d_i+s) - 1/sqrt(d_j+s))^2.

    s is the degree shift of the chosen normalized Laplacian; the sum runs over
    the edge array, counting each edge in both directions.
    """
    if kind not in LAPLACIAN_KINDS or KINDS[kind].shift is None:
        raise DomainError("closed form applies to the normalized Laplacian kinds")
    d = g.degrees + KINDS[kind].shift
    if d.min() <= 0:
        raise DomainError("closed form needs positive shifted degrees")
    inv = 1.0 / np.sqrt(d)
    diff = inv[g.edge_array[:, 0]] - inv[g.edge_array[:, 1]]
    return c * c * 2.0 * float(np.sum(diff * diff))


def polynomial_filter(coefficients):
    """The spectral filter lambda -> sum_k c_k lambda^k, coefficients in ascending powers."""
    return lambda lam: np.polynomial.polynomial.polyval(lam, coefficients)


def propagation_filter(k):
    """The spectral filter of k propagation steps, lambda -> (1 - lambda)^k."""
    return lambda lam: (1.0 - lam) ** k


def energy_direct(g, x0, f):
    """Independent oracle: tr((f(Delta_norm) X)^T Delta (f(Delta_norm) X)) with f(M) made dense."""
    x0 = as_signal(x0, g.n_nodes)
    dec = eigendecompose(build(g, OperatorKind.NORMALIZED_LAPLACIAN))
    filtered = (dec.eigenvectors * f(dec.eigenvalues)[None, :]) @ dec.eigenvectors.T
    return quadratic_form(build(g, OperatorKind.UNNORMALIZED_LAPLACIAN), filtered @ x0)


def frequency_mass(x, dec):
    """Unweighted projection mass ||q_b^T X||^2 per eigenvector."""
    proj = dec.eigenvectors.T @ as_signal(x, dec.n)
    return np.sum(proj * proj, axis=1)


def energy_regular_reduction(g, x0, f):
    """Independent oracle on d-regular graphs: the single sum sum_w w |f(w/d)|^2 ||q_w^T X||^2."""
    d = int(g.degrees[0])
    if np.any(g.degrees != d):
        raise DomainError("regular-graph reduction requires a regular graph")
    dec = eigendecompose(build(g, OperatorKind.UNNORMALIZED_LAPLACIAN))
    fvals = f(dec.eigenvalues / d)
    return float(np.sum(dec.eigenvalues * fvals * fvals * frequency_mass(x0, dec)))


def energy_via_superposition_reference(g, x0, f):
    """Independent oracle: the spectral expansion as its literal five nested loops (n <= 12)."""
    if g.n_nodes > 12:
        raise DomainError("literal reference evaluation is limited to n <= 12")
    x0 = as_signal(x0, g.n_nodes)
    dec_delta = eigendecompose(build(g, OperatorKind.UNNORMALIZED_LAPLACIAN))
    dec_norm = eigendecompose(build(g, OperatorKind.NORMALIZED_LAPLACIAN))
    sl = superposition(dec_norm, dec_delta).entries.tolist()  # S[a, b] = <xi_a | omega_b>
    fl = f(dec_norm.eigenvalues).tolist()
    y = dec_delta.eigenvectors.T @ x0
    cl = (y @ y.T).tolist()
    n = g.n_nodes
    total = 0.0
    for iw, w in enumerate(dec_delta.eigenvalues.tolist()):
        for iw1 in range(n):
            for iw2 in range(n):
                acc = 0.0
                for ix in range(n):
                    for ix2 in range(n):
                        acc += (
                            sl[ix][iw1] * sl[ix][iw] * sl[ix2][iw] * sl[ix2][iw2]
                            * fl[ix] * fl[ix2]
                        )
                total += w * acc * cl[iw1][iw2]
    return total


def weight_equivalence_check(g, x0, dims, seed, layers=None, tol=1e-9,
                             operator_kind=OperatorKind.NORMALIZED_ADJACENCY):
    """Interleaved P X W1 ... vs collapsed P^K (X W1 ... WK): equal up to tol.

    This is the associativity identity that lets a weighted linear stack be
    read as an unweighted propagation of a transformed input; the weights are
    the ones ``propagate`` draws for per-layer widths ``dims``.
    """
    x = as_signal(x0, g.n_nodes)
    dims = tuple(int(d) for d in dims)
    if layers is None:
        layers = len(dims)
    if len(dims) != layers:
        raise DomainError("dims must provide one output width per layer")
    prop = build(g, operator_kind)
    chain = _weight_chain(PerLayerWeights(dims=dims, seed=seed), x.shape[1])

    interleaved = x
    for w in chain:
        interleaved = (prop @ interleaved) @ w

    collapsed = x
    for w in chain:
        collapsed = collapsed @ w
    for _ in range(layers):
        collapsed = prop @ collapsed

    scale = max(float(np.linalg.norm(interleaved)), float(np.linalg.norm(collapsed)), 1e-300)
    return float(np.linalg.norm(interleaved - collapsed)) <= tol * scale

def reference_canonical(pairs):
    """Oracle for graph_core._canonical: (min, max) rows sorted as two columns, repeats dropped."""
    e = np.sort(pairs.reshape(-1, 2), axis=1)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    first = np.ones(len(e), dtype=bool)
    first[1:] = np.any(e[1:] != e[:-1], axis=1)
    return e[first]


def reference_load_edge_list(text):
    """Independent oracle: the edge-list format parsed line by line, int() per token."""
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
    max_id = max(map(max, pairs), default=-1)
    if n_nodes is None:
        n_nodes = max_id + 1
    if n_nodes <= 0:
        raise GraphFormatError("empty edge list with no header")
    if max_id >= n_nodes:
        raise GraphFormatError(f"node id {max_id} exceeds declared count {n_nodes}")
    return make_graph(n_nodes, pairs)


def serialize_edge_list(g):
    """Canonical edge-list text; inverse of load_edge_list."""
    lines = [f"n {g.n_nodes}"]
    lines.extend(f"{i} {j}" for i, j in g.edge_array.tolist())
    return "\n".join(lines) + "\n"


def _parse_trace_cell(text, annotation):
    # the annotations are strings ("int", "float", "float | None"): LayerRecord's
    # module postpones their evaluation
    if annotation == "int":
        return int(text)
    if text == "" and annotation.endswith("| None"):
        return None
    return float(text)


def reference_parse_trace_csv(text):
    """Reader for the trace CSV that io_formats.export_trace_csv writes; inverse of it."""
    operator_kind = None
    track_vol = False
    notes = []
    records = []
    saw_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("operator_kind:"):
                operator_kind = OperatorKind(body.split(":", 1)[1].strip())
            elif body.startswith("track_volume_constant:"):
                track_vol = body.split(":", 1)[1].strip() == "true"
            elif body.startswith("note:"):
                notes.append(body.split(":", 1)[1].strip())
            continue
        if not saw_header:
            if tuple(line.split(",")) != TRACE_COLUMNS:
                raise GraphFormatError(f"unexpected trace header {line!r}")
            saw_header = True
            continue
        cells = line.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise GraphFormatError(f"bad trace row {line!r}")
        records.append(LayerRecord(
            *(_parse_trace_cell(cell, f.type) for cell, f in zip(cells, fields(LayerRecord)))
        ))
    if operator_kind is None or not saw_header:
        raise GraphFormatError("trace CSV missing operator_kind preamble or header")
    return LayerTrace(
        operator_kind=operator_kind,
        records=tuple(records),
        track_volume_constant=track_vol,
        notes=tuple(notes),
    )


def reference_load_tu_dataset(adjacency_text, indicator_text, node_attr_text=None):
    """Independent oracle: the TU format parsed line by line, int() / float() per token."""
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
    for expected, gid in enumerate(sorted(set(indicator)), start=1):
        if gid != expected:
            raise GraphFormatError(
                f"graph indicator skips graph id {expected} (ids must be 1..{n_graphs})"
            )
    members = [[] for _ in range(n_graphs)]  # global 0-based node ids of each graph, file order
    local = []  # each node's place in its graph
    for node, gid in enumerate(indicator):
        local.append(len(members[gid - 1]))
        members[gid - 1].append(node)

    edges = [[] for _ in range(n_graphs)]
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
        edges[gu].append((local[u - 1], local[v - 1]))
    graphs = [make_graph(len(nodes), pairs) for nodes, pairs in zip(members, edges)]

    attrs = [None] * n_graphs
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
            raise GraphFormatError(f"attribute row count {len(rows)} != node count {total_nodes}")
        if len(set(map(len, rows))) != 1:
            raise GraphFormatError("inconsistent attribute row widths")
        attrs = [np.array([rows[node] for node in nodes], dtype=float) for nodes in members]
    return list(zip(graphs, attrs))


def reference_load_cora(content_text, cites_text, read_features=True):
    """Independent oracle: the citation format parsed line by line, float() per token.

    With read_features=False no feature token is read and the features are None.
    """
    index = {}
    feats = []
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
        if read_features:
            try:
                row = [float(tok) for tok in parts[1:-1]]
            except ValueError:
                raise GraphFormatError(f"content line {lineno}: non-numeric feature") from None
            if feats and len(row) != len(feats[0]):
                raise GraphFormatError(
                    f"content line {lineno}: {len(row)} features, expected {len(feats[0])}"
                )
            feats.append(row)
        index[node_id] = len(index)
    if not index:
        raise GraphFormatError("empty content file")

    pairs = []
    for lineno, raw in enumerate(cites_text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"cites line {lineno}: expected two ids")
        a, b = parts
        if a not in index or b not in index:
            raise GraphFormatError(f"cites line {lineno}: unknown node id")
        if a != b:  # self-citations are dropped
            pairs.append((index[a], index[b]))
    return make_graph(len(index), pairs), np.array(feats, dtype=float) if read_features else None


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


def reference_csr_matmul(op, x):
    """Oracle for GraphOperator.__matmul__: every row summed by one ``np.add.reduceat``."""
    x = np.asarray(x, dtype=float)
    terms = np.take(x if x.ndim == 2 else x[:, None], op.indices, axis=0)
    terms *= op.data[:, None]
    out = np.add.reduceat(terms, op.indptr[:-1], axis=0)
    return out if x.ndim == 2 else out[:, 0]


def ring_with_chords(n, n_chords, seed):
    """Connected sparse graph: an n-cycle plus n_chords random chords."""
    rng = np.random.default_rng(seed)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(int(i), int(j)) for i, j in rng.integers(0, n, size=(n_chords, 2)) if i != j]
    return make_graph(n, pairs)
