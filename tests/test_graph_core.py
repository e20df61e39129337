import tempfile
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oversmooth import (
    DomainError,
    Graph,
    GraphFormatError,
    largest_connected_component,
    load_cora,
    load_edge_list,
    load_tu_dataset,
    make_graph,
    stats,
)
from oversmooth import graph_core
from oversmooth.graph_core import connected_components
from oversmooth.synthetic import write_synthetic_enzymes

from conftest import PENDANT_TRIANGLE_TEXT, reference_canonical, serialize_edge_list


class TestLoadEdgeList:
    def test_single_edge(self):
        g = load_edge_list("n 2\n0 1")
        assert g.n_nodes == 2
        assert g.edge_array.tolist() == [[0, 1]]
        assert g.degrees.tolist() == [1, 1]

    def test_path_p3(self):
        g = load_edge_list("n 3\n0 1\n1 2")
        assert g.degrees.tolist() == [1, 2, 1]

    def test_triangle_plus_pendant(self):
        g = load_edge_list(PENDANT_TRIANGLE_TEXT)
        assert g.n_nodes == 4
        assert g.degrees.tolist() == [3, 2, 2, 1]

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# a comment\nn 3\n\n0 1  # trailing\n1 2\n")
        assert g.degrees.tolist() == [1, 2, 1]

    def test_node_count_inferred_without_header(self):
        assert load_edge_list("0 1\n1 2").n_nodes == 3

    @pytest.mark.parametrize(
        "text",
        [
            "n 2\n0 0",          # self-loop
            "n 2\n0 x",          # non-integer id
            "n 2\n0 1 2",        # too many fields
            "n 2\n0 5",          # id exceeds declared count
            "n 2\n-1 0",         # negative id
            "0 1\nn 3",          # header not first
            "n\n0 1",            # malformed header
            "",                  # empty, no header
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(GraphFormatError):
            load_edge_list(text)

    def test_error_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            load_edge_list("n 3\n0 1\n1 1\n")


class TestGraphValidation:
    def test_rejects_empty_graph(self):
        with pytest.raises(DomainError):
            make_graph(0, [])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(DomainError):
            make_graph(2, [(0, 5)])

    def test_deduplicates_and_canonicalizes(self):
        g = make_graph(3, [(1, 0), (0, 1), (1, 2)])
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]

    def test_degree_sum_is_twice_edge_count(self, pendant_triangle):
        assert sum(pendant_triangle.degrees) == 2 * pendant_triangle.n_edges


# ids near 0, on both sides of the widest range whose one-int64 sort key fits,
# and at both ends of int64
CANONICAL_IDS = st.one_of(
    st.integers(0, 9),
    st.integers(3_037_000_496, 3_037_000_502),
    st.integers(2**63 - 6, 2**63 - 1),
    st.integers(-2**63, -2**63 + 5),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(CANONICAL_IDS, CANONICAL_IDS), max_size=12))
# the widest key range, and one id past it; a self-loop pair at the top id makes the
# largest key, m * m - 1
@example([(3_037_000_498, 3_037_000_498), (0, 3_037_000_497), (1, 0)])
@example([(3_037_000_499, 3_037_000_499), (0, 1)])
@example([(2**63 - 1, 2**63 - 2), (-2**63, 2**63 - 1)])
def test_canonical_matches_two_column_sort(pairs):
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    got, want = graph_core._canonical(pairs), reference_canonical(pairs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True) if possible
                 else st.just([]))
    return make_graph(n, edges)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_serialize_round_trip(g):
    assert load_edge_list(serialize_edge_list(g)) == g


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_degree_sum_property(g):
    assert sum(g.degrees) == 2 * g.n_edges


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_regularity_matches_degree_extremes(g):
    assert stats(g).regular == (max(g.degrees) == min(g.degrees))


def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n_nodes))
    h.add_edges_from(g.edge_array.tolist())
    return h


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_components_match_networkx(g):
    want = sorted(sorted(c) for c in nx.connected_components(_nx_graph(g)))
    assert sorted(connected_components(g)) == want


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_bipartite_and_connected_match_networkx(g):
    h = _nx_graph(g)
    st_g = stats(g)
    assert st_g.bipartite == nx.is_bipartite(h)
    assert st_g.connected == nx.is_connected(h)


def _networkx_lcc(g):
    """LCC by networkx: largest size, ties to the smallest minimum node id."""
    h = _nx_graph(g)
    best = max(nx.connected_components(h), key=lambda c: (len(c), -min(c)))
    return nx.convert_node_labels_to_integers(h.subgraph(sorted(best)), ordering="sorted")


def test_largest_component_tie_break_matches_networkx():
    rng = np.random.default_rng(5)
    ties = 0
    for _ in range(300):
        n = int(rng.integers(4, 30))
        mask = rng.random((n, n)) < 1.5 / n
        g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]])
        comps = connected_components(g)
        largest = [c for c in comps if len(c) == max(map(len, comps))]
        ties += len(largest) > 1
        sub, x = largest_connected_component(g, np.arange(float(n)))
        want = _networkx_lcc(g)
        assert sub.n_nodes == want.number_of_nodes()
        assert sub.edge_array.tolist() == sorted(sorted(e) for e in want.edges)
        assert x.tolist() == [float(v) for v in min(largest)]
    assert ties >= 20  # the tie-break branch is exercised


class TestTUDataset:
    TOY_ADJ = "1, 2\n2, 1\n3, 4\n4, 3\n"
    TOY_IND = "1\n1\n2\n2\n"

    def test_minimal_two_graph_file(self):
        out = load_tu_dataset(self.TOY_ADJ, self.TOY_IND)
        assert len(out) == 2
        for g, attrs in out:
            assert g.n_nodes == 2
            assert g.edge_array.tolist() == [[0, 1]]
            assert attrs is None

    def test_attribute_splitting(self):
        attrs = "1.0,2.0\n3.0,4.0\n5.0,6.0\n7.0,8.0\n"
        out = load_tu_dataset(self.TOY_ADJ, self.TOY_IND, attrs)
        np.testing.assert_allclose(out[0][1], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(out[1][1], [[5.0, 6.0], [7.0, 8.0]])

    def test_cross_graph_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="crosses graphs"):
            load_tu_dataset("1, 3\n", self.TOY_IND)

    def test_attribute_row_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="row count"):
            load_tu_dataset(self.TOY_ADJ, self.TOY_IND, "1.0\n2.0\n")

    def test_skipped_graph_id_named(self):
        with pytest.raises(GraphFormatError, match="skips graph id 2"):
            load_tu_dataset("1, 2\n2, 1\n", "1\n1\n3\n")

    def test_skipped_graph_id_found_without_allocating_by_the_largest_id(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError) as info:
                load_tu_dataset("", "1\n1000000000000\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "graph indicator skips graph id 2 (ids must be 1..1000000000000)"
        assert peak < 1_000_000

    def test_graphs_are_built_on_access(self, synthetic_enzymes_dir, built_graphs):
        texts = [(synthetic_enzymes_dir / f"ENZYMES_{name}.txt").read_text()
                 for name in ("A", "graph_indicator", "node_attributes")]
        out = load_tu_dataset(*texts)
        assert built_graphs == []
        g, x = out[-9]
        assert built_graphs == [4]
        g10, x10 = out[10]
        assert g == g10 and x.tolist() == x10.tolist()

    def test_synthetic_dataset_shapes(self, synthetic_enzymes_dir):
        adj = (synthetic_enzymes_dir / "ENZYMES_A.txt").read_text()
        ind = (synthetic_enzymes_dir / "ENZYMES_graph_indicator.txt").read_text()
        att = (synthetic_enzymes_dir / "ENZYMES_node_attributes.txt").read_text()
        out = load_tu_dataset(adj, ind, att)
        assert len(out) == 19
        g0, x0 = out[0]
        assert g0.n_nodes == 37 and x0.shape[0] == 37
        g10, _ = out[10]
        assert g10.n_nodes == 4 and all(d == 3 for d in g10.degrees)
        g18, _ = out[18]
        assert g18.n_nodes == 2 and g18.n_edges == 1


    def test_interleaved_indicator_keeps_original_order_local_ids(self):
        # graph 1 holds global nodes 1, 3, 5 and graph 2 nodes 2, 4
        adj = "1, 3\n3, 1\n3, 5\n5, 3\n4, 2\n2, 4\n"
        attrs = "1.0\n2.0\n3.0\n4.0\n5.0\n"
        (g1, x1), (g2, x2) = load_tu_dataset(adj, "1\n2\n1\n2\n1\n", attrs)
        assert g1 == make_graph(3, [(0, 1), (1, 2)])
        assert list(g1.degrees) == [1, 2, 1]
        assert g2 == make_graph(2, [(0, 1)])
        assert x1.tolist() == [[1.0], [3.0], [5.0]]
        assert x2.tolist() == [[2.0], [4.0]]

    def test_shuffled_indicator_matches_per_node_reference(self):
        rng = np.random.default_rng(3)
        indicator = rng.permutation(np.repeat(np.arange(1, 6), 40))  # 5 graphs, 200 nodes
        members = {k: [int(v) for v in np.flatnonzero(indicator == k)] for k in range(1, 6)}
        local = {node: i for nodes in members.values() for i, node in enumerate(nodes)}
        edges = {k: [] for k in members}
        lines = []
        for _ in range(300):
            k = int(rng.integers(1, 6))
            u, v = (int(x) for x in rng.choice(members[k], size=2, replace=False))
            edges[k].append((local[u], local[v]))
            lines.append(f"{u + 1}, {v + 1}")
        out = load_tu_dataset("\n".join(lines), "\n".join(map(str, indicator)),
                              "\n".join(str(float(i)) for i in range(200)))
        for k, (g, x) in enumerate(out, start=1):
            assert g == make_graph(40, edges[k])
            assert x[:, 0].tolist() == [float(node) for node in members[k]]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n_graphs=st.integers(1, 20))
def test_synthetic_dataset_round_trip(seed, n_graphs):
    with tempfile.TemporaryDirectory() as tmp:
        graphs = write_synthetic_enzymes(tmp, seed=seed, n_graphs=n_graphs)
        texts = {
            name: (Path(tmp) / f"ENZYMES_{name}.txt").read_text()
            for name in ("A", "graph_indicator", "node_attributes")
        }
    loaded = load_tu_dataset(texts["A"], texts["graph_indicator"], texts["node_attributes"])
    rows = [[float(tok) for tok in line.split(",")]
            for line in texts["node_attributes"].splitlines()]
    assert len(loaded) == n_graphs
    start = 0
    for written, (g, x) in zip(graphs, loaded):
        assert g.n_nodes == written.n_nodes
        assert g == written
        assert x.tolist() == rows[start:start + g.n_nodes]
        start += g.n_nodes
    assert start == len(rows)


TOY_IND = "1\n1\n2\n2\n"

# (loader call, exception type, full message); each call has exactly one bad input,
# or two bad lines of different kinds, where the first in file order is named
LOADER_ERRORS = [
    (lambda: load_edge_list("0 1\nn 3"), GraphFormatError, "line 2: header must come first"),
    (lambda: load_edge_list("n\n0 1"), GraphFormatError, "line 1: malformed header 'n'"),
    (lambda: load_edge_list("n x\n0 1"), GraphFormatError, "line 1: malformed header 'n x'"),
    (lambda: load_edge_list("n 3\n0 1 2  # c"), GraphFormatError,
     "line 2: expected 'i j', got '0 1 2  # c'"),
    (lambda: load_edge_list("n 2\n0 x"), GraphFormatError, "line 2: non-integer node id in '0 x'"),
    (lambda: load_edge_list("n 2\n-1 0"), GraphFormatError,
     "line 2: negative node id in '-1 0'"),
    (lambda: load_edge_list("n 2\n\n0 0"), GraphFormatError, "line 3: self-loop 0"),
    (lambda: load_edge_list("n 2\n0 5"), GraphFormatError, "node id 5 exceeds declared count 2"),
    (lambda: load_edge_list("n 2\n0 99999999999999999999"), GraphFormatError,
     "node id 99999999999999999999 exceeds declared count 2"),
    (lambda: load_edge_list("n 0\n"), GraphFormatError, "line 1: node count must be >= 1"),
    (lambda: load_edge_list("# c\nn -3\n0 1"), GraphFormatError,
     "line 2: node count must be >= 1"),
    (lambda: load_edge_list(""), GraphFormatError, "empty edge list with no header"),
    (lambda: load_edge_list("# only a comment\n\n"), GraphFormatError,
     "empty edge list with no header"),
    (lambda: load_edge_list("n 3\n0 1\n0 x\n1 1\n"), GraphFormatError,
     "line 3: non-integer node id in '0 x'"),
    (lambda: load_edge_list("n 3\n1 1\n0 x\n"), GraphFormatError, "line 2: self-loop 1"),
    (lambda: load_tu_dataset("1, 2\n", "1\nx\n"), GraphFormatError, "indicator line 2: 'x'"),
    (lambda: load_tu_dataset("", "\n"), GraphFormatError, "empty graph indicator file"),
    (lambda: load_tu_dataset("", "0\n1\n"), GraphFormatError,
     "graph indicator ids must be >= 1"),
    (lambda: load_tu_dataset("", "1\n1\n3\n"), GraphFormatError,
     "graph indicator skips graph id 2 (ids must be 1..3)"),
    (lambda: load_tu_dataset("1, 2, 3\n", TOY_IND), GraphFormatError,
     "adjacency line 1: expected 'i, j', got '1, 2, 3'"),
    (lambda: load_tu_dataset("1, x\n", TOY_IND), GraphFormatError,
     "adjacency line 1: non-integer id in '1, x'"),
    (lambda: load_tu_dataset("1, 2\n1, 5\n", TOY_IND), GraphFormatError,
     "adjacency line 2: node id out of range"),
    (lambda: load_tu_dataset("0, 1\n", TOY_IND), GraphFormatError,
     "adjacency line 1: node id out of range"),
    (lambda: load_tu_dataset("1, 1\n", TOY_IND), GraphFormatError,
     "adjacency line 1: self-loop at node 1"),
    (lambda: load_tu_dataset("1, 2\n4, 1\n", TOY_IND), GraphFormatError,
     "adjacency line 2: edge crosses graphs 1 and 0"),
    (lambda: load_tu_dataset("1, 2\n1, 3\n1, x\n", TOY_IND), GraphFormatError,
     "adjacency line 2: edge crosses graphs 0 and 1"),
    (lambda: load_tu_dataset("1, 2\n\n1, x\n1, 3\n", TOY_IND), GraphFormatError,
     "adjacency line 3: non-integer id in '1, x'"),
    (lambda: load_tu_dataset("1, 2\n", TOY_IND, "1.0\nx\n3.0\n4.0\n"), GraphFormatError,
     "attribute line 2: 'x'"),
    (lambda: load_tu_dataset("1, 2\n", TOY_IND, "1.0\n2.0\n"), GraphFormatError,
     "attribute row count 2 != node count 4"),
    (lambda: load_tu_dataset("1, 2\n", TOY_IND, "1.0,2.0\n3.0\n4.0\n5.0\n"),
     GraphFormatError, "inconsistent attribute row widths"),
    (lambda: load_tu_dataset("1, 2\n", TOY_IND, "1.0,2.0\n3.0\nx\n4.0\n"),
     GraphFormatError, "attribute line 3: 'x'"),
    (lambda: load_cora("a 1.0\n", ""), GraphFormatError, "content line 1: too few fields"),
    (lambda: load_cora("a 1.0 l\nb x l\n", ""), GraphFormatError,
     "content line 2: non-numeric feature"),
    (lambda: load_cora("a 1.0 l\n\na 2.0 l\n", ""), GraphFormatError,
     "content line 3: duplicate node id a"),
    (lambda: load_cora("a 1.0 l\nb 1.0 2.0 l\n", ""), GraphFormatError,
     "content line 2: 2 features, expected 1"),
    (lambda: load_cora("\n", ""), GraphFormatError, "empty content file"),
    (lambda: load_cora("a 1.0 l\nb 2.0 l\n", "a b c\n"), GraphFormatError,
     "cites line 1: expected two ids"),
    (lambda: load_cora("a 1.0 l\nb 2.0 l\n", "a b\nb z\n"), GraphFormatError,
     "cites line 2: unknown node id"),
    # ids beyond int64, and numerals int() / float() take but the text reader does not
    (lambda: load_edge_list("0 99999999999999999999"), GraphFormatError,
     "line 1: node id 99999999999999999999 exceeds the int64 range"),
    (lambda: load_edge_list("n 99999999999999999999\n0 1"), GraphFormatError,
     "line 1: malformed header 'n 99999999999999999999'"),
    (lambda: load_edge_list("n 2\n-99999999999999999999 0"), GraphFormatError,
     "line 2: negative node id in '-99999999999999999999 0'"),
    (lambda: load_tu_dataset("", "1\n99999999999999999999\n"), GraphFormatError,
     "indicator line 2: '99999999999999999999'"),
    (lambda: load_tu_dataset("", "1\n-99999999999999999999\n"), GraphFormatError,
     "indicator line 2: '-99999999999999999999'"),
    (lambda: load_tu_dataset("1, 99999999999999999999\n", TOY_IND), GraphFormatError,
     "adjacency line 1: node id out of range"),
    (lambda: load_edge_list("n 2\n0 1_0"), GraphFormatError,
     "line 2: non-integer node id in '0 1_0'"),
    (lambda: load_edge_list("n 1_0\n0 1"), GraphFormatError, "line 1: malformed header 'n 1_0'"),
    (lambda: load_edge_list("n 2\n0 \u0661"), GraphFormatError,
     "line 2: non-integer node id in '0 \u0661'"),
    (lambda: load_tu_dataset("", "1\n1_0\n"), GraphFormatError, "indicator line 2: '1_0'"),
    (lambda: load_tu_dataset("1, \u0662\n", TOY_IND), GraphFormatError,
     "adjacency line 1: non-integer id in '1, \u0662'"),
    (lambda: load_tu_dataset("1, 2\n", TOY_IND, "1.0\n1_0\n3.0\n4.0\n"), GraphFormatError,
     "attribute line 2: '1_0'"),
    (lambda: load_tu_dataset("1, 2\n", TOY_IND, "1.0\n\u0661.5\n3.0\n4.0\n"), GraphFormatError,
     "attribute line 2: '\u0661.5'"),
    (lambda: load_cora("a 1.0 l\nb 1_0 l\n", ""), GraphFormatError,
     "content line 2: non-numeric feature"),
    (lambda: load_cora("a \u0661 l\n", ""), GraphFormatError,
     "content line 1: non-numeric feature"),
    (lambda: load_tu_dataset("1, 2\n,,\n", TOY_IND), GraphFormatError,
     "adjacency line 2: expected 'i, j', got ',,'"),
    (lambda: make_graph(0, []), DomainError, "graph must have at least one node"),
    (lambda: make_graph(2, [(0, 5)]), DomainError, "edge (0, 5) outside [0, 2)"),
    (lambda: make_graph(3, [(2, -1)]), DomainError, "edge (-1, 2) outside [0, 3)"),
    (lambda: make_graph(2, [(1, 1)]), DomainError, "self-loop at node 1"),
    (lambda: make_graph(2, [(5, 5)]), DomainError, "self-loop at node 5"),
]


@pytest.mark.parametrize("call,error,message", LOADER_ERRORS)
def test_loader_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestCora:
    CONTENT = "a 1.0 0.0 labelA\nb 0.0 1.0 labelB\nc 1.0 1.0 labelA\n"
    CITES = "a b\nb c\nc c\n"

    def test_basic_parse(self):
        g, x = load_cora(self.CONTENT, self.CITES)
        assert g.n_nodes == 3
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]  # self-citation dropped
        np.testing.assert_allclose(x, [[1, 0], [0, 1], [1, 1]])

    def test_unknown_id_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown node id"):
            load_cora(self.CONTENT, "a z\n")

    def test_duplicate_node_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_cora(self.CONTENT + "a 0.0 0.0 labelA\n", self.CITES)

    def test_ragged_row_names_its_line(self):
        with pytest.raises(GraphFormatError, match="content line 4: 3 features, expected 2"):
            load_cora(self.CONTENT + "d 1.0 0.0 1.0 labelB\n", self.CITES)


class TestLargestConnectedComponent:
    def test_tie_broken_by_smallest_min_id(self):
        g = make_graph(5, [(0, 1), (2, 3)])  # node 4 isolated
        sub, _ = largest_connected_component(g)
        assert sub.n_nodes == 2
        assert sub.edge_array.tolist() == [[0, 1]]

    def test_connected_graph_is_identity(self, pendant_triangle):
        sub, _ = largest_connected_component(pendant_triangle)
        assert sub == pendant_triangle

    def test_p3_union_k4_selects_k4(self):
        edges = [(0, 1), (1, 2)] + [(i, j) for i in range(3, 7) for j in range(i + 1, 7)]
        g = make_graph(7, edges)
        sub, _ = largest_connected_component(g)
        assert sub.n_nodes == 4
        assert all(d == 3 for d in sub.degrees)

    def test_idempotent(self):
        g = make_graph(5, [(0, 1), (2, 3)])
        once, _ = largest_connected_component(g)
        twice, _ = largest_connected_component(once)
        assert once == twice

    def test_signal_rows_filtered_consistently(self):
        g = make_graph(5, [(0, 1), (2, 3), (3, 4)])
        x = np.arange(10.0).reshape(5, 2)
        sub, xs = largest_connected_component(g, x)
        assert sub.n_nodes == 3
        np.testing.assert_allclose(xs, x[[2, 3, 4]])

    def test_signal_row_mismatch(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(DomainError):
            largest_connected_component(g, np.zeros((4, 2)))


class TestStats:
    def test_k4(self, k4):
        st4 = stats(k4)
        assert st4.regular and st4.connected and not st4.bipartite
        assert st4.avg_degree == 3.0
        assert st4.degree_variance == 0.0

    def test_p3(self, p3):
        st3 = stats(p3)
        assert not st3.regular and st3.bipartite
        assert st3.avg_degree == pytest.approx(4.0 / 3.0)

    def test_disconnected(self):
        assert not stats(make_graph(4, [(0, 1), (2, 3)])).connected

    def test_components(self):
        g = make_graph(5, [(0, 4), (1, 2)])
        assert connected_components(g) == [[0, 4], [1, 2], [3]]

    def test_components_searched_once_and_returned_as_copies(self, monkeypatch):
        g = make_graph(5, [(0, 4), (1, 2)])
        calls = []
        original = graph_core._component_labels
        monkeypatch.setattr(graph_core, "_component_labels",
                            lambda *args: calls.append(1) or original(*args))
        first = connected_components(g)
        first[0].append(99)
        first.append([7])
        assert connected_components(g) == [[0, 4], [1, 2], [3]]
        stats(g)
        largest_connected_component(g)
        assert len(calls) == 1  # one traversal gives the components and bipartiteness

    def test_edge_array_is_sorted_and_read_only(self, pendant_triangle):
        e = pendant_triangle.edge_array
        assert e.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2]]
        assert e is pendant_triangle.edge_array
        with pytest.raises(ValueError):
            e[0, 0] = 3
        assert make_graph(3, []).edge_array.shape == (0, 2)
        with pytest.raises(ValueError):
            pendant_triangle.degrees[0] = 0

    def test_graph_copies_its_edge_array(self):
        e = np.array([[0, 1], [1, 2]])
        g = Graph(3, e)
        e[0, 0] = 2
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]
        assert g.degrees.tolist() == [1, 2, 1]

    def test_equality_compares_node_count_and_edges(self, p3):
        assert p3 == make_graph(3, [(2, 1), (1, 0)])
        assert p3 != make_graph(4, [(0, 1), (1, 2)])
        assert p3 != make_graph(3, [(0, 1), (0, 2)])
        assert p3 != "p3"


def _permuted_graph(rng, n, pairs):
    perm = rng.permutation(n)
    return make_graph(n, [(perm[i], perm[j]) for i, j in pairs])


def test_traversal_matches_networkx_on_larger_graphs():
    rng = np.random.default_rng(11)
    graphs = []
    for n in (2, 3, 50, 301, 1000):
        graphs.append(_permuted_graph(rng, n, [(i, i + 1) for i in range(n - 1)]))  # path
        graphs.append(_permuted_graph(rng, n, [(i, (i + 1) % n) for i in range(n)]))  # cycle
        tree = [(int(rng.integers(k)), k) for k in range(1, n)]
        graphs.append(_permuted_graph(rng, n, tree))
        extra = rng.integers(0, n, size=(n // 2, 2))
        graphs.append(_permuted_graph(rng, n, tree[: n // 2] + [tuple(p) for p in extra
                                                                  if p[0] != p[1]]))
    for g in graphs:
        h = _nx_graph(g)
        want = sorted(sorted(c) for c in nx.connected_components(h))
        assert connected_components(g) == want
        assert stats(g).bipartite == nx.is_bipartite(h)
        assert stats(g).connected == nx.is_connected(h)


GRAPH_ERRORS = [
    (lambda: Graph(0, np.zeros((0, 2))), "graph must have at least one node"),
    (lambda: Graph(3, [[1, 1]]), "self-loop at node 1"),
    (lambda: Graph(3, [[0, 1], [1, 3]]), "edge (1, 3) outside [0, 3)"),
    (lambda: Graph(3, [[-1, 2]]), "edge (-1, 2) outside [0, 3)"),
    (lambda: Graph(3, [[0, 1], [2, 1]]), "edge (2, 1) not stored as (min, max)"),
    (lambda: Graph(3, [[1, 2], [0, 1]]), "edges not sorted and unique"),
    (lambda: Graph(3, [[0, 2], [0, 1]]), "edges not sorted and unique"),
    (lambda: Graph(3, [[0, 1], [0, 1]]), "edges not sorted and unique"),
]


@pytest.mark.parametrize("call,message", GRAPH_ERRORS)
def test_graph_validation_messages(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
