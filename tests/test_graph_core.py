import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth import (
    DomainError,
    GraphFormatError,
    largest_connected_component,
    load_cora,
    load_edge_list,
    load_tu_dataset,
    make_graph,
    serialize_edge_list,
    stats,
)
from oversmooth.graph_core import connected_components

from conftest import PENDANT_TRIANGLE_TEXT


class TestLoadEdgeList:
    def test_single_edge(self):
        g = load_edge_list("n 2\n0 1")
        assert g.n_nodes == 2
        assert g.edges == frozenset({(0, 1)})
        assert g.degrees == (1, 1)

    def test_path_p3(self):
        g = load_edge_list("n 3\n0 1\n1 2")
        assert g.degrees == (1, 2, 1)

    def test_triangle_plus_pendant(self):
        g = load_edge_list(PENDANT_TRIANGLE_TEXT)
        assert g.n_nodes == 4
        assert g.degrees == (3, 2, 2, 1)

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# a comment\nn 3\n\n0 1  # trailing\n1 2\n")
        assert g.degrees == (1, 2, 1)

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
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_degree_sum_is_twice_edge_count(self, pendant_triangle):
        assert sum(pendant_triangle.degrees) == 2 * pendant_triangle.n_edges


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


class TestTUDataset:
    TOY_ADJ = "1, 2\n2, 1\n3, 4\n4, 3\n"
    TOY_IND = "1\n1\n2\n2\n"

    def test_minimal_two_graph_file(self):
        out = load_tu_dataset(self.TOY_ADJ, self.TOY_IND)
        assert len(out) == 2
        for g, attrs in out:
            assert g.n_nodes == 2
            assert g.edges == frozenset({(0, 1)})
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


class TestCora:
    CONTENT = "a 1.0 0.0 labelA\nb 0.0 1.0 labelB\nc 1.0 1.0 labelA\n"
    CITES = "a b\nb c\nc c\n"

    def test_basic_parse(self):
        g, x = load_cora(self.CONTENT, self.CITES)
        assert g.n_nodes == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})  # self-citation dropped
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
        assert sub.edges == frozenset({(0, 1)})

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
