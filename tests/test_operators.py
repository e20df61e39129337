import numpy as np
import pytest

from oversmooth import (
    DomainError,
    OperatorKind,
    PropagationConfig,
    build,
    commutation,
    commutator,
    constant_signal_energy_closed_form,
    dirichlet_energy,
    kernel_generator,
    make_graph,
    propagate,
    stats,
)
from oversmooth.dynamics import compatible_energy
from oversmooth.energy import quadratic_form
from oversmooth.operators import (
    KINDS,
    LAPLACIAN_KINDS,
    PROPAGATION_KINDS,
    GraphOperator,
    propagation_kernel_vector,
)

from conftest import dense_adjacency, dense_operator, edge_sum_energy, random_connected_graph

STANDARD_KINDS = (
    OperatorKind.UNNORMALIZED_LAPLACIAN,
    OperatorKind.NORMALIZED_LAPLACIAN,
    OperatorKind.RENORMALIZED_LAPLACIAN,
    OperatorKind.NORMALIZED_ADJACENCY,
    OperatorKind.RENORMALIZED_ADJACENCY,
)


class TestBuild:
    def test_p3_unnormalized_laplacian(self, p3):
        m = build(p3, OperatorKind.UNNORMALIZED_LAPLACIAN).matrix
        np.testing.assert_allclose(m, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_pendant_triangle_degree_diagonal(self, pendant_triangle):
        m = build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN).matrix
        np.testing.assert_allclose(np.diag(m), [3, 2, 2, 1])

    def test_k4_normalized_is_scaled_unnormalized(self, k4):
        delta = build(k4, OperatorKind.UNNORMALIZED_LAPLACIAN).matrix
        delta_norm = build(k4, OperatorKind.NORMALIZED_LAPLACIAN).matrix
        np.testing.assert_allclose(delta_norm, delta / 3.0, atol=1e-12)

    def test_adjacency_laplacian_complementarity(self, pendant_triangle):
        dn = build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN).matrix
        an = build(pendant_triangle, OperatorKind.NORMALIZED_ADJACENCY).matrix
        np.testing.assert_allclose(dn + an, np.eye(4), atol=1e-12)
        dt = build(pendant_triangle, OperatorKind.RENORMALIZED_LAPLACIAN).matrix
        at = build(pendant_triangle, OperatorKind.RENORMALIZED_ADJACENCY).matrix
        np.testing.assert_allclose(dt + at, np.eye(4), atol=1e-12)

    def test_self_loop_variant_is_conjugated_unnormalized(self, pendant_triangle):
        delta = build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN).matrix
        dt = build(pendant_triangle, OperatorKind.RENORMALIZED_LAPLACIAN).matrix
        s = 1.0 / np.sqrt(pendant_triangle.degrees + 1.0)
        np.testing.assert_allclose(dt, s[:, None] * delta * s[None, :], atol=1e-12)

    def test_disconnected_rejected(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DomainError, match="connected"):
            build(g, OperatorKind.UNNORMALIZED_LAPLACIAN)


class TestCsr:
    def test_dense_view_equals_dense_formula_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            g = random_connected_graph(rng, n, float(rng.uniform(0.15, 0.9)))
            for kind in STANDARD_KINDS:
                got = build(g, kind).matrix
                want = dense_operator(g, kind)
                assert got.tobytes() == want.tobytes(), (n, kind)

    def test_layout_sorted_rows_with_explicit_diagonal(self, pendant_triangle):
        op = build(pendant_triangle, OperatorKind.NORMALIZED_ADJACENCY)
        assert op.indptr.tolist() == [0, 4, 7, 10, 12]
        assert op.indices.tolist() == [0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 0, 3]
        assert op.data[[0, 5, 9, 11]].tolist() == [0.0, 0.0, 0.0, 0.0]  # A_norm diagonal
        assert op.n == 4

    @pytest.mark.parametrize("kind", STANDARD_KINDS)
    def test_product_matches_dense(self, kind, pendant_triangle):
        op = build(pendant_triangle, kind)
        x = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_allclose(op @ x, op.matrix @ x, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(op @ x[:, 0], op.matrix @ x[:, 0], rtol=1e-15, atol=1e-15)
        assert (op @ x[:, 0]).shape == (4,)

    def test_single_node_graph(self):
        g = make_graph(1, [])
        op = build(g, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert op.matrix.tolist() == [[0.0]]
        assert (op @ np.ones((1, 2))).tolist() == [[0.0, 0.0]]

    def test_asymmetric_csr_values_rejected(self, pendant_triangle):
        op = build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        data = op.data.copy()
        data[1] += 1e-6  # entry (0, 1) without its mirror (1, 0)
        with pytest.raises(DomainError, match="symmetric"):
            GraphOperator(kind=op.kind, indptr=op.indptr, indices=op.indices, data=data,
                          graph_ref=pendant_triangle)

    def test_asymmetric_csr_pattern_rejected(self, p3):
        # row 0 lists column 1 but row 1 does not list column 0
        with pytest.raises(DomainError, match="symmetric"):
            GraphOperator(kind=OperatorKind.CUSTOM, indptr=np.array([0, 2, 3, 4]),
                          indices=np.array([0, 1, 1, 2]), data=np.ones(4), graph_ref=p3)


class TestKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_laplacian_kernels_annihilated(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(3, 15)))
        for kind in LAPLACIAN_KINDS:
            v = kernel_generator(g, kind)
            resid = np.abs(build(g, kind).matrix @ v).max()
            assert resid <= 1e-9

    def test_p3_normalized_kernel_vector(self, p3):
        v = kernel_generator(p3, OperatorKind.NORMALIZED_LAPLACIAN)
        np.testing.assert_allclose(v, [0.5, np.sqrt(2) / 2, 0.5], atol=1e-12)

    def test_unnormalized_kernel_is_constant(self, pendant_triangle):
        v = kernel_generator(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert np.ptp(v) == 0.0

    def test_k4_self_loop_kernel_is_constant(self, k4):
        v = kernel_generator(k4, OperatorKind.RENORMALIZED_LAPLACIAN)
        assert np.ptp(v) <= 1e-15

    def test_propagation_fixed_point(self, pendant_triangle):
        for kind in (OperatorKind.NORMALIZED_ADJACENCY, OperatorKind.RENORMALIZED_ADJACENCY):
            v = propagation_kernel_vector(pendant_triangle, kind)
            resid = np.abs(build(pendant_triangle, kind).matrix @ v - v).max()
            assert resid <= 1e-12

    def test_non_laplacian_kind_rejected(self, p3):
        with pytest.raises(DomainError):
            kernel_generator(p3, OperatorKind.NORMALIZED_ADJACENCY)


class TestCommutators:
    def test_k4_laplacians_commute_exactly(self, k4):
        p = build(k4, OperatorKind.NORMALIZED_LAPLACIAN)
        q = build(k4, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert float(np.linalg.norm(commutator(p, q))) <= 1e-12
        assert commutation(p, q)[0]

    def test_self_commutation(self, pendant_triangle):
        p = build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert commutation(p, p)[0]

    def test_adjacency_degree_noncommutation_entries(self, pendant_triangle):
        a = dense_adjacency(pendant_triangle)
        d = np.diag(pendant_triangle.degrees)
        ad = a @ d
        da = d @ a
        assert ad[0][1] == 2.0
        assert da[0][1] == 3.0
        assert np.abs(ad - da).max() > 0.0

    def test_pendant_triangle_laplacians_do_not_commute(self, pendant_triangle):
        p = build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN)
        q = build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert float(np.linalg.norm(commutator(p, q))) > 1e-6
        assert not commutation(p, q)[0]

    def test_regular_graphs_commute(self):
        cycle5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        p = build(cycle5, OperatorKind.NORMALIZED_LAPLACIAN)
        q = build(cycle5, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert commutation(p, q)[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_unequal_degree_edge_breaks_commutation(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_connected_graph(rng, int(rng.integers(4, 20)), regular=False)
        assert any(g.degrees[i] != g.degrees[j] for i, j in g.edge_array.tolist())
        p = build(g, OperatorKind.NORMALIZED_LAPLACIAN)
        q = build(g, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert not commutation(p, q)[0]

    def test_different_graphs_rejected(self, p3, k4):
        p = build(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        q = build(k4, OperatorKind.UNNORMALIZED_LAPLACIAN)
        with pytest.raises(DomainError):
            commutator(p, q)


class TestKindTable:
    """Invariants of every row of ``operators.KINDS`` on random connected graphs."""

    @pytest.fixture(scope="class")
    def graphs(self):
        rng = np.random.default_rng(4242)
        return [
            random_connected_graph(rng, int(rng.integers(2, 16)), float(rng.uniform(0.15, 0.8)))
            for _ in range(120)
        ]

    def test_rows_are_the_standard_kinds(self):
        assert set(KINDS) == set(STANDARD_KINDS)
        assert set(LAPLACIAN_KINDS) | set(PROPAGATION_KINDS) == set(STANDARD_KINDS)
        assert all(KINDS[k].laplacian in LAPLACIAN_KINDS for k in PROPAGATION_KINDS)

    def test_paired_laplacian_annihilates_its_kernel_generator(self, graphs):
        for g in graphs:
            for spec in KINDS.values():
                v = kernel_generator(g, spec.laplacian)
                assert np.abs(build(g, spec.laplacian) @ v).max() <= 1e-12

    def test_propagation_is_identity_minus_paired_laplacian(self, graphs):
        for g in graphs:
            for kind in PROPAGATION_KINDS:
                p = build(g, kind)
                lap = build(g, KINDS[kind].laplacian)
                assert np.array_equal(np.eye(g.n_nodes) - p.matrix, lap.matrix), kind
                v = propagation_kernel_vector(g, kind)
                np.testing.assert_allclose(p @ v, v, rtol=0.0, atol=1e-12)

    def test_laplacian_rows_have_no_fixed_direction(self, p3):
        for kind in LAPLACIAN_KINDS:
            with pytest.raises(DomainError, match="not a propagation operator"):
                propagation_kernel_vector(p3, kind)

    def test_compatible_energy_is_the_paired_laplacians_column(self, graphs):
        rng = np.random.default_rng(7)
        for g in graphs:
            x0 = rng.standard_normal((g.n_nodes, 2))
            for kind in PROPAGATION_KINDS:
                _, trace = propagate(g, x0, PropagationConfig(layers=1, operator_kind=kind))
                want = dirichlet_energy(g, x0, KINDS[kind].laplacian)
                assert compatible_energy(trace, trace.records[0]) == want

    def test_closed_form_matches_the_quadratic_form(self, graphs):
        for g in graphs:
            x = np.full((g.n_nodes, 1), 1.5)
            for spec in KINDS.values():
                want = 2.0 * quadratic_form(build(g, spec.laplacian), x)
                if spec.shift is None:
                    with pytest.raises(DomainError):
                        constant_signal_energy_closed_form(g, spec.laplacian, 1.5)
                    assert abs(want) <= 1e-12
                    continue
                got = constant_signal_energy_closed_form(g, spec.laplacian, 1.5)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
                # the per-edge loop, summed in another order
                loop = edge_sum_energy(g, x, spec.laplacian)
                assert got == pytest.approx(loop, rel=1e-12, abs=1e-15)

    def test_bipartite_flag_marks_the_minus_one_eigenvalue(self, graphs):
        bipartite = [stats(g).bipartite for g in graphs]
        assert sum(bipartite) >= 10
        for g, is_bipartite in zip(graphs, bipartite):
            for kind, spec in KINDS.items():
                lowest = np.linalg.eigvalsh(build(g, kind).matrix)[0]
                assert (abs(lowest + 1.0) <= 1e-9) == (is_bipartite and spec.bipartite_minus_one)
