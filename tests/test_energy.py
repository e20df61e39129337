import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth import (
    DomainError,
    MeasureDescriptor,
    OperatorKind,
    axiom1_check,
    axiom2_check,
    build,
    constant_signal_energy_closed_form,
    descriptor_for,
    dirichlet_energy,
    measure,
    normalize_conjugation,
)

from oversmooth.operators import GraphOperator

from conftest import edge_sum_energy, random_connected_graph

P3_CONSTANT_ENERGY = 6.0 - 4.0 * math.sqrt(2.0)


class TestDirichletEnergy:
    def test_constant_in_unnormalized_kernel(self, p3):
        x = np.ones(3)
        assert dirichlet_energy(p3, x, OperatorKind.UNNORMALIZED_LAPLACIAN) == 0.0

    def test_p3_constant_under_normalized(self, p3):
        e = dirichlet_energy(p3, np.ones(3), OperatorKind.NORMALIZED_LAPLACIAN)
        assert e == pytest.approx(P3_CONSTANT_ENERGY, abs=1e-12)

    def test_regular_ratio_is_degree(self, k4):
        x = np.random.default_rng(1).standard_normal((4, 3))
        e_delta = dirichlet_energy(k4, x, OperatorKind.UNNORMALIZED_LAPLACIAN)
        e_norm = dirichlet_energy(k4, x, OperatorKind.NORMALIZED_LAPLACIAN)
        assert e_delta / e_norm == pytest.approx(3.0, rel=1e-12)

    def test_volume_constant_divides_by_node_count(self, p3):
        x = np.array([1.0, 0.0, 2.0])
        plain = dirichlet_energy(p3, x, OperatorKind.UNNORMALIZED_LAPLACIAN)
        scaled = dirichlet_energy(
            p3, x, OperatorKind.UNNORMALIZED_LAPLACIAN, include_volume_constant=True
        )
        assert scaled == pytest.approx(plain / 3.0)

    def test_empty_feature_dimension_gives_zero(self, p3):
        assert dirichlet_energy(p3, np.zeros((3, 0)), OperatorKind.UNNORMALIZED_LAPLACIAN) == 0.0

    def test_non_laplacian_kind_rejected(self, p3):
        with pytest.raises(DomainError):
            dirichlet_energy(p3, np.ones(3), OperatorKind.NORMALIZED_ADJACENCY)

    def test_wrong_row_count_rejected(self, p3):
        with pytest.raises(DomainError):
            dirichlet_energy(p3, np.ones(4), OperatorKind.UNNORMALIZED_LAPLACIAN)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_edge_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(3, 12)))
        x = rng.standard_normal((g.n_nodes, 4))
        for kind in (
            OperatorKind.UNNORMALIZED_LAPLACIAN,
            OperatorKind.NORMALIZED_LAPLACIAN,
            OperatorKind.RENORMALIZED_LAPLACIAN,
        ):
            got = dirichlet_energy(g, x, kind)
            want = edge_sum_energy(g, x, kind)
            assert got == pytest.approx(want, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_homogeneity(self, c):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 6)
        x = rng.standard_normal((6, 2))
        base = dirichlet_energy(g, x, OperatorKind.NORMALIZED_LAPLACIAN)
        scaled = dirichlet_energy(g, c * x, OperatorKind.NORMALIZED_LAPLACIAN)
        assert scaled == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)


class TestMeasure:
    def test_kernel_signal_gives_zero(self, p3):
        desc = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert measure(desc, np.ones(3)) == 0.0

    def test_indicator_signal_trace_value(self, p3):
        desc = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert measure(desc, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_regular_constant_gives_zero(self, k4):
        desc = descriptor_for(k4, OperatorKind.NORMALIZED_LAPLACIAN)
        assert measure(desc, 2.5 * np.ones(4)) <= 1e-12

    def test_trace_is_half_neighbor_sum(self, pendant_triangle):
        x = np.random.default_rng(3).standard_normal((4, 2))
        desc = descriptor_for(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN)
        e = dirichlet_energy(pendant_triangle, x, OperatorKind.NORMALIZED_LAPLACIAN)
        assert measure(desc, x) == pytest.approx(e / 2.0, rel=1e-12)

    def test_sqrt_variant_absolute_homogeneity(self, p3):
        desc = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN, take_sqrt=True)
        x = np.array([1.0, -1.0, 2.0])
        assert measure(desc, -3.0 * x) == pytest.approx(3.0 * measure(desc, x), rel=1e-12)

    def test_zero_iff_kernel_membership(self, pendant_triangle):
        # mu(X) = 0 exactly when every column lies in ker(M).
        desc = descriptor_for(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN)
        kernel = np.sqrt(pendant_triangle.degrees)
        assert measure(desc, np.column_stack([kernel, 2 * kernel])) <= 1e-12
        x = np.column_stack([kernel, kernel + np.array([1.0, 0, 0, 0])])
        assert measure(desc, x) > 1e-3

    def test_asymmetric_inducing_matrix_rejected(self, k2):
        # the descriptor's operator rejects [[0, 1], [0, 0]] on construction
        with pytest.raises(DomainError, match="symmetric"):
            MeasureDescriptor(GraphOperator(
                kind=OperatorKind.CUSTOM, indptr=np.array([0, 2, 3]),
                indices=np.array([0, 1, 1]), data=np.array([0.0, 1.0, 0.0]), graph_ref=k2,
            ))


class TestClosedForm:
    def test_p3_unit_constant(self, p3):
        e = constant_signal_energy_closed_form(p3, OperatorKind.NORMALIZED_LAPLACIAN, 1.0)
        assert e == pytest.approx(P3_CONSTANT_ENERGY, abs=1e-12)

    def test_regular_graph_is_zero(self, k4):
        for c in (1.0, -3.0, 0.25):
            assert constant_signal_energy_closed_form(
                k4, OperatorKind.NORMALIZED_LAPLACIAN, c
            ) == 0.0

    def test_quadratic_in_constant(self, p3):
        e1 = constant_signal_energy_closed_form(p3, OperatorKind.NORMALIZED_LAPLACIAN, 1.0)
        e2 = constant_signal_energy_closed_form(p3, OperatorKind.NORMALIZED_LAPLACIAN, 2.0)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    def test_matches_direct_energy_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            for kind in (OperatorKind.NORMALIZED_LAPLACIAN, OperatorKind.RENORMALIZED_LAPLACIAN):
                closed = constant_signal_energy_closed_form(g, kind, 1.5)
                direct = dirichlet_energy(g, 1.5 * np.ones(g.n_nodes), kind)
                assert closed == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_unnormalized_kind_rejected(self, p3):
        with pytest.raises(DomainError):
            constant_signal_energy_closed_form(p3, OperatorKind.UNNORMALIZED_LAPLACIAN, 1.0)


class TestAxiom1:
    def test_unnormalized_holds_on_pendant_triangle(self, pendant_triangle):
        desc = descriptor_for(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN, take_sqrt=True)
        assert axiom1_check(desc, pendant_triangle).holds is True

    def test_normalized_fails_on_pendant_triangle_with_constant_witness(self, pendant_triangle):
        desc = descriptor_for(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN, take_sqrt=True)
        result = axiom1_check(desc, pendant_triangle)
        assert result.holds is False
        assert result.witness is not None
        # the witness is a constant-row signal with strictly positive measure
        assert np.ptp(result.witness, axis=0).max() <= 1e-12
        assert measure(desc, result.witness) > 0.0

    def test_normalized_holds_on_regular_graph(self, k4):
        desc = descriptor_for(k4, OperatorKind.NORMALIZED_LAPLACIAN, take_sqrt=True)
        assert axiom1_check(desc, k4).holds is True

    def test_degree_weighted_kernel_signal_is_found(self, pendant_triangle):
        # M = I - 11^T/n - vv^T is PSD with kernel span{1, D^{1/2} 1} (v: centred
        # unit D^{1/2} 1): constants pass, the non-constant D^{1/2} 1 has zero measure
        n = pendant_triangle.n_nodes
        w = np.sqrt(pendant_triangle.degrees)
        v = (w - w.mean()) / np.linalg.norm(w - w.mean())
        m = np.eye(n) - np.ones((n, n)) / n - np.outer(v, v)
        full = GraphOperator(kind=OperatorKind.CUSTOM, indptr=np.arange(0, n * n + 1, n),
                             indices=np.tile(np.arange(n), n), data=m.ravel(),
                             graph_ref=pendant_triangle)
        result = axiom1_check(MeasureDescriptor(full, take_sqrt=True), pendant_triangle)
        assert result.holds is False
        assert result.note == "non-constant degree-weighted signal has zero measure"
        np.testing.assert_allclose(result.witness[:, 0], w, rtol=1e-15)

    def test_trials_validation(self, k4):
        desc = descriptor_for(k4, OperatorKind.UNNORMALIZED_LAPLACIAN)
        with pytest.raises(DomainError):
            axiom1_check(desc, k4, trials=0)


class TestAxiom2:
    def test_sqrt_unnormalized_subadditive(self, p3):
        desc = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN, take_sqrt=True)
        assert axiom2_check(desc, trials=100) is True

    def test_sqrt_normalized_subadditive_despite_axiom1_failure(self, pendant_triangle):
        desc = descriptor_for(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN, take_sqrt=True)
        assert axiom2_check(desc, trials=100) is True

    def test_additive_identity_equality(self, p3):
        desc = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN, take_sqrt=True)
        x = np.random.default_rng(5).standard_normal((3, 2))
        assert measure(desc, x + np.zeros_like(x)) == pytest.approx(
            measure(desc, x) + measure(desc, np.zeros_like(x)), abs=1e-12
        )

    def test_plain_trace_form_not_applicable(self, p3):
        desc = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN, take_sqrt=False)
        assert axiom2_check(desc) is None


class TestNormalizeConjugation:
    def test_unnormalized_becomes_normalized(self, pendant_triangle):
        desc = descriptor_for(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        conj = normalize_conjugation(desc, pendant_triangle)
        want = build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN).matrix
        np.testing.assert_allclose(conj.operator.matrix, want, atol=1e-12)

    def test_identity_on_k4_scales(self, k4):
        identity = GraphOperator(kind=OperatorKind.CUSTOM, indptr=np.arange(5),
                                 indices=np.arange(4), data=np.ones(4), graph_ref=k4)
        conj = normalize_conjugation(MeasureDescriptor(identity), k4)
        np.testing.assert_allclose(conj.operator.matrix, np.eye(4) / 3.0, atol=1e-15)

    def test_conjugation_breaks_axiom1_on_nonregular(self, p3):
        desc = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN, take_sqrt=True)
        conj = normalize_conjugation(desc, p3)
        assert axiom1_check(conj, p3).holds is False

    @pytest.mark.parametrize("seed", range(5))
    def test_conjugation_property_on_random_nonregular_graphs(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_connected_graph(rng, int(rng.integers(4, 12)), regular=False)
        desc = descriptor_for(g, OperatorKind.UNNORMALIZED_LAPLACIAN, take_sqrt=True)
        assert axiom1_check(desc, g).holds is True
        conj = normalize_conjugation(desc, g)
        result = axiom1_check(conj, g)
        assert result.holds is False
        assert np.ptp(result.witness, axis=0).max() <= 1e-12  # constant witness
