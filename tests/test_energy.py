import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth import (
    DomainError,
    OperatorKind,
    axiom1_check,
    axiom2_check,
    build,
    descriptor_for,
    dirichlet_energy,
    measure,
    normalize_conjugation,
)

from oversmooth.cli import AXIOM_OPERATORS, OPERATOR_ALIASES
from oversmooth.operators import GraphOperator

from conftest import constant_signal_energy_closed_form, edge_sum_energy, random_connected_graph

P3_CONSTANT_ENERGY = 6.0 - 4.0 * math.sqrt(2.0)


def energy(g, x, kind, **kwargs):
    return dirichlet_energy(build(g, kind), x, **kwargs)


class TestDirichletEnergy:
    def test_constant_in_unnormalized_kernel(self, p3):
        x = np.ones(3)
        assert energy(p3, x, OperatorKind.UNNORMALIZED_LAPLACIAN) == 0.0

    def test_p3_constant_under_normalized(self, p3):
        e = energy(p3, np.ones(3), OperatorKind.NORMALIZED_LAPLACIAN)
        assert e == pytest.approx(P3_CONSTANT_ENERGY, abs=1e-12)

    def test_regular_ratio_is_degree(self, k4):
        x = np.random.default_rng(1).standard_normal((4, 3))
        e_delta = energy(k4, x, OperatorKind.UNNORMALIZED_LAPLACIAN)
        e_norm = energy(k4, x, OperatorKind.NORMALIZED_LAPLACIAN)
        assert e_delta / e_norm == pytest.approx(3.0, rel=1e-12)

    def test_volume_constant_divides_by_node_count(self, p3):
        x = np.array([1.0, 0.0, 2.0])
        plain = energy(p3, x, OperatorKind.UNNORMALIZED_LAPLACIAN)
        scaled = energy(
            p3, x, OperatorKind.UNNORMALIZED_LAPLACIAN, include_volume_constant=True
        )
        assert scaled == pytest.approx(plain / 3.0)

    def test_empty_feature_dimension_gives_zero(self, p3):
        assert energy(p3, np.zeros((3, 0)), OperatorKind.UNNORMALIZED_LAPLACIAN) == 0.0

    def test_non_laplacian_kind_rejected(self, p3):
        with pytest.raises(DomainError):
            energy(p3, np.ones(3), OperatorKind.NORMALIZED_ADJACENCY)

    def test_wrong_row_count_rejected(self, p3):
        with pytest.raises(DomainError):
            energy(p3, np.ones(4), OperatorKind.UNNORMALIZED_LAPLACIAN)

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
            got = energy(g, x, kind)
            want = edge_sum_energy(g, x, kind)
            assert got == pytest.approx(want, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_homogeneity(self, c):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 6)
        x = rng.standard_normal((6, 2))
        base = energy(g, x, OperatorKind.NORMALIZED_LAPLACIAN)
        scaled = energy(g, c * x, OperatorKind.NORMALIZED_LAPLACIAN)
        assert scaled == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)


class TestMeasure:
    # measure is sqrt(tr(X^T M X)); the trace-value checks compare its square
    def test_kernel_signal_gives_zero(self, p3):
        op = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert measure(op, np.ones(3)) == 0.0

    def test_indicator_signal_trace_value(self, p3):
        op = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert measure(op, np.array([1.0, 0.0, 0.0])) ** 2 == pytest.approx(1.0)

    def test_regular_constant_gives_zero(self, k4):
        op = descriptor_for(k4, OperatorKind.NORMALIZED_LAPLACIAN)
        assert measure(op, 2.5 * np.ones(4)) ** 2 <= 1e-12

    def test_trace_is_half_neighbor_sum(self, pendant_triangle):
        x = np.random.default_rng(3).standard_normal((4, 2))
        op = descriptor_for(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN)
        e = energy(pendant_triangle, x, OperatorKind.NORMALIZED_LAPLACIAN)
        assert measure(op, x) ** 2 == pytest.approx(e / 2.0, rel=1e-12)

    def test_absolute_homogeneity(self, p3):
        op = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        x = np.array([1.0, -1.0, 2.0])
        assert measure(op, -3.0 * x) == pytest.approx(3.0 * measure(op, x), rel=1e-12)

    def test_zero_iff_kernel_membership(self, pendant_triangle):
        # mu(X) = 0 exactly when every column lies in ker(M).
        op = descriptor_for(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN)
        kernel = np.sqrt(pendant_triangle.degrees)
        assert measure(op, np.column_stack([kernel, 2 * kernel])) ** 2 <= 1e-12
        x = np.column_stack([kernel, kernel + np.array([1.0, 0, 0, 0])])
        assert measure(op, x) ** 2 > 1e-3


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
                direct = energy(g, 1.5 * np.ones(g.n_nodes), kind)
                assert closed == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_unnormalized_kind_rejected(self, p3):
        with pytest.raises(DomainError):
            constant_signal_energy_closed_form(p3, OperatorKind.UNNORMALIZED_LAPLACIAN, 1.0)


def _axiom_operator(g, label):
    op = descriptor_for(g, OPERATOR_ALIASES[label.removeprefix("conjugate:")])
    return normalize_conjugation(op, g) if label.startswith("conjugate:") else op


class TestAxiom1:
    def test_unnormalized_holds_on_pendant_triangle(self, pendant_triangle):
        op = descriptor_for(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert axiom1_check(op, pendant_triangle).holds is True

    def test_normalized_fails_on_pendant_triangle_with_constant_witness(self, pendant_triangle):
        op = descriptor_for(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN)
        result = axiom1_check(op, pendant_triangle)
        assert result.holds is False
        assert result.witness is not None
        # the witness is a constant-row signal with strictly positive measure
        assert np.ptp(result.witness, axis=0).max() <= 1e-12
        assert measure(op, result.witness) > 0.0

    def test_normalized_holds_on_regular_graph(self, k4):
        op = descriptor_for(k4, OperatorKind.NORMALIZED_LAPLACIAN)
        assert axiom1_check(op, k4).holds is True

    @pytest.mark.parametrize("label", AXIOM_OPERATORS)
    def test_every_constant_signal_probes_the_same_value(self, label, pendant_triangle):
        # on the unit scale a constant signal c 1 d^T has squared measure
        # 1^T M 1 / n for every c and d, so one forward probe stands for all
        op = _axiom_operator(pendant_triangle, label)
        ones = np.ones(op.n)
        want = float(ones @ (op @ ones)) / op.n
        rng = np.random.default_rng(0)
        for c in (1.0, -2.0, 0.5):
            for _ in range(3):
                x = c * np.outer(ones, rng.standard_normal(3))
                assert measure(op, x / np.linalg.norm(x)) ** 2 == pytest.approx(want, abs=1e-15)

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
        result = axiom1_check(full, pendant_triangle)
        assert result.holds is False
        assert result.note == "non-constant degree-weighted signal has zero measure"
        np.testing.assert_allclose(result.witness[:, 0], w, rtol=1e-15)

    def test_trials_validation(self, k4):
        op = descriptor_for(k4, OperatorKind.UNNORMALIZED_LAPLACIAN)
        with pytest.raises(DomainError):
            axiom1_check(op, k4, trials=0)


class TestAxiom2:
    def test_unnormalized_subadditive(self, p3):
        op = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert axiom2_check(op, trials=100) is True

    def test_normalized_subadditive_despite_axiom1_failure(self, pendant_triangle):
        op = descriptor_for(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN)
        assert axiom2_check(op, trials=100) is True

    def test_additive_identity_equality(self, p3):
        op = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        x = np.random.default_rng(5).standard_normal((3, 2))
        assert measure(op, x + np.zeros_like(x)) == pytest.approx(
            measure(op, x) + measure(op, np.zeros_like(x)), abs=1e-12
        )

    def test_trials_validation(self, p3):
        op = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        with pytest.raises(DomainError):
            axiom2_check(op, trials=0)


class TestNormalizeConjugation:
    def test_unnormalized_becomes_normalized(self, pendant_triangle):
        op = descriptor_for(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        conj = normalize_conjugation(op, pendant_triangle)
        want = build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN).matrix
        np.testing.assert_allclose(conj.matrix, want, atol=1e-12)

    def test_identity_on_k4_scales(self, k4):
        identity = GraphOperator(kind=OperatorKind.CUSTOM, indptr=np.arange(5),
                                 indices=np.arange(4), data=np.ones(4), graph_ref=k4)
        conj = normalize_conjugation(identity, k4)
        np.testing.assert_allclose(conj.matrix, np.eye(4) / 3.0, atol=1e-15)

    def test_conjugation_breaks_axiom1_on_nonregular(self, p3):
        op = descriptor_for(p3, OperatorKind.UNNORMALIZED_LAPLACIAN)
        conj = normalize_conjugation(op, p3)
        assert axiom1_check(conj, p3).holds is False

    @pytest.mark.parametrize("seed", range(5))
    def test_conjugation_property_on_random_nonregular_graphs(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_connected_graph(rng, int(rng.integers(4, 12)), regular=False)
        op = descriptor_for(g, OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert axiom1_check(op, g).holds is True
        conj = normalize_conjugation(op, g)
        result = axiom1_check(conj, g)
        assert result.holds is False
        assert np.ptp(result.witness, axis=0).max() <= 1e-12  # constant witness
