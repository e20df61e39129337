import math
import tracemalloc

import numpy as np
import pytest

from oversmooth import (
    DomainError,
    InsufficientDataError,
    OperatorKind,
    classify_regime,
    energy_ratio_trace,
    fit_decay,
    make_graph,
    propagate,
)
from oversmooth.dynamics import (
    FirstLayerWeights,
    PerLayerWeights,
    PropagationConfig,
    compatible_energy,
)
from oversmooth.energy import DEFAULT_SEED
from oversmooth.operators import LAPLACIAN_KINDS, propagation_kernel_vector

from conftest import (
    dense_operator,
    random_connected_graph,
    ring_with_chords,
    weight_equivalence_check,
    write_synthetic_enzymes,
)


def _dense_reference_trace(g, x, kind, layers):
    """Rows (fro, e_delta, e_delta_norm, e_delta_tilde_norm, alignment) from dense operators."""
    prop = dense_operator(g, kind)
    laplacians = [dense_operator(g, lk) for lk in LAPLACIAN_KINDS]
    v = propagation_kernel_vector(g, kind)
    rows = []
    for k in range(layers + 1):
        if k:
            x = prop @ x
        fro = float(np.linalg.norm(x))
        energies = [2.0 * float(np.tensordot(x, m @ x, axes=2)) for m in laplacians]
        rows.append([fro, *energies, float(np.linalg.norm(v @ x)) / fro])
    return np.array(rows)


class TestPropagate:
    def test_k2_bipartite_oscillation(self, k2):
        x0 = np.array([1.0, -1.0])
        cfg = PropagationConfig(layers=2)
        x, trace = propagate(k2, x0, cfg)
        np.testing.assert_allclose(x[:, 0], [1.0, -1.0], atol=1e-12)
        energies = [rec.e_delta for rec in trace.records]
        assert max(energies) == pytest.approx(min(energies), rel=1e-12)
        assert any("bipartite" in note for note in trace.notes)

    def test_kernel_input_is_fixed_point(self, pendant_triangle):
        x0 = np.sqrt(pendant_triangle.degrees)
        x, trace = propagate(pendant_triangle, x0, PropagationConfig(layers=5))
        np.testing.assert_allclose(x[:, 0], x0, atol=1e-12)
        for rec in trace.records:
            assert rec.e_delta_norm <= 1e-12
            assert rec.fro_norm == pytest.approx(trace.records[0].fro_norm, rel=1e-12)
            assert rec.kernel_alignment == pytest.approx(1.0, abs=1e-12)

    def test_record_count_and_indices(self, k4):
        x0 = np.random.default_rng(0).standard_normal((4, 3))
        _, trace = propagate(k4, x0, PropagationConfig(layers=50))
        assert len(trace.records) == 51
        assert [rec.k for rec in trace.records] == list(range(51))

    def test_k4_hits_numerical_floor_before_layer_20(self, k4):
        x0 = np.random.default_rng(0).standard_normal((4, 5))
        _, trace = propagate(k4, x0, PropagationConfig(layers=30))
        floor_layers = [rec.k for rec in trace.records if rec.e_delta <= 1e-250]
        assert floor_layers and floor_layers[0] <= 20

    def test_normalized_energy_non_increasing(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(4, 15)), bipartite=False)
            x0 = rng.standard_normal((g.n_nodes, 3))
            _, trace = propagate(g, x0, PropagationConfig(layers=30))
            vals = [rec.e_delta_norm for rec in trace.records]
            for prev, curr in zip(vals, vals[1:]):
                assert curr <= prev * (1.0 + 1e-12) + 1e-12

    def test_self_loop_operator_converges_on_bipartite(self, p3):
        x0 = np.random.default_rng(1).standard_normal((3, 2))
        cfg = PropagationConfig(layers=200, operator_kind=OperatorKind.RENORMALIZED_ADJACENCY)
        _, trace = propagate(p3, x0, cfg)
        last = trace.records[-1]
        assert last.kernel_alignment == pytest.approx(1.0, abs=1e-9)
        kernel = np.sqrt(p3.degrees + 1.0)
        kernel /= np.linalg.norm(kernel)
        want = float(np.linalg.norm(kernel[None, :] @ x0))
        assert last.fro_norm == pytest.approx(want, abs=1e-6)

    def test_first_layer_projection_applies_before_layer_zero(self, k4):
        x0 = np.random.default_rng(2).standard_normal((4, 6))
        cfg = PropagationConfig(layers=1, weight_mode=FirstLayerWeights(out_dim=3, seed=7))
        x, trace = propagate(k4, x0, cfg)
        assert x.shape == (4, 3)
        # the k=0 record reflects the projected signal, not the raw input
        assert trace.records[0].fro_norm != pytest.approx(float(np.linalg.norm(x0)))

    def test_volume_constant_scaling(self, k4):
        x0 = np.random.default_rng(3).standard_normal((4, 2))
        _, plain = propagate(k4, x0, PropagationConfig(layers=1))
        _, scaled = propagate(
            k4, x0, PropagationConfig(layers=1, track_volume_constant=True)
        )
        assert scaled.records[0].e_delta == pytest.approx(plain.records[0].e_delta / 4.0)

    def test_input_validation(self, k4):
        with pytest.raises(DomainError):
            propagate(k4, np.ones(3), PropagationConfig(layers=1))
        with pytest.raises(DomainError):
            propagate(k4, np.full(4, np.nan), PropagationConfig(layers=1))
        with pytest.raises(DomainError):
            PropagationConfig(layers=0)
        with pytest.raises(DomainError):
            PropagationConfig(layers=1, operator_kind=OperatorKind.UNNORMALIZED_LAPLACIAN)

    def test_per_layer_dims_must_match_layers(self, k4):
        cfg = PropagationConfig(layers=3, weight_mode=PerLayerWeights(dims=(2, 2), seed=0))
        with pytest.raises(DomainError):
            propagate(k4, np.ones((4, 2)), cfg)


class TestSparseAgainstDense:
    @pytest.mark.parametrize("kind", [OperatorKind.NORMALIZED_ADJACENCY,
                                      OperatorKind.RENORMALIZED_ADJACENCY])
    def test_trace_matches_dense_path(self, kind, tmp_path, pendant_triangle, p3, k4, k2):
        rng = np.random.default_rng(8)
        graphs = [pendant_triangle, p3, k4, k2, *write_synthetic_enzymes(tmp_path),
                  *(random_connected_graph(rng, int(rng.integers(3, 30))) for _ in range(20))]
        for g in graphs:
            x0 = np.random.default_rng(g.n_nodes).standard_normal((g.n_nodes, 5))
            _, trace = propagate(g, x0, PropagationConfig(layers=50, operator_kind=kind))
            got = np.array([[r.fro_norm, r.e_delta, r.e_delta_norm, r.e_delta_tilde_norm,
                             r.kernel_alignment] for r in trace.records])
            want = _dense_reference_trace(g, x0, kind, 50)
            # 1e-12 relative to the value, or to its layer-0 value once the
            # energies sink into the cancellation noise of the quadratic form
            scale = np.maximum(np.abs(want), np.abs(want[0]))
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            # ratios agree while every energy is above 1e-4 of its initial value
            live = np.all(want[:, 1:4] > 1e-4 * want[0, 1:4], axis=1)
            ratio = np.array([r.ratio for r in trace.records])[live]
            want_ratio = want[live, 1] / want[live, 2]
            assert np.all(np.abs(ratio - want_ratio) <= 1e-12 * want_ratio)

    def test_propagate_makes_no_dense_matrix(self):
        n = 5000
        g = ring_with_chords(n, n, seed=3)
        x0 = np.random.default_rng(0).standard_normal((n, 4))
        tracemalloc.start()
        try:
            propagate(g, x0, PropagationConfig(layers=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense n x n float64 matrix would be 200 MB
        assert peak < n * n * 8 / 20


class TestWeightEquivalence:
    def test_single_layer(self, k4):
        x0 = np.random.default_rng(4).standard_normal((4, 3))
        assert weight_equivalence_check(k4, x0, dims=(5,), seed=1)

    def test_five_layers_on_triangle(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        x0 = np.random.default_rng(5).standard_normal((3, 4))
        assert weight_equivalence_check(g, x0, dims=(4, 6, 3, 5, 2), seed=2, tol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_configurations(self, seed):
        rng = np.random.default_rng(400 + seed)
        g = random_connected_graph(rng, int(rng.integers(3, 12)))
        depth = int(rng.integers(1, 8))
        dims = tuple(int(d) for d in rng.integers(1, 16, size=depth))
        x0 = rng.standard_normal((g.n_nodes, int(rng.integers(1, 8))))
        assert weight_equivalence_check(g, x0, dims=dims, seed=seed)

    def test_dims_layers_mismatch(self, k4):
        with pytest.raises(DomainError):
            weight_equivalence_check(k4, np.ones((4, 2)), dims=(2, 2), seed=0, layers=3)


class TestFitDecay:
    def test_exact_exponential(self):
        series = [(k, 2.0 * math.exp(-0.5 * k)) for k in range(20)]
        fit = fit_decay(series)
        assert fit.c1 == pytest.approx(2.0, abs=1e-12)
        assert fit.c2 == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == 1.0
        assert fit.floor_layer is None

    def test_constant_series(self):
        fit = fit_decay([(k, 3.0) for k in range(10)])
        assert fit.c2 == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_floor_cuts_the_fit(self):
        series = [(k, 2.0 * math.exp(-0.5 * k)) for k in range(10)]
        series += [(10, 0.0), (11, 0.0)]
        fit = fit_decay(series, floor=1e-290)
        assert fit.floor_layer == 10
        assert fit.c2 == pytest.approx(0.5, abs=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            fit_decay([(0, 1.0), (1, 0.5), (2, 0.0), (3, 0.0)])

    def test_negative_values_rejected(self):
        # with a negative floor, negative values survive to the log stage
        with pytest.raises(DomainError):
            fit_decay([(0, 1.0), (1, -0.5), (2, 0.25)], floor=-1.0)

    def test_real_run_decay_matches_second_eigenvalue(self, pendant_triangle):
        from oversmooth import build, eigendecompose

        x0 = np.random.default_rng(6).standard_normal((4, 3))
        _, trace = propagate(pendant_triangle, x0, PropagationConfig(layers=120))
        series = [(rec.k, rec.e_delta_norm) for rec in trace.records]
        e0 = series[0][1]
        window = [(k, v) for k, v in series if 1e-12 * e0 < v < 1e-3 * e0]
        fit = fit_decay(window)
        assert fit.r_squared > 0.99
        dec = eigendecompose(build(pendant_triangle, OperatorKind.NORMALIZED_ADJACENCY))
        lam2 = max(abs(v) for v in dec.eigenvalues if abs(v) < 1.0 - 1e-9)
        assert fit.c2 == pytest.approx(-2.0 * math.log(lam2), rel=0.05)


class TestClassifyRegime:
    def test_zero_input_is_degenerate(self, k4):
        _, trace = propagate(k4, np.zeros((4, 2)), PropagationConfig(layers=3))
        verdict = classify_regime(trace)
        assert not verdict.over_smoothing and not verdict.over_shrinking
        assert "degenerate" in verdict.notes

    def test_kernel_input_smooth_from_layer_zero(self, pendant_triangle):
        x0 = np.sqrt(pendant_triangle.degrees)
        _, trace = propagate(pendant_triangle, x0, PropagationConfig(layers=5))
        verdict = classify_regime(trace)
        assert verdict.over_smoothing and not verdict.over_shrinking

    def test_nonregular_run_over_smooths_without_shrinking(self):
        rng = np.random.default_rng(30)
        g = random_connected_graph(rng, 20, regular=False, bipartite=False)
        x0 = rng.standard_normal((g.n_nodes, 4))
        _, trace = propagate(g, x0, PropagationConfig(layers=200))
        verdict = classify_regime(trace)
        assert verdict.over_smoothing and not verdict.over_shrinking

    def test_compatible_energy_selects_matching_laplacian(self, k4):
        x0 = np.random.default_rng(7).standard_normal((4, 2))
        _, trace = propagate(
            k4, x0, PropagationConfig(layers=1, operator_kind=OperatorKind.RENORMALIZED_ADJACENCY)
        )
        rec = trace.records[0]
        assert compatible_energy(trace, rec) == rec.e_delta_tilde_norm


class TestEnergyRatioTrace:
    def test_k4_ratio_constant_three(self, k4):
        x0 = np.random.default_rng(8).standard_normal((4, 4))
        cfg = PropagationConfig(
            layers=50, weight_mode=PerLayerWeights(dims=(4,) * 50, seed=9)
        )
        _, trace = propagate(k4, x0, cfg)
        ratio = energy_ratio_trace(trace)
        assert len(ratio.points) >= 3
        assert max(abs(r - 3.0) for _, r in ratio.points) <= 1e-9

    def test_k2_ratio_constant_one(self, k2):
        x0 = np.random.default_rng(10).standard_normal((2, 3))
        cfg = PropagationConfig(
            layers=50, weight_mode=PerLayerWeights(dims=(3,) * 50, seed=11)
        )
        _, trace = propagate(k2, x0, cfg)
        ratio = energy_ratio_trace(trace)
        assert len(ratio.points) >= 3
        assert max(abs(r - 1.0) for _, r in ratio.points) <= 1e-9

    def test_nonregular_ratio_varies(self, pendant_triangle):
        x0 = np.random.default_rng(12).standard_normal((4, 4))
        cfg = PropagationConfig(
            layers=50, weight_mode=PerLayerWeights(dims=(4,) * 50, seed=13)
        )
        _, trace = propagate(pendant_triangle, x0, cfg)
        ratio = energy_ratio_trace(trace)
        values = [r for _, r in ratio.points]
        assert max(values) - min(values) > 1e-3

    def test_cut_layer_excludes_noise_dominated_tail(self, k4):
        x0 = np.random.default_rng(0).standard_normal((4, 5))
        _, trace = propagate(k4, x0, PropagationConfig(layers=50))
        ratio = energy_ratio_trace(trace)
        assert ratio.cut_layer is not None
        assert all(k < ratio.cut_layer for k, _ in ratio.points)

    def test_long_p3_run_keeps_nothing_past_the_cut(self, p3):
        # the `oversmooth ratio --graph <P3> --layers 2000` run: past the cut the
        # energies climb out of the noise now and then, and none of those layers may be kept
        x0 = np.random.default_rng(DEFAULT_SEED).standard_normal((3, 8))
        cfg = PropagationConfig(
            layers=2000, weight_mode=PerLayerWeights(dims=(8,) * 2000, seed=DEFAULT_SEED)
        )
        _, trace = propagate(p3, x0, cfg)
        ratio = energy_ratio_trace(trace)
        assert ratio.cut_layer is not None
        assert [k for k, _ in ratio.points] == list(range(ratio.cut_layer))
