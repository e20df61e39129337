"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion before asserting,
so a full run gives a one-line-per-criterion summary.
"""

import itertools
import math
import time

import numpy as np
import pytest

from oversmooth import (
    OperatorKind,
    build,
    classify_regime,
    commutator,
    dirichlet_energy,
    eigendecompose,
    energy_ratio_trace,
    energy_via_superposition,
    fit_decay,
    load_edge_list,
    make_graph,
    propagate,
)
from oversmooth.dynamics import PerLayerWeights, PropagationConfig

from conftest import (
    PENDANT_TRIANGLE_TEXT,
    constant_signal_energy_closed_form,
    edge_sum_energy,
    energy_direct,
    energy_via_superposition_reference,
    polynomial_filter,
    random_connected_graph,
    weight_equivalence_check,
)


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _best_time(fn, repeats: int = 5) -> float:
    fn()  # warm-up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_constant_signal_energy():
    g = load_edge_list(PENDANT_TRIANGLE_TEXT)
    p3 = load_edge_list("n 3\n0 1\n1 2\n")
    kind = OperatorKind.NORMALIZED_LAPLACIAN

    e_pendant = dirichlet_energy(build(g, kind), np.ones(4))
    closed = constant_signal_energy_closed_form(g, kind, 1.0)
    oracle = edge_sum_energy(g, np.ones(4), kind)
    e_p3 = dirichlet_energy(build(p3, kind), np.ones(3))

    elapsed = _best_time(lambda: dirichlet_energy(build(g, kind), np.ones(4)))

    ok = (
        e_pendant > 0.0
        and abs(e_pendant - closed) <= 1e-10 * closed
        and abs(e_pendant - oracle) <= 1e-10 * oracle
        and abs(e_p3 - (6.0 - 4.0 * math.sqrt(2.0))) <= 1e-12
        and elapsed < 1e-3
    )
    _report(
        1, ok,
        f"constant-signal energy: 4-node value {e_pendant:.12g} (closed form "
        f"{closed:.12g}), path value {e_p3:.15g} vs 6-4*sqrt(2), "
        f"{elapsed * 1e6:.1f} us per evaluation",
    )


def test_criterion_2_regular_graph_ratio():
    k4 = make_graph(4, itertools.combinations(range(4), 2))
    k2 = make_graph(2, [(0, 1)])

    def run(g, seed):
        x0 = np.random.default_rng(seed).standard_normal((g.n_nodes, 4))
        cfg = PropagationConfig(
            layers=50, weight_mode=PerLayerWeights(dims=(4,) * 50, seed=seed)
        )
        _, trace = propagate(g, x0, cfg)
        return energy_ratio_trace(trace)

    elapsed = _best_time(lambda: run(k4, 0))
    ratio4 = run(k4, 0)
    ratio2 = run(k2, 1)
    dev4 = max(abs(r - 3.0) for _, r in ratio4.points)
    dev2 = max(abs(r - 1.0) for _, r in ratio2.points)

    ok = (
        len(ratio4.points) >= 3 and dev4 <= 1e-9
        and len(ratio2.points) >= 3 and dev2 <= 1e-9
        and elapsed < 1e-2
    )
    _report(
        2, ok,
        f"regular-graph ratio: max |ratio-3| = {dev4:.3e} over "
        f"{len(ratio4.points)} layers (degree-3 graph), max |ratio-1| = "
        f"{dev2:.3e} (2-node graph), {elapsed * 1e3:.2f} ms per run",
    )


def test_criterion_3_numerical_floor_onset():
    k4 = make_graph(4, itertools.combinations(range(4), 2))
    x0 = np.random.default_rng(0).standard_normal((4, 5))
    _, trace = propagate(k4, x0, PropagationConfig(layers=30))

    def onset(metric):
        for rec in trace.records:
            if getattr(rec, metric) <= 1e-250:
                return rec.k
        return None

    on_d = onset("e_delta")
    on_n = onset("e_delta_norm")
    ok = on_d is not None and on_n is not None and on_d <= 20 and on_n <= 20
    _report(
        3, ok,
        f"numerical-floor onset on the weightless degree-3 run: e_delta at "
        f"layer {on_d}, e_delta_norm at layer {on_n} (required <= 20)",
    )


def test_criterion_4_over_smoothing_without_shrinking():
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    worst_align = 1.0
    worst_norm_err = 0.0
    n_cases = 20
    for _ in range(n_cases):
        n = int(rng.integers(5, 51))
        g = random_connected_graph(rng, n, 0.3, regular=False, bipartite=False)
        x0 = rng.standard_normal((n, 4))
        _, trace = propagate(g, x0, PropagationConfig(layers=200))
        last = trace.records[-1]
        kernel = np.sqrt(g.degrees)
        kernel /= np.linalg.norm(kernel)
        kernel_norm = float(np.linalg.norm(kernel[None, :] @ x0))
        verdict = classify_regime(trace)
        worst_align = min(worst_align, last.kernel_alignment)
        worst_norm_err = max(worst_norm_err, abs(last.fro_norm - kernel_norm))
        assert last.fro_norm > 0.0
        assert verdict.over_smoothing and not verdict.over_shrinking
    elapsed = time.perf_counter() - t0
    ok = worst_align >= 0.999 and worst_norm_err < 1e-6 and elapsed < 5.0
    _report(
        4, ok,
        f"{n_cases} random non-regular non-bipartite graphs: worst final "
        f"alignment {worst_align:.9f}, worst |final norm - kernel projection| "
        f"= {worst_norm_err:.3e}, all classified over-smoothing without "
        f"over-shrinking, {elapsed:.2f} s",
    )


def test_criterion_5_spectral_expansion_oracle():
    rng = np.random.default_rng(555)
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_ref = 0.0
    n_ref = 0
    for case in range(100):
        n = int(rng.integers(3, 21))
        g = random_connected_graph(rng, n, 0.4)
        x0 = rng.standard_normal((n, int(rng.integers(1, 5))))
        deg = int(rng.integers(0, 6))
        f = polynomial_filter(rng.standard_normal(deg + 1))
        fast = energy_via_superposition(g, x0, f)
        direct = energy_direct(g, x0, f)
        scale = max(abs(direct), 1e-12)
        worst_rel = max(worst_rel, abs(fast - direct) / scale)
        if n <= 12 and n_ref < 20:
            ref = energy_via_superposition_reference(g, x0, f)
            worst_ref = max(worst_ref, abs(fast - ref) / max(abs(ref), 1e-12))
            n_ref += 1
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-7 and n_ref >= 10 and worst_ref <= 1e-7 and elapsed < 30.0
    _report(
        5, ok,
        f"100 random spectral-expansion cases: worst relative gap vs direct "
        f"evaluation {worst_rel:.3e}; contraction vs literal five-loop "
        f"reference on {n_ref} small cases {worst_ref:.3e}; {elapsed:.2f} s",
    )


def test_criterion_6_commutator_dichotomy():
    regular_graphs = [
        make_graph(2, [(0, 1)]),
        make_graph(4, itertools.combinations(range(4), 2)),
        make_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
        make_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
    ]
    worst_regular = 0.0
    for g in regular_graphs:
        c = commutator(
            build(g, OperatorKind.NORMALIZED_LAPLACIAN),
            build(g, OperatorKind.UNNORMALIZED_LAPLACIAN),
        )
        worst_regular = max(worst_regular, float(np.linalg.norm(c)))

    pendant = load_edge_list(PENDANT_TRIANGLE_TEXT)
    pendant_norm = float(np.linalg.norm(commutator(
        build(pendant, OperatorKind.NORMALIZED_LAPLACIAN),
        build(pendant, OperatorKind.UNNORMALIZED_LAPLACIAN),
    )))

    rng = np.random.default_rng(666)
    smallest_nonregular = math.inf
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(4, 25)), 0.35, regular=False)
        assert any(g.degrees[i] != g.degrees[j] for i, j in g.edge_array.tolist())
        c = commutator(
            build(g, OperatorKind.NORMALIZED_LAPLACIAN),
            build(g, OperatorKind.UNNORMALIZED_LAPLACIAN),
        )
        smallest_nonregular = min(smallest_nonregular, float(np.linalg.norm(c)))

    ok = worst_regular <= 1e-12 and pendant_norm > 1e-6 and smallest_nonregular > 1e-6
    _report(
        6, ok,
        f"commutator dichotomy: regular graphs <= {worst_regular:.1e}, "
        f"4-node counterexample {pendant_norm:.4f}, smallest over 50 random "
        f"unequal-degree-edge graphs {smallest_nonregular:.3e}",
    )


def test_criterion_7_weight_associativity():
    rng = np.random.default_rng(777)
    n_cases = 20
    for case in range(n_cases):
        g = random_connected_graph(rng, int(rng.integers(3, 16)), 0.4)
        depth = int(rng.integers(1, 11))
        dims = tuple(int(d) for d in rng.integers(1, 33, size=depth))
        x0 = rng.standard_normal((g.n_nodes, int(rng.integers(1, 33))))
        assert weight_equivalence_check(g, x0, dims=dims, seed=case, tol=1e-9), (
            f"case {case}: interleaved and collapsed weight stacks diverged"
        )
    _report(
        7, True,
        f"{n_cases} random weight configurations (depth <= 10, widths <= 32) "
        "agree between interleaved and collapsed orderings within 1e-9",
    )


def test_criterion_8_decay_fit():
    fit = fit_decay([(k, 2.0 * math.exp(-0.5 * k)) for k in range(15)])
    synth_ok = (
        abs(fit.c1 - 2.0) <= 1e-9 and abs(fit.c2 - 0.5) <= 1e-9 and fit.r_squared == 1.0
    )

    g = load_edge_list(PENDANT_TRIANGLE_TEXT)
    x0 = np.random.default_rng(8).standard_normal((4, 3))
    _, trace = propagate(g, x0, PropagationConfig(layers=150))
    series = [(rec.k, rec.e_delta_norm) for rec in trace.records]
    e0 = series[0][1]
    # fit on the clean mid-decay window, before cancellation noise dominates
    window = [(k, v) for k, v in series if 1e-12 * e0 < v < 1e-3 * e0]
    real_fit = fit_decay(window)
    dec = eigendecompose(build(g, OperatorKind.NORMALIZED_ADJACENCY))
    lam2 = max(abs(v) for v in dec.eigenvalues if abs(v) < 1.0 - 1e-9)
    want_c2 = -2.0 * math.log(lam2)
    rel_err = abs(real_fit.c2 - want_c2) / want_c2

    ok = synth_ok and rel_err <= 0.05
    _report(
        8, ok,
        f"decay fit: synthetic series recovered (c1, c2) = ({fit.c1:.12g}, "
        f"{fit.c2:.12g}) with r^2 = {fit.r_squared}; real-run c2 = "
        f"{real_fit.c2:.6f} vs -2*ln(lambda2) = {want_c2:.6f} "
        f"({rel_err * 100:.2f}% off)",
    )


def test_criterion_9_dataset_run_converges(synthetic_enzymes_dir, tmp_path, capsys):
    from oversmooth.cli import main

    out = tmp_path / "repro"
    code = main([
        "repro", "--experiment", "fig1", "--data-dir", str(synthetic_enzymes_dir),
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    trace_rows = [
        l.split(",")
        for l in (out / "fig1" / "trace.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ][1:]
    fro = [float(r[1]) for r in trace_rows]
    tail = fro[-10:]
    rel_change = (max(tail) - min(tail)) / fro[-1] if fro[-1] > 0 else math.inf
    ok = fro[-1] > 0.0 and rel_change < 1e-6
    _report(
        9, ok,
        f"dataset run: final Frobenius norm {fro[-1]:.6f} (recorded, not "
        f"asserted against a target), relative change {rel_change:.3e} over "
        "the last 10 layers",
    )
