"""Deep linear propagation simulator, decay fitting, regime classification.

The simulator iterates X <- P X (optionally with right-multiplied weight
matrices) for a propagation operator P and records, at every layer, the
Frobenius norm, the three Dirichlet energies, their ratio, and the alignment
of the signal with the kernel of the Laplacian paired with P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import as_signal, dirichlet_energy
from .errors import DomainError, InsufficientDataError, NumericalError
from .graph_core import Graph, stats
from .operators import (
    KINDS,
    LAPLACIAN_KINDS,
    PROPAGATION_KINDS,
    OperatorKind,
    build,
    paired_laplacian,
    propagation_kernel_vector,
)

# Absolute magnitude below which double-precision energies/norms are treated
# as having hit the underflow floor.
NUMERICAL_FLOOR = 1e-290
# Energies below this fraction of their initial value are dominated by
# cancellation noise (eps * ||X||_F^2); ratios computed there are meaningless.
RATIO_CONDITIONING_FLOOR = 1e-5
# classify_regime: the compatible energy collapses below ENERGY_FLOOR * e0, the
# Frobenius norm is kept above NORM_FLOOR * ||X_0||_F, and the signal aligns
# with the propagation's fixed direction to ALIGNMENT_TARGET.
ENERGY_FLOOR = 1e-6
NORM_FLOOR = 1e-3
ALIGNMENT_TARGET = 0.999


@dataclass(frozen=True)
class FirstLayerWeights:
    out_dim: int
    seed: int


@dataclass(frozen=True)
class PerLayerWeights:
    dims: tuple[int, ...]  # output width of each layer, length = layers
    seed: int


@dataclass(frozen=True)
class PropagationConfig:
    layers: int
    operator_kind: OperatorKind = OperatorKind.NORMALIZED_ADJACENCY
    weight_mode: FirstLayerWeights | PerLayerWeights | None = None
    track_volume_constant: bool = False

    def __post_init__(self):
        if self.layers < 1:
            raise DomainError("layers must be >= 1")
        if self.operator_kind not in PROPAGATION_KINDS:
            raise DomainError(f"{self.operator_kind} is not a propagation operator")


@dataclass(frozen=True)
class LayerRecord:
    # each energy field is named e_<value> of its Laplacian's OperatorKind (ENERGY_FIELDS)
    k: int
    fro_norm: float
    e_delta: float
    e_delta_norm: float
    e_delta_tilde_norm: float
    ratio: float | None
    kernel_alignment: float | None


ENERGY_FIELDS = {kind: f"e_{kind.value}" for kind in LAPLACIAN_KINDS}


@dataclass(frozen=True)
class LayerTrace:
    operator_kind: OperatorKind
    records: tuple[LayerRecord, ...]
    track_volume_constant: bool = False
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class DecayFit:
    c1: float
    c2: float
    r_squared: float
    floor_layer: int | None = None


@dataclass(frozen=True)
class RegimeVerdict:
    over_smoothing: bool
    over_shrinking: bool
    notes: str


@dataclass(frozen=True)
class RatioTrace:
    points: tuple[tuple[int, float], ...]
    cut_layer: int | None  # first layer dropped as ill-conditioned, if any


def fan_uniform_weights(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _weight_chain(mode: PerLayerWeights, in_dim: int) -> list[np.ndarray]:
    rng = np.random.default_rng(mode.seed)
    chain = []
    prev = in_dim
    for out in mode.dims:
        chain.append(fan_uniform_weights(prev, out, rng))
        prev = out
    return chain


def propagate(g: Graph, x0, cfg: PropagationConfig) -> tuple[np.ndarray, LayerTrace]:
    """Run the linear propagation and collect the per-layer metric trace.

    The trace has layers + 1 records (including k = 0, taken after the
    first-layer projection when FirstLayerWeights is configured).
    """
    x = as_signal(x0, g.n_nodes)

    prop = build(g, cfg.operator_kind)
    laplacians = [build(g, kind) for kind in LAPLACIAN_KINDS]  # Delta, Delta_norm, Delta~_norm
    kernel_vec = propagation_kernel_vector(g, cfg.operator_kind)

    notes = []
    g_stats = stats(g)
    if g_stats.bipartite and KINDS[cfg.operator_kind].bipartite_minus_one:
        notes.append(
            "bipartite graph under the normalized adjacency: eigenvalue -1 "
            "prevents convergence"
        )

    weights: list[np.ndarray] | None = None
    if isinstance(cfg.weight_mode, FirstLayerWeights):
        rng = np.random.default_rng(cfg.weight_mode.seed)
        x = x @ fan_uniform_weights(x.shape[1], cfg.weight_mode.out_dim, rng)
    elif isinstance(cfg.weight_mode, PerLayerWeights):
        if len(cfg.weight_mode.dims) != cfg.layers:
            raise DomainError("per-layer weight dims must have one width per layer")
        weights = _weight_chain(cfg.weight_mode, x.shape[1])

    # every metric is a fixed-order numpy reduction (no BLAS), so unweighted
    # traces do not depend on the BLAS thread count
    def record(k: int, mat: np.ndarray) -> LayerRecord:
        fro = float(np.sqrt(np.sum(mat * mat)))
        e_d, e_dn, e_dt = (
            dirichlet_energy(op, mat, cfg.track_volume_constant) for op in laplacians
        )
        if not all(np.isfinite(v) for v in (fro, e_d, e_dn, e_dt)):
            raise NumericalError(f"non-finite metric at layer {k}")
        ratio = e_d / e_dn if e_dn > 0.0 else None
        align = None
        if fro >= 1e-300:
            proj = np.sum(kernel_vec[:, None] * mat, axis=0)
            align = float(np.sqrt(np.sum(proj * proj)) / fro)
            align = min(max(align, 0.0), 1.0)
        return LayerRecord(
            k=k, fro_norm=fro, e_delta=e_d, e_delta_norm=e_dn,
            e_delta_tilde_norm=e_dt, ratio=ratio, kernel_alignment=align,
        )

    records = [record(0, x)]
    for k in range(1, cfg.layers + 1):
        x = prop @ x
        if weights is not None:
            x = x @ weights[k - 1]
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite signal at layer {k}")
        records.append(record(k, x))

    trace = LayerTrace(
        operator_kind=cfg.operator_kind,
        records=tuple(records),
        track_volume_constant=cfg.track_volume_constant,
        notes=tuple(notes),
    )
    return x, trace


def fit_decay(series) -> DecayFit:
    """Least-squares exponential fit value(k) ~ c1 * exp(-c2 * k) in log space.

    Only layers before the first value at or below ``NUMERICAL_FLOOR``
    participate in the fit; that layer index is reported as floor_layer.
    """
    series = [(int(k), float(v)) for k, v in series]
    floor_layer = None
    usable = []
    for k, v in series:
        if v <= NUMERICAL_FLOOR:
            floor_layer = k
            break
        usable.append((k, v))
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need >= 3 points above the floor, got {len(usable)}"
        )
    ks = np.array([k for k, _ in usable], dtype=float)
    vs = np.array([v for _, v in usable], dtype=float)
    logs = np.log(vs)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    # a (numerically) constant series is a perfect fit with zero rate
    degenerate = ss_tot <= 1e-24 * max(1.0, float(np.sum(logs * logs)))
    r2 = 1.0 if degenerate else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return DecayFit(
        c1=float(np.exp(intercept)), c2=float(-slope), r_squared=r2, floor_layer=floor_layer
    )


def compatible_energy(trace: LayerTrace, rec: LayerRecord) -> float:
    """The energy induced by the Laplacian paired with the trace's propagation operator."""
    return getattr(rec, ENERGY_FIELDS[paired_laplacian(trace.operator_kind)])


def classify_regime(trace: LayerTrace) -> RegimeVerdict:
    """Decide over-smoothing vs over-shrinking from a layer trace.

    Over-smoothing: the compatible energy collapses (relative to its initial
    value) while the Frobenius norm stays bounded away from zero and the
    signal aligns with the propagation kernel. Over-shrinking: the Frobenius
    norm itself collapses. The two flags are independent.
    """
    if not trace.records:
        raise DomainError("empty trace")
    first, last = trace.records[0], trace.records[-1]
    notes = []

    if first.fro_norm == 0.0:
        return RegimeVerdict(
            over_smoothing=False, over_shrinking=False,
            notes="degenerate all-zero input: neither regime applies",
        )

    e0 = compatible_energy(trace, first)
    e_last = compatible_energy(trace, last)
    # energies at the rounding noise level of the input scale count as zero
    noise = 1e-12 * first.fro_norm**2
    if e0 <= noise:
        e0 = 0.0
    energy_collapsed = e0 == 0.0 or e_last <= ENERGY_FLOOR * e0
    if e0 == 0.0:
        notes.append("compatible energy is zero from layer 0 (input already aligned)")
    elif energy_collapsed:
        notes.append(
            f"compatible energy fell to {e_last / e0:.3e} of its initial value"
        )

    norm_kept = last.fro_norm > NORM_FLOOR * first.fro_norm
    over_shrinking = not norm_kept
    if over_shrinking:
        notes.append(
            f"Frobenius norm collapsed to {last.fro_norm / first.fro_norm:.3e} "
            "of its initial value"
        )
    else:
        notes.append("Frobenius norm stayed bounded away from zero")

    aligned = last.kernel_alignment is not None and last.kernel_alignment >= ALIGNMENT_TARGET
    if aligned:
        notes.append(f"kernel alignment reached {last.kernel_alignment:.6f}")

    over_smoothing = energy_collapsed and norm_kept and aligned
    return RegimeVerdict(
        over_smoothing=over_smoothing, over_shrinking=over_shrinking, notes="; ".join(notes)
    )


def energy_ratio_trace(trace: LayerTrace) -> RatioTrace:
    """Per-layer e_delta / e_delta_norm, cut where the ratio is ill-conditioned.

    A layer is kept only while both energies exceed the underflow floor
    ``NUMERICAL_FLOOR`` and ``RATIO_CONDITIONING_FLOOR`` times their initial
    values. The first layer that fails either floor is the cut layer: from it
    on the energies are dominated by floating-point noise and every later ratio
    is omitted.
    """
    if not trace.records:
        raise DomainError("empty trace")
    first = trace.records[0]
    thr_d = max(NUMERICAL_FLOOR, RATIO_CONDITIONING_FLOOR * first.e_delta)
    thr_n = max(NUMERICAL_FLOOR, RATIO_CONDITIONING_FLOOR * first.e_delta_norm)
    points = []
    for rec in trace.records:
        if not (rec.e_delta > thr_d and rec.e_delta_norm > thr_n):
            return RatioTrace(points=tuple(points), cut_layer=rec.k)
        points.append((rec.k, rec.e_delta / rec.e_delta_norm))
    return RatioTrace(points=tuple(points), cut_layer=None)
