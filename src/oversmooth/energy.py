"""Dirichlet energies, operator-induced node-similarity measures, axiom checks.

Two conventions coexist and are kept explicit:

* ``dirichlet_energy`` follows the directed neighbor-sum convention, counting
  every edge in both directions (equal to twice the quadratic form). This is
  the convention the closed-form degree sums use.
* ``measure`` is the plain quadratic form tr(X^T M X), the convention used by
  the spectral module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .graph_core import Graph
from .operators import LAPLACIAN_KINDS, GraphOperator, OperatorKind, build

DEFAULT_SEED = 789001361
DEFAULT_AXIOM_TOL = 1e-8  # absolute, on unit-Frobenius-norm signals


@dataclass(frozen=True, eq=False)
class MeasureDescriptor:
    """Node-similarity measure induced by a symmetric PSD matrix.

    mu(X) = normalization * tr(X^T M X), square-rooted when ``take_sqrt``.
    """

    inducing_matrix: np.ndarray
    normalization: float = 1.0
    take_sqrt: bool = False

    def __post_init__(self):
        m = self.inducing_matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("inducing matrix must be square")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > 1e-10 * scale:
            raise DomainError("inducing matrix must be symmetric")

    @property
    def n(self) -> int:
        return self.inducing_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class AxiomCheckResult:
    holds: bool | None  # None = not applicable
    witness: np.ndarray | None = None
    note: str = ""


def as_signal(x, n_nodes: int) -> np.ndarray:
    """Coerce a node signal to a finite float (n_nodes, f) array; 1-D becomes one column."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n_nodes:
        raise DomainError(f"signal must have {n_nodes} rows, got shape {x.shape}")
    if x.size and not np.all(np.isfinite(x)):
        raise DomainError("signal contains non-finite entries")
    return x


def quadratic_form(matrix: GraphOperator | np.ndarray, x: np.ndarray) -> float:
    """tr(X^T M X) as the sum of X * (M X), for a CSR operator or a dense matrix.

    The sum is a fixed-order numpy reduction, so for an operator the value does
    not depend on the BLAS thread count.
    """
    return float(np.sum(x * (matrix @ x)))


def dirichlet_energy(
    g: Graph,
    x,
    kind: OperatorKind,
    include_volume_constant: bool = False,
) -> float:
    """Dirichlet energy of a signal, neighbor-sum convention (both edge directions).

    Equals sum_i sum_{j in N_i} ||X_i/sqrt(d_i + s) - X_j/sqrt(d_j + s)||^2
    with the degree shift s of the chosen Laplacian (0 for Delta/Delta_norm,
    1 for the self-loop variant), i.e. 2 * tr(X^T L X). Multiplied by 1/|V|
    when ``include_volume_constant``.
    """
    if kind not in LAPLACIAN_KINDS:
        raise DomainError(f"{kind} does not induce a Dirichlet energy")
    x = as_signal(x, g.n_nodes)
    if x.shape[1] == 0:
        return 0.0
    op = build(g, kind)
    return dirichlet_energy_from_operator(op, x, include_volume_constant)


def dirichlet_energy_from_operator(
    op: GraphOperator, x: np.ndarray, include_volume_constant: bool = False
) -> float:
    """Same as ``dirichlet_energy`` but reusing a prebuilt Laplacian."""
    e = max(2.0 * quadratic_form(op, x), 0.0)
    return e * (1.0 / op.n) if include_volume_constant else e


def measure(desc: MeasureDescriptor, x) -> float:
    """Evaluate a descriptor-induced measure; clamps tiny negative traces to 0."""
    x = as_signal(x, desc.n)
    if x.shape[1] == 0:
        return 0.0
    val = desc.normalization * quadratic_form(desc.inducing_matrix, x)
    scale = max(1.0, float(np.linalg.norm(desc.inducing_matrix)) * float(np.sum(x * x)))
    if val < -1e-9 * scale:
        raise NumericalError(f"measure trace is negative ({val}); inducing matrix not PSD?")
    val = max(val, 0.0)
    return float(np.sqrt(val)) if desc.take_sqrt else float(val)


def descriptor_for(
    g: Graph,
    kind: OperatorKind,
    take_sqrt: bool = False,
    include_volume_constant: bool = False,
) -> MeasureDescriptor:
    """Descriptor whose plain trace form matches the chosen Laplacian."""
    op = build(g, kind)
    return MeasureDescriptor(
        inducing_matrix=op.matrix,
        normalization=(1.0 / g.n_nodes) if include_volume_constant else 1.0,
        take_sqrt=take_sqrt,
    )


def constant_signal_energy_closed_form(g: Graph, kind: OperatorKind, c: float) -> float:
    """Closed form c^2 * sum_i sum_{j in N_i} (1/sqrt(d_i+s) - 1/sqrt(d_j+s))^2."""
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        shift = 0.0
    elif kind is OperatorKind.RENORMALIZED_LAPLACIAN:
        shift = 1.0
    else:
        raise DomainError("closed form applies to the normalized Laplacian kinds")
    d = g.degree_vector() + shift
    if d.min() <= 0:
        raise DomainError("closed form needs positive shifted degrees")
    inv = 1.0 / np.sqrt(d)
    total = 0.0
    for i, j in g.edges:
        total += 2.0 * (inv[i] - inv[j]) ** 2  # both edge directions
    return c * c * total


def normalize_conjugation(desc: MeasureDescriptor, g: Graph) -> MeasureDescriptor:
    """Descriptor with inducing matrix D^{-1/2} M D^{-1/2}."""
    d = g.degree_vector()
    if desc.n != g.n_nodes:
        raise DomainError("descriptor size does not match the graph")
    if d.min() < 1:
        raise DomainError("conjugation needs minimum degree >= 1")
    s = 1.0 / np.sqrt(d)
    m = s[:, None] * desc.inducing_matrix * s[None, :]
    return MeasureDescriptor(
        inducing_matrix=m, normalization=desc.normalization, take_sqrt=desc.take_sqrt
    )


def _is_constant_rows(x: np.ndarray, tol: float = 1e-12) -> bool:
    if x.shape[0] == 0:
        return True
    return float(np.abs(x - x[0]).max()) <= tol * max(1.0, float(np.abs(x).max()))


def axiom1_check(
    desc: MeasureDescriptor,
    g: Graph,
    trials: int = 20,
    tol: float = DEFAULT_AXIOM_TOL,
    seed: int = DEFAULT_SEED,
    n_features: int = 3,
) -> AxiomCheckResult:
    """Numerically check axiom 1: mu(X) = 0 iff all rows of X are equal.

    Forward direction evaluates constant-row signals; reverse direction
    evaluates random non-constant unit-Frobenius signals and the specific
    degree-weighted candidate D^{-1/2} 1 (which sits in the kernel of
    degree-conjugated operators while being non-constant on non-regular
    graphs). Returns the first violating signal as witness.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if n_features < 1:
        return AxiomCheckResult(holds=None, note="not applicable: empty feature dimension")
    rng = np.random.default_rng(seed)

    def squared(x: np.ndarray) -> float:
        # compare on the quadratic-form scale so the tolerance is independent
        # of whether the descriptor takes the square root
        val = measure(desc, x)
        return val * val if desc.take_sqrt else val

    # (=>) constant rows must give zero.
    for c in (1.0, -2.0, 0.5):
        for _ in range(3):
            direction = rng.standard_normal(n_features)
            direction /= np.linalg.norm(direction)
            x = c * np.outer(np.ones(desc.n), direction)
            unit = x / np.linalg.norm(x)
            if squared(unit) > tol:
                return AxiomCheckResult(
                    holds=False, witness=x,
                    note=f"constant signal with c={c} has nonzero measure",
                )

    # (<=) non-constant signals must give a strictly positive value.
    d = g.degree_vector()
    if d.min() >= 1:
        w = (1.0 / np.sqrt(d))[:, None]
        if not _is_constant_rows(w):
            unit = w / np.linalg.norm(w)
            if squared(unit) <= tol:
                return AxiomCheckResult(
                    holds=False, witness=w,
                    note="non-constant degree-weighted signal has zero measure",
                )
    for _ in range(trials):
        x = rng.standard_normal((desc.n, n_features))
        x /= np.linalg.norm(x)
        if _is_constant_rows(x):
            continue
        if squared(x) <= tol:
            return AxiomCheckResult(
                holds=False, witness=x, note="random non-constant signal has zero measure"
            )
    return AxiomCheckResult(holds=True)


def axiom2_check(
    desc: MeasureDescriptor,
    trials: int = 100,
    dims: tuple[int, int] | None = None,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
) -> bool | None:
    """Numerically check subadditivity mu(X+Y) <= mu(X) + mu(Y).

    Returns None (not applicable) when the descriptor does not take the square
    root: the plain trace form is a squared seminorm and the check would be
    meaningless.
    """
    if not desc.take_sqrt:
        return None
    if trials < 1:
        raise DomainError("trials must be >= 1")
    n, m = dims if dims is not None else (desc.n, 3)
    if n != desc.n:
        raise DomainError("dims incompatible with the descriptor")
    if m < 1:
        return None
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = rng.standard_normal((n, m))
        y = rng.standard_normal((n, m))
        if measure(desc, x + y) > measure(desc, x) + measure(desc, y) + tol:
            return False
    return True
