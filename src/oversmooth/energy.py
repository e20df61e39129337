"""Dirichlet energies, operator-induced node-similarity measures, axiom checks.

Two conventions coexist and are kept explicit:

* ``dirichlet_energy`` follows the directed neighbor-sum convention, counting
  every edge in both directions (equal to twice the quadratic form). This is
  the convention the closed-form degree sums use.
* ``measure`` is the seminorm sqrt(tr(X^T M X)) induced by an operator M, the
  form whose node-similarity axioms ``axiom1_check`` and ``axiom2_check`` test.
  Its square is the plain quadratic form used by the spectral module.

Every operator carries the graph it was built on (``GraphOperator.graph_ref``);
the degree conjugation and the axiom 1 check read the degrees from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .graph_core import Graph
from .operators import KINDS, LAPLACIAN_KINDS, GraphOperator, OperatorKind, build

DEFAULT_SEED = 789001361
DEFAULT_AXIOM_TOL = 1e-8  # absolute, on unit-Frobenius-norm signals
AXIOM2_TOL = 1e-9  # absolute slack of mu(X + Y) <= mu(X) + mu(Y)
_PROBE_WIDTH = 3  # columns of the signals the axiom checks draw


@dataclass(frozen=True, eq=False)
class AxiomCheckResult:
    holds: bool
    witness: np.ndarray | None = None
    note: str = ""


def as_signal(x, n_nodes: int) -> np.ndarray:
    """Coerce a node signal to a finite float (n_nodes, f) array; 1-D becomes one column."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n_nodes:
        raise DomainError(f"signal must have {n_nodes} rows, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise DomainError("signal contains non-finite entries")
    return x


def quadratic_form(op: GraphOperator, x: np.ndarray) -> float:
    """tr(X^T M X) as the sum of X * (M X) for a CSR operator M.

    Product and sum are fixed-order numpy reductions, so the value does not
    depend on the BLAS thread count.
    """
    return float(np.sum(x * (op @ x)))


def dirichlet_energy(
    laplacian: GraphOperator, x, include_volume_constant: bool = False
) -> float:
    """Dirichlet energy of a signal under a built Laplacian, neighbor-sum convention.

    Equals sum_i sum_{j in N_i} ||X_i/sqrt(d_i + s) - X_j/sqrt(d_j + s)||^2
    with the degree shift s of the Laplacian's kind (0 for Delta_norm, 1 for
    the self-loop variant, no scaling for Delta), i.e. 2 * tr(X^T L X).
    Multiplied by 1/|V| when ``include_volume_constant``.
    """
    if laplacian.kind not in LAPLACIAN_KINDS:
        raise DomainError(f"{laplacian.kind} does not induce a Dirichlet energy")
    x = as_signal(x, laplacian.n)
    e = max(2.0 * quadratic_form(laplacian, x), 0.0)
    return e * (1.0 / laplacian.n) if include_volume_constant else e


def measure(op: GraphOperator, x) -> float:
    """The measure sqrt(tr(X^T M X)) induced by a PSD operator M.

    A trace negative by at most rounding noise counts as 0; a larger negative
    trace means M is not PSD and raises.
    """
    x = as_signal(x, op.n)
    val = quadratic_form(op, x)
    scale = max(1.0, float(np.linalg.norm(op.data)) * float(np.sum(x * x)))
    if val < -1e-9 * scale:
        raise NumericalError(f"measure trace is negative ({val}); inducing matrix not PSD?")
    return float(np.sqrt(max(val, 0.0)))


def descriptor_for(g: Graph, kind: OperatorKind) -> GraphOperator:
    """The operator inducing the measure of the chosen kind: its built matrix."""
    return build(g, kind)


def normalize_conjugation(op: GraphOperator) -> GraphOperator:
    """The inducing operator D^{-1/2} M D^{-1/2}: entry (i, j) of M scaled by s_i s_j.

    D holds the degrees of the operator's graph.
    """
    d = op.graph_ref.degrees
    if d.min() < 1:
        raise DomainError("conjugation needs minimum degree >= 1")
    s = 1.0 / np.sqrt(d)
    return GraphOperator(
        kind=OperatorKind.CUSTOM, indptr=op.indptr, indices=op.indices,
        data=s[op.rows()] * op.data * s[op.indices], graph_ref=op.graph_ref,
    )


def _is_constant_rows(x: np.ndarray, tol: float = 1e-12) -> bool:
    if x.shape[0] == 0:
        return True
    return float(np.abs(x - x[0]).max()) <= tol * max(1.0, float(np.abs(x).max()))


def axiom1_check(
    op: GraphOperator,
    trials: int = 20,
    tol: float = DEFAULT_AXIOM_TOL,
    seed: int = DEFAULT_SEED,
) -> AxiomCheckResult:
    """Numerically check axiom 1: mu(X) = 0 iff all rows of X are equal.

    Forward direction evaluates one constant-row signal: every unit-norm
    constant signal c 1 d^T has the same squared measure 1^T M 1 / n. Reverse
    direction evaluates the degree-weighted candidate D^{1/2} 1 and random
    non-constant unit-Frobenius signals. D^{1/2} 1 spans the kernel of
    Delta_norm and of the conjugated D^{-1/2} Delta D^{-1/2}, and is
    non-constant on a non-regular graph; D holds the degrees of the operator's
    graph. Returns the first violating signal as witness.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    def squared(x: np.ndarray) -> float:
        # compare on the quadratic-form scale, where the tolerance is set
        val = measure(op, x)
        return val * val

    # (=>) constant rows must give zero.
    direction = rng.standard_normal(_PROBE_WIDTH)
    direction /= np.linalg.norm(direction)
    x = np.outer(np.ones(op.n), direction)
    if squared(x / np.linalg.norm(x)) > tol:
        return AxiomCheckResult(
            holds=False, witness=x, note="constant signal with c=1.0 has nonzero measure"
        )

    # (<=) non-constant signals must give a strictly positive value.
    w = KINDS[OperatorKind.NORMALIZED_LAPLACIAN].kernel_direction(op.graph_ref)[:, None]
    if not _is_constant_rows(w):
        unit = w / np.linalg.norm(w)
        if squared(unit) <= tol:
            return AxiomCheckResult(
                holds=False, witness=w,
                note="non-constant degree-weighted signal has zero measure",
            )
    for _ in range(trials):
        x = rng.standard_normal((op.n, _PROBE_WIDTH))
        x /= np.linalg.norm(x)
        if _is_constant_rows(x):
            continue
        if squared(x) <= tol:
            return AxiomCheckResult(
                holds=False, witness=x, note="random non-constant signal has zero measure"
            )
    return AxiomCheckResult(holds=True)


def axiom2_check(op: GraphOperator, trials: int = 100, seed: int = DEFAULT_SEED) -> bool:
    """Numerically check subadditivity mu(X+Y) <= mu(X) + mu(Y) + AXIOM2_TOL."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = rng.standard_normal((op.n, _PROBE_WIDTH))
        y = rng.standard_normal((op.n, _PROBE_WIDTH))
        if measure(op, x + y) > measure(op, x) + measure(op, y) + AXIOM2_TOL:
            return False
    return True
