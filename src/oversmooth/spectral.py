"""Symmetric eigendecomposition, eigenbasis superposition, spectral energy expansion.

Energies here use the quadratic-form convention tr(X^T M X); see the energy
module docstring for how this relates to the neighbor-sum Dirichlet energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import as_signal, quadratic_form
from .errors import DomainError, NumericalError
from .graph_core import Graph
from .operators import GraphOperator, OperatorKind, build

RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns
    operator_kind: OperatorKind

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True, eq=False)
class SuperpositionMatrix:
    entries: np.ndarray  # S[a, b] = <row-basis vector a | col-basis vector b>
    row_basis_kind: OperatorKind
    col_basis_kind: OperatorKind


@dataclass(frozen=True)
class FilterSpec:
    """Scalar spectral filter: either an explicit polynomial or (1 - lambda)^k."""

    coefficients: tuple[float, ...] | None = None  # ascending powers
    propagation_power: int | None = None

    @classmethod
    def polynomial(cls, coefficients) -> "FilterSpec":
        return cls(coefficients=tuple(float(c) for c in coefficients))

    @classmethod
    def power_of_propagation(cls, k: int) -> "FilterSpec":
        if k < 0:
            raise DomainError("propagation power must be >= 0")
        return cls(propagation_power=int(k))

    def __post_init__(self):
        if (self.coefficients is None) == (self.propagation_power is None):
            raise DomainError("specify exactly one of coefficients / propagation_power")

    def evaluate(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if self.propagation_power is not None:
            return (1.0 - lam) ** self.propagation_power
        out = np.zeros_like(lam)
        for c in reversed(self.coefficients):
            out = out * lam + c
        return out

    def apply(self, dec: SpectralDecomposition) -> np.ndarray:
        """Dense matrix f(M) from a decomposition of M."""
        fvals = self.evaluate(dec.eigenvalues)
        return (dec.eigenvectors * fvals[None, :]) @ dec.eigenvectors.T


def eigendecompose(op: GraphOperator) -> SpectralDecomposition:
    """Full symmetric eigendecomposition with a canonical sign convention.

    Each eigenvector is flipped so that its largest-magnitude entry is
    positive, making outputs deterministic across runs.
    """
    m = op.matrix
    vals, vecs = np.linalg.eigh(m)
    pivot = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[pivot, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    scale = max(float(np.linalg.norm(m)), 1e-300)
    residual = float(np.linalg.norm((vecs * vals[None, :]) @ vecs.T - m))
    if residual > RECONSTRUCTION_TOL * scale:
        raise NumericalError(
            f"eigendecomposition residual {residual:.3e} exceeds tolerance", residual=residual
        )
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs, operator_kind=op.kind)


def superposition(
    dec_a: SpectralDecomposition, dec_b: SpectralDecomposition
) -> SuperpositionMatrix:
    """Overlap matrix S = Q_a^T Q_b between two eigenbases of the same graph."""
    if dec_a.n != dec_b.n:
        raise DomainError("superposition requires decompositions of equal dimension")
    return SuperpositionMatrix(
        entries=dec_a.eigenvectors.T @ dec_b.eigenvectors,
        row_basis_kind=dec_a.operator_kind,
        col_basis_kind=dec_b.operator_kind,
    )


def energy_via_superposition(g: Graph, x0, f: FilterSpec) -> float:
    """tr((f(Delta_norm) X)^T Delta (f(Delta_norm) X)) via the eigenbasis-overlap expansion.

    The five nested spectral sums are contracted as T = S^T diag(f) S (with S
    the overlap matrix between the two eigenbases) followed by
    sum_w w * (T C T)[w, w], where C is the Gram matrix of the input expressed
    in the Delta eigenbasis. ``energy_via_superposition_reference`` keeps the
    literal five-loop form for cross-checking at toy sizes.
    """
    s, fvals, c, omega = _superposition_pieces(g, x0, f)
    t = s.T @ (fvals[:, None] * s)
    return float(np.sum(omega * np.diag(t @ c @ t)))


def energy_via_superposition_reference(g: Graph, x0, f: FilterSpec) -> float:
    """Literal five-nested-loop evaluation of the spectral expansion (n <= 12)."""
    if g.n_nodes > 12:
        raise DomainError("literal reference evaluation is limited to n <= 12")
    s, fvals, c, omega = _superposition_pieces(g, x0, f)
    n = g.n_nodes
    sl = s.tolist()
    fl = fvals.tolist()
    cl = c.tolist()
    ol = omega.tolist()
    total = 0.0
    for iw in range(n):
        w = ol[iw]
        for iw1 in range(n):
            for iw2 in range(n):
                acc = 0.0
                for ix in range(n):
                    for ix2 in range(n):
                        acc += (
                            sl[ix][iw1] * sl[ix][iw] * sl[ix2][iw] * sl[ix2][iw2]
                            * fl[ix] * fl[ix2]
                        )
                total += w * acc * cl[iw1][iw2]
    return total


def _superposition_pieces(g: Graph, x0, f: FilterSpec):
    x0 = as_signal(x0, g.n_nodes)
    dec_delta = eigendecompose(build(g, OperatorKind.UNNORMALIZED_LAPLACIAN))
    dec_norm = eigendecompose(build(g, OperatorKind.NORMALIZED_LAPLACIAN))
    s = superposition(dec_norm, dec_delta).entries  # S[a, b] = <xi_a | omega_b>
    fvals = f.evaluate(dec_norm.eigenvalues)
    y = dec_delta.eigenvectors.T @ x0
    c = y @ y.T
    return s, fvals, c, dec_delta.eigenvalues


def energy_direct(g: Graph, x0, f: FilterSpec) -> float:
    """Direct evaluation tr((f(Delta_norm) X)^T Delta (f(Delta_norm) X))."""
    x0 = as_signal(x0, g.n_nodes)
    dec_norm = eigendecompose(build(g, OperatorKind.NORMALIZED_LAPLACIAN))
    xf = f.apply(dec_norm) @ x0
    return quadratic_form(build(g, OperatorKind.UNNORMALIZED_LAPLACIAN), xf)


def energy_regular_reduction(g: Graph, x0, f: FilterSpec) -> float:
    """Single-sum form sum_w w |f(w/d)|^2 ||q_w^T X||^2 valid on d-regular graphs."""
    d = int(g.degrees[0])
    if np.any(g.degrees != d):
        raise DomainError("regular-graph reduction requires a regular graph")
    dec = eigendecompose(build(g, OperatorKind.UNNORMALIZED_LAPLACIAN))
    fvals = f.evaluate(dec.eigenvalues / d)
    return float(np.sum(dec.eigenvalues * fvals * fvals * frequency_mass(x0, dec)))


def frequency_mass(x, dec: SpectralDecomposition) -> np.ndarray:
    """Unweighted projection mass ||q_b^T X||^2 per eigenvector."""
    proj = dec.eigenvectors.T @ as_signal(x, dec.n)
    return np.sum(proj * proj, axis=1)
