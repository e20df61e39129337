"""Symmetric eigendecomposition, eigenbasis superposition, spectral energy expansion.

The filtered energy here is the quadratic form tr(X^T M X): half the
neighbor-sum ``dirichlet_energy`` and the square of ``measure`` (see the energy
module docstring).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .energy import as_signal
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
        raise NumericalError(f"eigendecomposition residual {residual:.3e} exceeds tolerance")
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


def energy_via_superposition(
    g: Graph, x0, f: Callable[[np.ndarray], np.ndarray]
) -> float:
    """tr((f(Delta_norm) X)^T Delta (f(Delta_norm) X)) via the eigenbasis-overlap expansion.

    ``f`` is a scalar filter evaluated on the eigenvalues of Delta_norm, e.g.
    ``lambda lam: (1 - lam) ** k`` for k propagation steps. The five nested
    spectral sums are contracted as T = S^T diag(f) S (with S the overlap
    matrix between the two eigenbases) followed by
    sum_w w * (T C T)[w, w], where C = Y Y^T is the Gram matrix of the input Y
    expressed in the Delta eigenbasis. T is symmetric, so (T C T)[w, w] is the
    squared norm of row w of T Y.
    """
    x0 = as_signal(x0, g.n_nodes)
    dec_delta = eigendecompose(build(g, OperatorKind.UNNORMALIZED_LAPLACIAN))
    dec_norm = eigendecompose(build(g, OperatorKind.NORMALIZED_LAPLACIAN))
    s = superposition(dec_norm, dec_delta).entries  # S[a, b] = <xi_a | omega_b>
    fvals = np.asarray(f(dec_norm.eigenvalues), dtype=float)
    y = dec_delta.eigenvectors.T @ x0
    t = s.T @ (fvals[:, None] * s)
    return float(np.sum(dec_delta.eigenvalues * np.sum((t @ y) ** 2, axis=1)))
