"""Graph operators as sparse (CSR) symmetric matrices, commutators, kernel generators."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .graph_core import Graph, connected_components

SYMMETRY_TOL = 1e-12
DEFAULT_COMMUTATION_TOL = 1e-10  # relative, double precision with O(n) accumulation


class OperatorKind(Enum):
    UNNORMALIZED_LAPLACIAN = "delta"
    NORMALIZED_LAPLACIAN = "delta_norm"
    RENORMALIZED_LAPLACIAN = "delta_tilde_norm"
    NORMALIZED_ADJACENCY = "a_norm"
    RENORMALIZED_ADJACENCY = "a_tilde_norm"
    CUSTOM = "custom"


LAPLACIAN_KINDS = (
    OperatorKind.UNNORMALIZED_LAPLACIAN,
    OperatorKind.NORMALIZED_LAPLACIAN,
    OperatorKind.RENORMALIZED_LAPLACIAN,
)


# degree shift of each standard kind: 1 for the self-loop (renormalized) variants
_SHIFT = {
    OperatorKind.UNNORMALIZED_LAPLACIAN: 0.0,
    OperatorKind.NORMALIZED_LAPLACIAN: 0.0,
    OperatorKind.NORMALIZED_ADJACENCY: 0.0,
    OperatorKind.RENORMALIZED_LAPLACIAN: 1.0,
    OperatorKind.RENORMALIZED_ADJACENCY: 1.0,
}


@dataclass(frozen=True, eq=False)
class GraphOperator:
    """Symmetric operator on a graph in CSR form.

    Row i holds its entries in ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in ascending column order, with an
    explicit (possibly zero) diagonal entry in every row. ``op @ x`` is the
    O(nnz * f) product; ``matrix`` makes a dense copy on each access.
    """

    kind: OperatorKind
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    graph_ref: Graph
    name: str | None = None  # label for CUSTOM operators

    def __post_init__(self):
        if self.n != self.graph_ref.n_nodes:
            raise DomainError("operator size does not match the graph")
        rows = self._rows()
        # the transpose lists the same (row, column) pairs, reordered by column
        order = np.lexsort((rows, self.indices))
        if not (
            np.array_equal(self.indices[order], rows)
            and np.array_equal(rows[order], self.indices)
        ):
            raise DomainError("operator matrix is not symmetric")
        scale = max(1.0, float(np.abs(self.data).max(initial=0.0)))
        if float(np.abs(self.data - self.data[order]).max(initial=0.0)) > SYMMETRY_TOL * scale:
            raise DomainError("operator matrix is not symmetric")

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @property
    def matrix(self) -> np.ndarray:
        """Dense n x n copy, made on demand (eigendecomposition, export, commutators)."""
        m = np.zeros((self.n, self.n))
        m[self._rows(), self.indices] = self.data
        return m

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product for a 1-D or 2-D x in O(nnz * f), each row summed in column order.

        The order is fixed, so the result does not depend on the BLAS thread
        count. ``reduceat`` needs a non-empty row, which the diagonal entry
        guarantees.
        """
        x = np.asarray(x, dtype=float)
        terms = np.take(x if x.ndim == 2 else x[:, None], self.indices, axis=0)
        terms *= self.data[:, None]
        out = np.add.reduceat(terms, self.indptr[:-1], axis=0)
        return out if x.ndim == 2 else out[:, 0]


@dataclass(frozen=True, eq=False)
class KernelGenerator:
    vector: np.ndarray  # unit norm
    operator_kind: OperatorKind


def _require_connected(g: Graph):
    if len(connected_components(g)) != 1:
        raise DomainError("operator construction requires a connected graph")


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers for row-sorted entries."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _csr_pattern(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the entries of A + I from the sorted edge array, row-major."""
    e = g.edge_array
    loops = np.arange(g.n_nodes)
    rows = np.concatenate([e[:, 0], e[:, 1], loops])
    cols = np.concatenate([e[:, 1], e[:, 0], loops])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def build(g: Graph, kind: OperatorKind) -> GraphOperator:
    """Construct one of the standard operators for a connected graph.

    Delta = D - A; Delta_norm = I - D^{-1/2} A D^{-1/2};
    Delta~_norm = I - (D+I)^{-1/2} (A+I) (D+I)^{-1/2};
    A_norm = D^{-1/2} A D^{-1/2}; A~_norm = I - Delta~_norm.

    Entries are evaluated exactly as the dense formulas above would: the
    dense view equals them bit for bit.
    """
    _require_connected(g)
    d = g.degree_vector()

    if kind in (OperatorKind.NORMALIZED_LAPLACIAN, OperatorKind.NORMALIZED_ADJACENCY):
        if d.min() < 1:
            raise DomainError("normalized operators need minimum degree >= 1")
    if kind not in _SHIFT:
        raise DomainError("build() handles only the standard operator kinds")

    rows, cols = _csr_pattern(g)
    diag = rows == cols
    eye = np.where(diag, 1.0, 0.0)
    a = np.where(diag, _SHIFT[kind], 1.0)  # A, or A + I for the self-loop variants
    if kind is OperatorKind.UNNORMALIZED_LAPLACIAN:
        data = eye * d[rows] - a
    else:
        s = 1.0 / np.sqrt(d + _SHIFT[kind])
        data = s[rows] * a * s[cols]
        if kind in LAPLACIAN_KINDS:
            data = eye - data
    return GraphOperator(
        kind=kind, indptr=_indptr(rows, g.n_nodes), indices=cols, data=data, graph_ref=g
    )


def custom_operator(name: str, matrix: np.ndarray, g: Graph) -> GraphOperator:
    """Wrap an arbitrary symmetric matrix as an operator on ``g``."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("operator matrix must be square")
    if m.shape[0] != g.n_nodes:
        raise DomainError("operator size does not match the graph")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
        raise DomainError("operator matrix is not symmetric")
    rows, cols = np.nonzero((m != 0.0) | np.eye(g.n_nodes, dtype=bool))
    return GraphOperator(
        kind=OperatorKind.CUSTOM, indptr=_indptr(rows, g.n_nodes), indices=cols,
        data=m[rows, cols], graph_ref=g, name=name,
    )


def commutator(p: GraphOperator, q: GraphOperator) -> np.ndarray:
    """PQ - QP for two operators on the same graph."""
    if p.graph_ref != q.graph_ref or p.n != q.n:
        raise DomainError("commutator requires operators on the same graph")
    pm, qm = p.matrix, q.matrix
    return pm @ qm - qm @ pm


def is_commuting_pair(
    p: GraphOperator, q: GraphOperator, tol: float = DEFAULT_COMMUTATION_TOL
) -> bool:
    """True iff ||PQ - QP||_F <= tol * ||P||_F * ||Q||_F."""
    c = commutator(p, q)
    scale = float(np.linalg.norm(p.matrix) * np.linalg.norm(q.matrix))
    return float(np.linalg.norm(c)) <= tol * scale


def kernel_generator(g: Graph, kind: OperatorKind) -> KernelGenerator:
    """Unit vector spanning the kernel of the requested Laplacian on a connected graph."""
    _require_connected(g)
    if kind not in LAPLACIAN_KINDS:
        raise DomainError(f"{kind} is not a Laplacian kind")
    if kind is OperatorKind.UNNORMALIZED_LAPLACIAN:
        v = np.ones(g.n_nodes)
    elif kind is OperatorKind.NORMALIZED_LAPLACIAN:
        v = np.sqrt(g.degree_vector())
    else:
        v = np.sqrt(g.degree_vector() + 1.0)
    return KernelGenerator(vector=v / np.linalg.norm(v), operator_kind=kind)


def propagation_kernel_vector(g: Graph, kind: OperatorKind) -> np.ndarray:
    """Unit fixed-point direction of a propagation operator (eigenvalue-1 eigenvector)."""
    if kind is OperatorKind.NORMALIZED_ADJACENCY:
        return kernel_generator(g, OperatorKind.NORMALIZED_LAPLACIAN).vector
    if kind is OperatorKind.RENORMALIZED_ADJACENCY:
        return kernel_generator(g, OperatorKind.RENORMALIZED_LAPLACIAN).vector
    raise DomainError(f"{kind} is not a propagation operator")
