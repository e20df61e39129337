"""The table of operator kinds, graph operators as symmetric CSR matrices, commutators."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DomainError
from .graph_core import Graph, connected_components

SYMMETRY_TOL = 1e-12
COMMUTATION_TOL = 1e-10  # relative, double precision with O(n) accumulation
# numpy's pairwise sum adds fewer than 8 terms one after another, so a row of at
# most 8 entries is a0 + a running sum of a1 .. a(L-1) in ``np.add.reduceat``.
# This is numpy's unrolled block, not a tuning knob: the product is bit-identical
# to reduceat only while it matches numpy.
PAIRWISE_BLOCK = 8
# Below this many product terms (nnz x columns) one reduceat call costs less than
# the slice adds' fixed per-call cost; the two cross near 5k-10k terms.
_MIN_SLICE_TERMS = 8192


class OperatorKind(Enum):
    UNNORMALIZED_LAPLACIAN = "delta"
    NORMALIZED_LAPLACIAN = "delta_norm"
    RENORMALIZED_LAPLACIAN = "delta_tilde_norm"
    NORMALIZED_ADJACENCY = "a_norm"
    RENORMALIZED_ADJACENCY = "a_tilde_norm"
    CUSTOM = "custom"  # an operator build() did not make, e.g. a conjugated descriptor


@dataclass(frozen=True)
class KindSpec:
    """What the package knows of one standard operator kind.

    ``laplacian`` is the kind itself for a Laplacian L; for a propagation P it
    is the Laplacian paired with it, P = I - L, whose energy is compatible
    with P and whose kernel holds P's fixed direction. ``shift`` is s in the
    normalization (D + sI)^{-1/2}, None for the unnormalized D - A.
    ``bipartite_minus_one`` marks a kind with the eigenvalue -1 on bipartite
    graphs.
    """

    laplacian: OperatorKind
    shift: float | None
    bipartite_minus_one: bool = False

    def kernel_direction(self, g: Graph) -> np.ndarray:
        """(D + sI)^{1/2} 1, or 1 when unnormalized: the paired Laplacian's kernel, unscaled."""
        if self.shift is None:
            return np.ones(g.n_nodes)
        return np.sqrt(g.degrees + self.shift)


# the one table of operator kinds; every kind-dependent choice reads it
KINDS = {
    OperatorKind.UNNORMALIZED_LAPLACIAN: KindSpec(OperatorKind.UNNORMALIZED_LAPLACIAN, None),
    OperatorKind.NORMALIZED_LAPLACIAN: KindSpec(OperatorKind.NORMALIZED_LAPLACIAN, 0.0),
    OperatorKind.RENORMALIZED_LAPLACIAN: KindSpec(OperatorKind.RENORMALIZED_LAPLACIAN, 1.0),
    OperatorKind.NORMALIZED_ADJACENCY: KindSpec(
        OperatorKind.NORMALIZED_LAPLACIAN, 0.0, bipartite_minus_one=True
    ),
    OperatorKind.RENORMALIZED_ADJACENCY: KindSpec(OperatorKind.RENORMALIZED_LAPLACIAN, 1.0),
}
LAPLACIAN_KINDS = tuple(k for k, spec in KINDS.items() if spec.laplacian is k)
PROPAGATION_KINDS = tuple(k for k, spec in KINDS.items() if spec.laplacian is not k)


@dataclass(frozen=True, eq=False)
class GraphOperator:
    """Symmetric operator on a graph in CSR form.

    Row i holds its entries in ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in ascending column order, with an
    explicit (possibly zero) diagonal entry in every row. ``op @ x`` is the
    O(nnz * f) product, summed bit for bit as ``np.add.reduceat`` over each
    row would; ``matrix`` makes a dense copy on each access.
    """

    kind: OperatorKind
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    graph_ref: Graph

    def __post_init__(self):
        if self.n != self.graph_ref.n_nodes:
            raise DomainError("operator size does not match the graph")
        rows = self.rows()
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

    def rows(self) -> np.ndarray:
        """Row index of every stored entry, aligned with ``indices`` and ``data``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @property
    def matrix(self) -> np.ndarray:
        """Dense n x n copy, made on demand (eigendecomposition, export, commutators)."""
        m = np.zeros((self.n, self.n))
        m[self.rows(), self.indices] = self.data
        return m

    @cached_property
    def _sum_plan(self) -> _SumPlan:
        """The entries of ``@`` in an order set by ``indptr`` alone.

        Rows of at most ``PAIRWISE_BLOCK`` entries come first, longest row first,
        laid out position by position: block j holds the j-th entry of every row
        that has one, and those rows form a prefix of ``short_rows``. The longer
        rows follow with their contiguous segments.
        """
        lengths = np.diff(self.indptr)
        is_short = lengths <= PAIRWISE_BLOCK
        short_rows = np.flatnonzero(is_short)
        short_rows = short_rows[np.argsort(-lengths[short_rows], kind="stable")]
        counts = [np.count_nonzero(lengths[short_rows] > j) for j in range(PAIRWISE_BLOCK)]
        long_rows = np.flatnonzero(~is_short)
        order = np.concatenate(
            [self.indptr[short_rows[:c]] + j for j, c in enumerate(counts)]
            + [np.flatnonzero(~is_short[self.rows()])]
        )
        long_lengths = lengths[long_rows]
        return _SumPlan(
            columns=self.indices[order],
            values=self.data[order],
            short_rows=short_rows,
            bounds=tuple(np.concatenate(([0], np.cumsum(counts))).tolist()),
            long_rows=long_rows,
            long_starts=np.cumsum(long_lengths) - long_lengths,
        )

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product for a 1-D or 2-D x in O(nnz * f), bit-identical to ``np.add.reduceat``.

        Each row's entries a0 .. a(L-1), in column order, are summed as
        a0 + pairwise(a1 .. a(L-1)) with numpy's pairwise sum, which is what
        ``np.add.reduceat`` over the row computes. For L <= ``PAIRWISE_BLOCK``
        that is a running sum started from a1 itself (a +0.0 start would turn a
        row of -0.0 terms into +0.0), done here as slice adds over all short
        rows at once; longer rows, and small products, go through
        ``np.add.reduceat``. The order is fixed and uses no BLAS, so the result
        does not depend on the BLAS thread count. Every row is non-empty: the
        diagonal entry is stored.
        """
        x = np.asarray(x, dtype=float)
        x2 = x if x.ndim == 2 else x[:, None]
        if len(self.indices) * x2.shape[1] < _MIN_SLICE_TERMS:
            terms = np.take(x2, self.indices, axis=0)
            terms *= self.data[:, None]
            out = np.add.reduceat(terms, self.indptr[:-1], axis=0)
            return out if x.ndim == 2 else out[:, 0]
        plan = self._sum_plan
        terms = np.take(x2, plan.columns, axis=0)
        terms *= plan.values[:, None]
        b = plan.bounds
        running = terms[b[1]:b[2]]  # a1 of every short row with two or more entries
        for j in range(2, PAIRWISE_BLOCK):
            running[: b[j + 1] - b[j]] += terms[b[j]:b[j + 1]]
        terms[: len(running)] += running
        out = np.empty((self.n, terms.shape[1]))
        out[plan.short_rows] = terms[: b[1]]
        if len(plan.long_rows):
            out[plan.long_rows] = np.add.reduceat(terms[b[-1]:], plan.long_starts, axis=0)
        return out if x.ndim == 2 else out[:, 0]


@dataclass(frozen=True)
class _SumPlan:
    """``GraphOperator.__matmul__``'s entry order; see ``GraphOperator._sum_plan``."""

    columns: np.ndarray  # indices and data in the plan's entry order
    values: np.ndarray
    short_rows: np.ndarray  # rows of <= PAIRWISE_BLOCK entries, longest first
    bounds: tuple[int, ...]  # block j of short-row entries is bounds[j]:bounds[j + 1], j < 8
    long_rows: np.ndarray
    long_starts: np.ndarray  # segment starts of long rows, counted from bounds[-1]


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
    spec = KINDS.get(kind)
    if spec is None:
        raise DomainError("build() handles only the standard operator kinds")
    d = g.degrees
    if spec.shift is not None and d.min() + spec.shift <= 0:
        raise DomainError("normalized operators need minimum degree >= 1")

    rows, cols = _csr_pattern(g)
    diag = rows == cols
    eye = np.where(diag, 1.0, 0.0)
    if spec.shift is None:
        data = eye * d[rows] - np.where(diag, 0.0, 1.0)
    else:
        s = 1.0 / np.sqrt(d + spec.shift)
        data = s[rows] * np.where(diag, spec.shift, 1.0) * s[cols]  # A, or A + I when s = 1
        if spec.laplacian is kind:
            data = eye - data
    return GraphOperator(
        kind=kind, indptr=_indptr(rows, g.n_nodes), indices=cols, data=data, graph_ref=g
    )


def commutator(p: GraphOperator, q: GraphOperator) -> np.ndarray:
    """PQ - QP for two operators on the same graph, as a dense matrix."""
    if p.graph_ref != q.graph_ref or p.n != q.n:
        raise DomainError("commutator requires operators on the same graph")
    pm, qm = p.matrix, q.matrix
    return pm @ qm - qm @ pm


def commutation(p: GraphOperator, q: GraphOperator) -> tuple[bool, float]:
    """(commutes, ||PQ - QP||_F) from one commutator.

    The pair commutes iff ||PQ - QP||_F <= COMMUTATION_TOL * ||P||_F * ||Q||_F; the
    operators' norms are read from their stored entries.
    """
    norm = float(np.linalg.norm(commutator(p, q)))
    scale = float(np.linalg.norm(p.data) * np.linalg.norm(q.data))
    return norm <= COMMUTATION_TOL * scale, norm


def kernel_generator(g: Graph, kind: OperatorKind) -> np.ndarray:
    """Unit vector spanning the kernel of the requested Laplacian on a connected graph."""
    _require_connected(g)
    if kind not in LAPLACIAN_KINDS:
        raise DomainError(f"{kind} is not a Laplacian kind")
    v = KINDS[kind].kernel_direction(g)
    return v / np.linalg.norm(v)


def paired_laplacian(kind: OperatorKind) -> OperatorKind:
    """The Laplacian L of a propagation P = I - L, whose energy is compatible with P."""
    if kind not in PROPAGATION_KINDS:
        raise DomainError(f"{kind} is not a propagation operator")
    return KINDS[kind].laplacian


def propagation_kernel_vector(g: Graph, kind: OperatorKind) -> np.ndarray:
    """Unit fixed-point direction of a propagation operator (eigenvalue-1 eigenvector)."""
    return kernel_generator(g, paired_laplacian(kind))
