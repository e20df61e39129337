"""Oracles for the benchmark's ops, computed without the package under test.

Each check returns a list of problems; an empty list means the output is
correct. Every identity is derived from the inputs the benchmark wrote:

* spectra: the eigenvalue export of an n-node graph has n ascending rows whose
  sum is the operator's trace (n for the normalized Laplacian, 2m for the
  unnormalized one); rows of the superposition Q_a^T Q_b have unit norm
  because both eigenbases are orthonormal.
* fig3: the trace has 51 finite rows (k = 0..50) and the verdict on a graph
  with a wide spectral gap is over-smoothing without over-shrinking.
* sweep: the k = 0 unnormalized Dirichlet energy of the raw attributes equals
  the edge sum over both directions of ||x_i - x_j||^2.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

TRACE_SUM_RTOL = 1e-9
UNIT_NORM_TOL = 1e-9
ENERGY_RTOL = 1e-9
FIG3_LAYERS = 50
FIG3_VERDICT = "fig3: over_smoothing=True over_shrinking=False"
TRACE_HEADER = "k,fro_norm,e_delta,e_delta_norm,e_delta_tilde_norm,ratio,kernel_alignment"


def iter_lines(chunks: Iterable[str]) -> Iterator[str]:
    """Lines of a text written in arbitrary pieces, without joining the pieces."""
    carry = ""
    for chunk in chunks:
        start = 0
        while (end := chunk.find("\n", start)) >= 0:
            yield carry + chunk[start:end]
            carry = ""
            start = end + 1
        carry += chunk[start:]
    if carry:
        yield carry


def check_spectra(chunks: Iterable[str], n: int, m: int, sample_rows) -> list[str]:
    """Eigenvalue export followed by an n x n superposition export."""
    expected_trace = {"delta_norm": float(n), "delta": 2.0 * m}
    sample_rows = set(sample_rows)
    problems: list[str] = []
    kind = None
    eigenvalues: list[float] = []
    section = "preamble"
    sup_row = 0
    for line in iter_lines(chunks):
        if line.startswith("# operator_kind:") and section == "preamble":
            kind = line.split(":", 1)[1].strip()
        elif line == "index,eigenvalue":
            section = "eigenvalues"
        elif line.startswith("#"):
            if section == "eigenvalues":
                section = "superposition-preamble"
        elif section == "eigenvalues":
            idx, value = line.split(",")
            if int(idx) != len(eigenvalues):
                problems.append(f"eigenvalue row {len(eigenvalues)} has index {idx}")
            eigenvalues.append(float(value))
        elif section in ("superposition-preamble", "superposition"):
            section = "superposition"
            if sup_row in sample_rows:
                row = np.array(line.split(","), dtype=float)
                norm = float(np.linalg.norm(row))
                if row.shape[0] != n or abs(norm - 1.0) > UNIT_NORM_TOL:
                    problems.append(f"superposition row {sup_row}: {row.shape[0]} entries, "
                                    f"norm {norm!r}")
            sup_row += 1
    vals = np.asarray(eigenvalues)
    if vals.shape[0] != n:
        problems.append(f"{vals.shape[0]} eigenvalues for {n} nodes")
    if not np.all(np.isfinite(vals)) or np.any(np.diff(vals) < 0):
        problems.append("eigenvalues not finite and ascending")
    if kind not in expected_trace:
        problems.append(f"unexpected operator kind {kind!r}")
    elif not math.isclose(float(vals.sum()), expected_trace[kind], rel_tol=TRACE_SUM_RTOL):
        problems.append(f"eigenvalue sum {vals.sum()!r} != trace {expected_trace[kind]!r}")
    if sup_row != n:
        problems.append(f"{sup_row} superposition rows for {n} nodes")
    return problems


def trace_rows(trace_csv: str) -> list[list[str]]:
    lines = [ln for ln in trace_csv.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != TRACE_HEADER:
        return []
    return [ln.split(",") for ln in lines[1:]]


def check_fig3(stdout: str, trace_csv: str) -> list[str]:
    problems = []
    if FIG3_VERDICT not in stdout.splitlines():
        problems.append(f"verdict line missing: {stdout.splitlines()[:1]}")
    rows = trace_rows(trace_csv)
    if [int(r[0]) for r in rows] != list(range(FIG3_LAYERS + 1)):
        problems.append(f"trace has {len(rows)} rows, expected k = 0..{FIG3_LAYERS}")
    for r in rows:
        if len(r) != 7 or not all(cell and math.isfinite(float(cell)) for cell in r):
            problems.append(f"non-finite trace row {r[:1]}")
            break
    return problems


def edge_sum_energy(x: np.ndarray, edges: np.ndarray) -> float:
    """sum over both directions of every edge of ||x_i - x_j||^2."""
    diff = x[edges[:, 0]] - x[edges[:, 1]]
    return 2.0 * float(np.sum(diff * diff))


def check_sweep(trace_csv: str, axioms_stdout: str, expected_e_delta: float) -> list[str]:
    problems = []
    rows = trace_rows(trace_csv)
    if not rows or rows[0][0] != "0":
        return ["simulate trace has no k = 0 row"]
    e_delta = float(rows[0][2])
    if not math.isclose(e_delta, expected_e_delta, rel_tol=ENERGY_RTOL):
        problems.append(f"k=0 e_delta {e_delta!r} != edge-sum energy {expected_e_delta!r}")
    # sqrt of a PSD quadratic form is a seminorm, so subadditivity always holds
    if "axiom2: PASS" not in axioms_stdout.splitlines():
        problems.append("axiom2 did not pass")
    return problems
