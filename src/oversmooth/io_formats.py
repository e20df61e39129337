"""Deterministic serialization of traces, reports, spectra, and operator matrices.

All numeric fields are written with "%.17g", which round-trips IEEE doubles
bit-exactly. Manifests ride along as '#'-prefixed CSV preamble comments so
every artifact stays a single plot-friendly file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dynamics import DecayFit, LayerRecord, LayerTrace, RatioTrace, RegimeVerdict
from .energy import AxiomCheckResult
from .spectral import SpectralDecomposition, SuperpositionMatrix

TRACE_COLUMNS = tuple(f.name for f in fields(LayerRecord))


def g17(x: float) -> str:
    return "%.17g" % x


@dataclass(frozen=True)
class RunManifest:
    dataset_id: str
    graph_selector: str
    config: dict
    seed: int
    tool_version: str
    timestamp: str  # ISO-8601

    def preamble_lines(self) -> list[str]:
        """One '# key: value' comment per field, the config as sorted JSON."""
        return [
            f"# {key}: {json.dumps(value, sort_keys=True) if key == 'config' else value}"
            for key, value in asdict(self).items()
        ]


def _csv(manifest: RunManifest, meta: list[tuple[str, object]], rows: list[str]) -> str:
    """Manifest preamble, one '# key: value' line per meta pair, then the rows.

    The text is joined once, so the largest artifacts are not copied twice.
    """
    meta_lines = [f"# {key}: {value}" for key, value in meta]
    return "\n".join([*manifest.preamble_lines(), *meta_lines, *rows, ""])


def dump_json(doc: dict) -> str:
    """The one dump policy for JSON output: indented, keys sorted, newline-terminated."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def export_trace_csv(trace: LayerTrace, manifest: RunManifest) -> str:
    meta = [("operator_kind", trace.operator_kind.value),
            ("track_volume_constant", str(trace.track_volume_constant).lower()),
            *(("note", note) for note in trace.notes)]
    rows = [",".join(TRACE_COLUMNS)]
    rows.extend(",".join(_trace_cell(getattr(rec, name)) for name in TRACE_COLUMNS)
                for rec in trace.records)
    return _csv(manifest, meta, rows)


def _trace_cell(value) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else g17(value)


def export_report_json(
    verdict: RegimeVerdict, fits: dict[str, DecayFit], manifest: RunManifest
) -> str:
    return dump_json({
        "verdict": asdict(verdict),
        "fits": {name: asdict(fit) for name, fit in fits.items()},
        "manifest": asdict(manifest),
    })


def export_axiom_report_json(
    operator_label: str,
    axiom1: AxiomCheckResult,
    axiom2: bool,
    seed: int,
    tolerances: dict[str, float],
    manifest: RunManifest,
) -> str:
    return dump_json({
        "operator_kind": operator_label,
        "holds_axiom1": axiom1.holds,
        "holds_axiom2": axiom2,
        "witness_signal": None if axiom1.witness is None else axiom1.witness.tolist(),
        "axiom1_note": axiom1.note,
        "seed": seed,
        "tolerances": tolerances,
        "manifest": asdict(manifest),
    })


def export_ratio_csv(ratio: RatioTrace, manifest: RunManifest) -> str:
    meta = [] if ratio.cut_layer is None else [("cut_layer", ratio.cut_layer)]
    return _csv(manifest, meta, ["k,ratio", *(f"{k},{g17(r)}" for k, r in ratio.points)])


def export_spectra_csv(dec: SpectralDecomposition, manifest: RunManifest) -> str:
    rows = ["index,eigenvalue",
            *(f"{idx},{g17(float(lam))}" for idx, lam in enumerate(dec.eigenvalues))]
    return _csv(manifest, [("operator_kind", dec.operator_kind.value)], rows)


def _matrix_rows(matrix: np.ndarray) -> list[str]:
    """One "%.17g" CSV line per row, formatted a row at a time to bound memory."""
    matrix = np.asarray(matrix, dtype=float)
    fmt = ",".join(["%.17g"] * matrix.shape[1])
    return [fmt % tuple(row.tolist()) for row in matrix]


def export_matrix_csv(matrix: np.ndarray, manifest: RunManifest) -> str:
    return _csv(manifest, [], _matrix_rows(matrix))


def export_superposition_csv(sup: SuperpositionMatrix, manifest: RunManifest) -> str:
    meta = [("row_basis_kind", sup.row_basis_kind.value),
            ("col_basis_kind", sup.col_basis_kind.value)]
    return _csv(manifest, meta, _matrix_rows(sup.entries))

