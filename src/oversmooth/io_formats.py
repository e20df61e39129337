"""Deterministic serialization of traces, reports, spectra, and operator matrices.

All numeric fields are written with "%.17g", which round-trips IEEE doubles
bit-exactly. Manifests ride along as '#'-prefixed CSV preamble comments so
every artifact stays a single plot-friendly file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DecayFit, LayerRecord, LayerTrace, RatioTrace, RegimeVerdict
from .energy import AxiomCheckResult
from .errors import GraphFormatError
from .operators import OperatorKind
from .spectral import SpectralDecomposition, SuperpositionMatrix

TRACE_COLUMNS = (
    "k", "fro_norm", "e_delta", "e_delta_norm", "e_delta_tilde_norm", "ratio",
    "kernel_alignment",
)


def g17(x: float) -> str:
    return "%.17g" % x


@dataclass(frozen=True)
class RunManifest:
    dataset_id: str
    graph_selector: str
    config_echo: dict
    seed: int
    tool_version: str
    timestamp: str  # ISO-8601

    def preamble_lines(self) -> list[str]:
        return [
            f"# dataset_id: {self.dataset_id}",
            f"# graph_selector: {self.graph_selector}",
            f"# config: {json.dumps(self.config_echo, sort_keys=True)}",
            f"# seed: {self.seed}",
            f"# tool_version: {self.tool_version}",
            f"# timestamp: {self.timestamp}",
        ]

    def as_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "graph_selector": self.graph_selector,
            "config": self.config_echo,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
        }


def export_trace_csv(trace: LayerTrace, manifest: RunManifest | None = None) -> str:
    lines = list(manifest.preamble_lines()) if manifest else []
    lines.append(f"# operator_kind: {trace.operator_kind.value}")
    lines.append(f"# track_volume_constant: {str(trace.track_volume_constant).lower()}")
    for note in trace.notes:
        lines.append(f"# note: {note}")
    lines.append(",".join(TRACE_COLUMNS))
    for rec in trace.records:
        cells = [
            str(rec.k),
            g17(rec.fro_norm),
            g17(rec.e_delta),
            g17(rec.e_delta_norm),
            g17(rec.e_delta_tilde_norm),
            "" if rec.ratio is None else g17(rec.ratio),
            "" if rec.kernel_alignment is None else g17(rec.kernel_alignment),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_trace_csv(text: str) -> LayerTrace:
    operator_kind = None
    track_vol = False
    notes = []
    records = []
    saw_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("operator_kind:"):
                operator_kind = OperatorKind(body.split(":", 1)[1].strip())
            elif body.startswith("track_volume_constant:"):
                track_vol = body.split(":", 1)[1].strip() == "true"
            elif body.startswith("note:"):
                notes.append(body.split(":", 1)[1].strip())
            continue
        if not saw_header:
            if tuple(line.split(",")) != TRACE_COLUMNS:
                raise GraphFormatError(f"unexpected trace header {line!r}")
            saw_header = True
            continue
        cells = line.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise GraphFormatError(f"bad trace row {line!r}")
        records.append(
            LayerRecord(
                k=int(cells[0]),
                fro_norm=float(cells[1]),
                e_delta=float(cells[2]),
                e_delta_norm=float(cells[3]),
                e_delta_tilde_norm=float(cells[4]),
                ratio=None if cells[5] == "" else float(cells[5]),
                kernel_alignment=None if cells[6] == "" else float(cells[6]),
            )
        )
    if operator_kind is None or not saw_header:
        raise GraphFormatError("trace CSV missing operator_kind preamble or header")
    return LayerTrace(
        operator_kind=operator_kind,
        records=tuple(records),
        track_volume_constant=track_vol,
        notes=tuple(notes),
    )


def _fit_dict(fit: DecayFit) -> dict:
    return {
        "c1": fit.c1,
        "c2": fit.c2,
        "r_squared": fit.r_squared,
        "floor_layer": fit.floor_layer,
    }


def export_report_json(
    verdict: RegimeVerdict,
    fits: dict[str, DecayFit],
    manifest: RunManifest | None = None,
) -> str:
    doc = {
        "verdict": {
            "over_smoothing": verdict.over_smoothing,
            "over_shrinking": verdict.over_shrinking,
            "notes": verdict.notes,
        },
        "fits": {name: _fit_dict(fit) for name, fit in sorted(fits.items())},
    }
    if manifest is not None:
        doc["manifest"] = manifest.as_dict()
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def export_axiom_report_json(
    operator_label: str,
    axiom1: AxiomCheckResult,
    axiom2: bool | None,
    seed: int,
    tolerances: dict[str, float],
    manifest: RunManifest | None = None,
) -> str:
    doc = {
        "operator_kind": operator_label,
        "holds_axiom1": axiom1.holds,
        "holds_axiom2": axiom2,
        "witness_signal": None if axiom1.witness is None else axiom1.witness.tolist(),
        "axiom1_note": axiom1.note,
        "seed": seed,
        "tolerances": tolerances,
    }
    if manifest is not None:
        doc["manifest"] = manifest.as_dict()
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def export_ratio_csv(ratio: RatioTrace, manifest: RunManifest | None = None) -> str:
    lines = list(manifest.preamble_lines()) if manifest else []
    if ratio.cut_layer is not None:
        lines.append(f"# cut_layer: {ratio.cut_layer}")
    lines.append("k,ratio")
    for k, r in ratio.points:
        lines.append(f"{k},{g17(r)}")
    return "\n".join(lines) + "\n"


def export_spectra_csv(dec: SpectralDecomposition, manifest: RunManifest | None = None) -> str:
    lines = list(manifest.preamble_lines()) if manifest else []
    lines.append(f"# operator_kind: {dec.operator_kind.value}")
    lines.append("index,eigenvalue")
    for idx, lam in enumerate(dec.eigenvalues):
        lines.append(f"{idx},{g17(float(lam))}")
    return "\n".join(lines) + "\n"


def export_matrix_csv(matrix: np.ndarray, manifest: RunManifest | None = None) -> str:
    lines = list(manifest.preamble_lines()) if manifest else []
    for row in np.asarray(matrix, dtype=float):
        lines.append(",".join(g17(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def export_superposition_csv(
    sup: SuperpositionMatrix, manifest: RunManifest | None = None
) -> str:
    lines = list(manifest.preamble_lines()) if manifest else []
    lines.append(f"# row_basis_kind: {sup.row_basis_kind.value}")
    lines.append(f"# col_basis_kind: {sup.col_basis_kind.value}")
    for row in sup.entries:
        lines.append(",".join(g17(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _find_files(
    data_dir: str | Path, sub: str, required: dict[str, str], optional: dict[str, str]
) -> dict[str, Path]:
    """Map each key to the first of data_dir/<file>, data_dir/<sub>/<file> that exists."""
    data_dir = Path(data_dir)
    found: dict[str, Path] = {}
    missing = []
    for key, fname in {**required, **optional}.items():
        for candidate in (data_dir / fname, data_dir / sub / fname):
            if candidate.is_file():
                found[key] = candidate
                break
        else:
            if key in required:
                missing.append(fname)
    if missing:
        raise FileNotFoundError(
            f"missing dataset files under {data_dir}: " + ", ".join(missing)
        )
    return found


def find_tu_files(data_dir: str | Path, name: str = "ENZYMES") -> dict[str, Path]:
    """Locate <name>_A.txt / <name>_graph_indicator.txt / <name>_node_attributes.txt.

    Looks in data_dir and in a <name>/ subdirectory. The attributes file is
    optional; the other two are required.
    """
    required = {
        "adjacency": f"{name}_A.txt",
        "indicator": f"{name}_graph_indicator.txt",
    }
    return _find_files(data_dir, name, required, {"attributes": f"{name}_node_attributes.txt"})


def find_cora_files(data_dir: str | Path) -> dict[str, Path]:
    """Locate cora.content / cora.cites in data_dir or a cora/ subdirectory."""
    return _find_files(data_dir, "cora", {"content": "cora.content", "cites": "cora.cites"}, {})
