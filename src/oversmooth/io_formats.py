"""Deterministic serialization of traces, reports, spectra, and operator matrices.

All numeric fields are written with "%.17g", which round-trips IEEE doubles
bit-exactly. Manifests ride along as '#'-prefixed CSV preamble comments so
every artifact stays a single plot-friendly file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import DecayFit, LayerRecord, LayerTrace, RatioTrace, RegimeVerdict
from .energy import AxiomCheckResult
from .errors import GraphFormatError
from .operators import OperatorKind
from .spectral import SpectralDecomposition, SuperpositionMatrix

_TRACE_FIELDS = fields(LayerRecord)
TRACE_COLUMNS = tuple(f.name for f in _TRACE_FIELDS)


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
        """One '# key: value' comment per ``as_dict`` entry, the config as sorted JSON."""
        return [
            f"# {key}: {json.dumps(value, sort_keys=True) if key == 'config' else value}"
            for key, value in self.as_dict().items()
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


def export_trace_csv(trace: LayerTrace, manifest: RunManifest) -> str:
    lines = manifest.preamble_lines()
    lines.append(f"# operator_kind: {trace.operator_kind.value}")
    lines.append(f"# track_volume_constant: {str(trace.track_volume_constant).lower()}")
    for note in trace.notes:
        lines.append(f"# note: {note}")
    lines.append(",".join(TRACE_COLUMNS))
    for rec in trace.records:
        lines.append(",".join(_trace_cell(getattr(rec, name)) for name in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def _trace_cell(value) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else g17(value)


def _parse_trace_cell(text: str, annotation: str):
    # the annotations are strings ("int", "float", "float | None"): LayerRecord's
    # module postpones their evaluation
    if annotation == "int":
        return int(text)
    if text == "" and annotation.endswith("| None"):
        return None
    return float(text)


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
        records.append(LayerRecord(
            *(_parse_trace_cell(cell, f.type) for cell, f in zip(cells, _TRACE_FIELDS))
        ))
    if operator_kind is None or not saw_header:
        raise GraphFormatError("trace CSV missing operator_kind preamble or header")
    return LayerTrace(
        operator_kind=operator_kind,
        records=tuple(records),
        track_volume_constant=track_vol,
        notes=tuple(notes),
    )


def export_report_json(
    verdict: RegimeVerdict, fits: dict[str, DecayFit], manifest: RunManifest
) -> str:
    doc = {
        "verdict": asdict(verdict),
        "fits": {name: asdict(fit) for name, fit in fits.items()},
        "manifest": manifest.as_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def export_axiom_report_json(
    operator_label: str,
    axiom1: AxiomCheckResult,
    axiom2: bool,
    seed: int,
    tolerances: dict[str, float],
    manifest: RunManifest,
) -> str:
    doc = {
        "operator_kind": operator_label,
        "holds_axiom1": axiom1.holds,
        "holds_axiom2": axiom2,
        "witness_signal": None if axiom1.witness is None else axiom1.witness.tolist(),
        "axiom1_note": axiom1.note,
        "seed": seed,
        "tolerances": tolerances,
        "manifest": manifest.as_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def export_ratio_csv(ratio: RatioTrace, manifest: RunManifest) -> str:
    lines = manifest.preamble_lines()
    if ratio.cut_layer is not None:
        lines.append(f"# cut_layer: {ratio.cut_layer}")
    lines.append("k,ratio")
    for k, r in ratio.points:
        lines.append(f"{k},{g17(r)}")
    return "\n".join(lines) + "\n"


def export_spectra_csv(dec: SpectralDecomposition, manifest: RunManifest) -> str:
    lines = manifest.preamble_lines()
    lines.append(f"# operator_kind: {dec.operator_kind.value}")
    lines.append("index,eigenvalue")
    for idx, lam in enumerate(dec.eigenvalues):
        lines.append(f"{idx},{g17(float(lam))}")
    return "\n".join(lines) + "\n"


def _matrix_rows(matrix: np.ndarray) -> list[str]:
    """One "%.17g" CSV line per row, formatted a row at a time to bound memory."""
    matrix = np.asarray(matrix, dtype=float)
    fmt = ",".join(["%.17g"] * matrix.shape[1])
    return [fmt % tuple(row.tolist()) for row in matrix]


def export_matrix_csv(matrix: np.ndarray, manifest: RunManifest) -> str:
    lines = manifest.preamble_lines()
    lines.extend(_matrix_rows(matrix))
    return "\n".join(lines) + "\n"


def export_superposition_csv(sup: SuperpositionMatrix, manifest: RunManifest) -> str:
    lines = manifest.preamble_lines()
    lines.append(f"# row_basis_kind: {sup.row_basis_kind.value}")
    lines.append(f"# col_basis_kind: {sup.col_basis_kind.value}")
    lines.extend(_matrix_rows(sup.entries))
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


def find_tu_files(data_dir: str | Path) -> dict[str, Path]:
    """Locate ENZYMES_A.txt / ENZYMES_graph_indicator.txt / ENZYMES_node_attributes.txt.

    Looks in data_dir and in an ENZYMES/ subdirectory. The attributes file is
    optional; the other two are required.
    """
    return _find_files(
        data_dir, "ENZYMES",
        {"adjacency": "ENZYMES_A.txt", "indicator": "ENZYMES_graph_indicator.txt"},
        {"attributes": "ENZYMES_node_attributes.txt"},
    )


def find_cora_files(data_dir: str | Path) -> dict[str, Path]:
    """Locate cora.content / cora.cites in data_dir or a cora/ subdirectory."""
    return _find_files(data_dir, "cora", {"content": "cora.content", "cites": "cora.cites"}, {})
