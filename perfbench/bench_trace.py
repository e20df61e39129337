"""In-memory span tracer that wraps the package's public functions from outside.

``Tracer.install`` rebinds every traced function in *every* ``oversmooth``
module that holds it, because the modules import each other's names
(``from .operators import build``): patching only the defining module would
miss the internal calls, e.g. the four ``build`` calls inside ``propagate``.
``Tracer.restore`` puts every original back. Spans are recorded only between
``begin_op`` and ``end_op``; outside an op the wrappers call straight through.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass

# defining module -> functions wrapped; a span is named "<module>.<function>"
TRACED = {
    "graph_core": ("load_cora", "load_tu_dataset", "load_edge_list", "connected_components",
                   "stats", "largest_connected_component"),
    "operators": ("build",),
    "dynamics": ("propagate", "fit_decay", "classify_regime", "energy_ratio_trace"),
    "spectral": ("eigendecompose", "superposition"),
    "io_formats": ("export_trace_csv", "export_report_json", "export_ratio_csv",
                   "export_spectra_csv", "export_superposition_csv",
                   "export_axiom_report_json", "export_matrix_csv"),
    "energy": ("axiom1_check", "axiom2_check", "descriptor_for", "normalize_conjugation",
               "measure"),
    "cli": ("main", "resolve_graph"),
}

# span name -> work done by one call, read from its result
AMOUNTS = {
    # one float64 n x n matrix per build: bytes computed from the size, not measured
    "operators.build": lambda op: op.n * op.n * 8,
    "dynamics.propagate": lambda result: len(result[1].records) - 1,  # layers
    **{f"io_formats.{fn}": len for fn in TRACED["io_formats"]},  # ASCII text: chars = bytes
}

OP = "op"  # root span the benchmark opens around each traced op


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for an op root
    op: int
    amount: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


PACKAGE = "oversmooth"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._op = -1
        self._root: Span | None = None

    @staticmethod
    def modules() -> list:
        """Every loaded module of the package, the package itself included."""
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> "Tracer":
        modules = self.modules()
        defining = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, functions in TRACED.items():
            for fn in functions:
                original = getattr(defining[mod_name], fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))
        return self

    def restore(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), math.nan, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        amount_of = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if amount_of is not None:
                    span.amount = amount_of(result)
                return result
            finally:
                self._close(span)

        return traced

    def begin_op(self, op: int) -> None:
        self._op = op
        self._root = self._open(OP)

    def end_op(self) -> float:
        """Close the op's root span and return its duration."""
        self._close(self._root)
        self._op = -1
        return self._root.duration


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


PARSE = ("graph_core.load_cora", "graph_core.load_tu_dataset", "graph_core.load_edge_list")
EXPORTS = tuple(f"io_formats.{fn}" for fn in TRACED["io_formats"])

# per-layer metric -> (kind, span names). "time": inclusive seconds of the
# outermost such spans; "self": seconds minus traced children; "calls": number
# of spans; "amount": summed AMOUNTS.
LAYER_METRICS = {
    "graph_core.parse_s": ("time", PARSE),
    "graph_core.parse_calls": ("calls", PARSE),
    "cli.resolve_graph_s": ("time", ("cli.resolve_graph",)),
    "graph_core.components_calls": ("calls", ("graph_core.connected_components",)),
    "graph_core.components_s": ("time", ("graph_core.connected_components",)),
    "graph_core.stats_s": ("time", ("graph_core.stats",)),
    "graph_core.lcc_s": ("time", ("graph_core.largest_connected_component",)),
    "operators.build_s": ("time", ("operators.build",)),
    "operators.build_calls": ("calls", ("operators.build",)),
    "operators.dense_bytes_computed": ("amount", ("operators.build",)),
    "dynamics.propagate_s": ("time", ("dynamics.propagate",)),
    "dynamics.propagate_self_s": ("self", ("dynamics.propagate",)),
    "dynamics.layers": ("amount", ("dynamics.propagate",)),
    "dynamics.postprocess_s": (
        "time", ("dynamics.fit_decay", "dynamics.classify_regime", "dynamics.energy_ratio_trace")),
    "spectral.eigendecompose_s": ("time", ("spectral.eigendecompose",)),
    "spectral.eigendecompose_calls": ("calls", ("spectral.eigendecompose",)),
    "spectral.superposition_s": ("time", ("spectral.superposition",)),
    "io_formats.export_s": ("time", EXPORTS),
    "io_formats.export_calls": ("calls", EXPORTS),
    "io_formats.bytes_out": ("amount", EXPORTS),
    "energy.axioms_s": ("time", ("energy.axiom1_check", "energy.axiom2_check")),
    "energy.descriptor_s": ("time", ("energy.descriptor_for", "energy.normalize_conjugation")),
    "energy.measure_calls": ("calls", ("energy.measure",)),
    "cli.self_s": ("self", ("cli.main", "cli.resolve_graph")),
}
UNITS = {"time": "s", "self": "s", "calls": "count"}
AMOUNT_UNITS = {"operators.dense_bytes_computed": "bytes", "dynamics.layers": "count",
                "io_formats.bytes_out": "bytes"}


def unit_of(metric: str) -> str:
    kind, _ = LAYER_METRICS[metric]
    return AMOUNT_UNITS[metric] if kind == "amount" else UNITS[kind]


def per_op_layer_metrics(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Every LAYER_METRICS value, per traced op."""
    selfs = self_times(spans)
    per_op: dict[int, dict[str, float]] = {}
    for idx, span in enumerate(spans):
        values = per_op.setdefault(span.op, dict.fromkeys(LAYER_METRICS, 0.0))
        for metric, (kind, names) in LAYER_METRICS.items():
            if span.name not in names:
                continue
            if kind == "calls":
                values[metric] += 1
            elif kind == "amount":
                values[metric] += span.amount
            elif kind == "self":
                values[metric] += selfs[idx]
            elif not _has_ancestor_in(spans, idx, names):
                values[metric] += span.duration
    return per_op


def _has_ancestor_in(spans: list[Span], idx: int, names) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def module_shares(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per op: each module's self time as a share of the op's duration.

    The op root's own self time, the benchmark's code around the commands,
    is reported as "op".
    """
    selfs = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    totals: dict[int, float] = {}
    for idx, span in enumerate(spans):
        module = span.name.split(".", 1)[0]
        shares = out.setdefault(span.op, {})
        shares[module] = shares.get(module, 0.0) + selfs[idx]
        if span.parent < 0:
            totals[span.op] = span.duration
    return {op: {m: v / totals[op] for m, v in shares.items()} for op, shares in out.items()}
