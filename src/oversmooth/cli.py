"""Command-line entry point: ingestion -> analysis -> export.

Exit codes: 0 success, 1 data/numerical error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    ENERGY_FIELDS,
    FirstLayerWeights,
    PerLayerWeights,
    PropagationConfig,
    RegimeVerdict,
    classify_regime,
    energy_ratio_trace,
    fit_decay,
    propagate,
)
from .energy import (
    AXIOM2_TOL,
    DEFAULT_AXIOM_TOL,
    DEFAULT_SEED,
    axiom1_check,
    axiom2_check,
    descriptor_for,
    normalize_conjugation,
)
from .errors import DomainError, InsufficientDataError, NumericalError
from .graph_core import (
    Graph,
    largest_connected_component,
    load_cora,
    load_edge_list,
    load_tu_dataset,
    stats,
)
from .io_formats import (
    RunManifest,
    dump_json,
    export_axiom_report_json,
    export_matrix_csv,
    export_ratio_csv,
    export_report_json,
    export_spectra_csv,
    export_superposition_csv,
    export_trace_csv,
)
from .operators import LAPLACIAN_KINDS, PROPAGATION_KINDS, OperatorKind, build, commutation
from .spectral import eigendecompose, superposition

DATA_DIR_ENV = "OVERSMOOTH_DATA_DIR"

OPERATOR_ALIASES = {
    "delta": OperatorKind.UNNORMALIZED_LAPLACIAN,
    "delta-norm": OperatorKind.NORMALIZED_LAPLACIAN,
    "delta-tilde-norm": OperatorKind.RENORMALIZED_LAPLACIAN,
    "anorm": OperatorKind.NORMALIZED_ADJACENCY,
    "anorm-tilde": OperatorKind.RENORMALIZED_ADJACENCY,
}
# axioms measures with a Laplacian, or with its degree conjugation D^{-1/2} L D^{-1/2}
_LAPLACIAN_LABELS = [label for label, kind in OPERATOR_ALIASES.items() if kind in LAPLACIAN_KINDS]
AXIOM_OPERATORS = _LAPLACIAN_LABELS + [f"conjugate:{label}" for label in _LAPLACIAN_LABELS]

# MemoryError: numpy refuses an allocation past the address space, such as the
# degree counts of a declared node count of 10^15
_DATA_ERRORS = (ValueError, OSError, NumericalError, MemoryError)

# experiment -> (graph selector, output kind, weights spec); every recipe runs
# 50 layers of the normalized adjacency with the 1/|V| volume constant
RECIPES = {
    "fig1": ("enzymes:0", "simulate", "none"),
    "fig2": ("enzymes:10", "simulate", "none"),
    "fig3": ("cora-lcc", "simulate", "first:16"),
    "fig4a": ("enzymes:0", "ratio", "per-layer"),
    "fig4b": ("enzymes:10", "ratio", "per-layer"),
    "fig4c": ("enzymes:18", "ratio", "per-layer"),
}


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def _read_dataset(
    data_dir: str, sub: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> list[str | None]:
    """Text of each named file, from data_dir/<name> or else data_dir/<sub>/<name>.

    A missing optional file reads as None; missing required files raise, all named.
    """
    root = Path(data_dir)
    paths = {
        name: next((path for path in (root / name, root / sub / name) if path.is_file()), None)
        for name in (*required, *optional)
    }
    missing = [name for name in required if paths[name] is None]
    if missing:
        raise FileNotFoundError(f"missing dataset files under {root}: " + ", ".join(missing))
    return [None if path is None else path.read_text() for path in paths.values()]


def resolve_graph(
    selector: str, data_dir: str | None, *, read_attributes: bool = True
) -> tuple[Graph, np.ndarray | None, str]:
    """Turn a --graph selector into (graph, optional features, dataset id).

    Selectors: 'enzymes:<idx>' (0-based TU file order), 'cora-lcc', or a path
    to an edge-list file. A dataset selector reads its files from data_dir or
    its ENZYMES/ or cora/ subdirectory: ENZYMES_A.txt and
    ENZYMES_graph_indicator.txt, plus ENZYMES_node_attributes.txt when present;
    cora.content and cora.cites. With ``read_attributes=False`` the attribute
    file is not looked for, and the features are None.
    """
    if data_dir is None and (selector.startswith("enzymes:") or selector == "cora-lcc"):
        raise FileNotFoundError(f"selector {selector!r} needs --data-dir or ${DATA_DIR_ENV}")
    if selector.startswith("enzymes:"):
        idx = int(selector.split(":", 1)[1])
        optional = ("ENZYMES_node_attributes.txt",) if read_attributes else ()
        graphs = load_tu_dataset(*_read_dataset(
            data_dir, "ENZYMES", ("ENZYMES_A.txt", "ENZYMES_graph_indicator.txt"), optional
        ))
        if not (0 <= idx < len(graphs)):
            raise DomainError(f"dataset has {len(graphs)} graphs, index {idx} out of range")
        g, x = graphs[idx]
        return g, x, "ENZYMES"
    if selector == "cora-lcc":
        g, x = load_cora(*_read_dataset(data_dir, "cora", ("cora.content", "cora.cites")))
        g, x = largest_connected_component(g, x)
        return g, x, "cora"
    path = Path(selector)
    if not path.is_file():
        raise FileNotFoundError(f"no such edge-list file: {selector}")
    return load_edge_list(path.read_text()), None, path.name


def _initial_signal(
    g: Graph, features: np.ndarray | None, seed: int, width: int
) -> np.ndarray:
    if features is not None and features.size:
        return np.asarray(features, dtype=float)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((g.n_nodes, width))


def _manifest(dataset_id: str, selector: str, config: dict, seed: int) -> RunManifest:
    return RunManifest(
        dataset_id=dataset_id,
        graph_selector=selector,
        config=config,
        seed=seed,
        tool_version=__version__,
        timestamp=_now_iso(),
    )


def _parse_weights(spec: str, layers: int, in_width: int, seed: int):
    """Weight mode for a spec already checked by ``_weights_spec``."""
    if spec == "none":
        return None
    kind, _, width = spec.partition(":")
    if kind == "first":
        return FirstLayerWeights(out_dim=int(width), seed=seed)
    return PerLayerWeights(dims=(int(width) if width else in_width,) * layers, seed=seed)


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_or_print(path: str | None, text: str):
    """Write text to the file at path when one is given, else to stdout."""
    if path:
        _write(Path(path), text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- commands


def cmd_analyze(args) -> int:
    g, _, dataset_id = resolve_graph(args.graph, args.data_dir, read_attributes=False)
    st = stats(g)
    doc = {
        "dataset_id": dataset_id,
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "connected": st.connected,
        "regular": st.regular,
        "bipartite": st.bipartite,
        "avg_degree": st.avg_degree,
        "degree_variance": st.degree_variance,
    }
    if st.connected:
        p = build(g, OperatorKind.NORMALIZED_LAPLACIAN)
        q = build(g, OperatorKind.UNNORMALIZED_LAPLACIAN)
        doc["laplacians_commute"], doc["commutator_frobenius_norm"] = commutation(p, q)
    print(dump_json(doc), end="")
    return 0


def _run_simulation(g, features, args, selector: str, dataset_id: str):
    """Propagate with the run settings in ``args`` (layers, operator, weights, seed,
    features, volume_constant); the one run path behind simulate, ratio and repro."""
    x0 = _initial_signal(g, features, args.seed, args.features)
    weight_mode = _parse_weights(args.weights, args.layers, x0.shape[1], args.seed)
    cfg = PropagationConfig(
        layers=args.layers,
        operator_kind=OPERATOR_ALIASES[args.operator],
        weight_mode=weight_mode,
        track_volume_constant=args.volume_constant,
    )
    _, trace = propagate(g, x0, cfg)
    config = {
        "layers": args.layers,
        "operator": args.operator,
        "weights": args.weights,
        "features": x0.shape[1],
        "volume_constant": args.volume_constant,
    }
    manifest = _manifest(dataset_id, selector, config, args.seed)
    return trace, manifest


def _simulation_outputs(trace, manifest, out_dir: Path) -> RegimeVerdict:
    verdict = classify_regime(trace)
    fits = {}
    for metric in ENERGY_FIELDS.values():
        series = [(rec.k, getattr(rec, metric)) for rec in trace.records]
        try:
            fits[metric] = fit_decay(series)
        except InsufficientDataError:
            pass
    _write(out_dir / "trace.csv", export_trace_csv(trace, manifest))
    _write(out_dir / "report.json", export_report_json(verdict, fits, manifest))
    return verdict


def cmd_simulate(args) -> int:
    g, features, dataset_id = resolve_graph(args.graph, args.data_dir)
    trace, manifest = _run_simulation(g, features, args, args.graph, dataset_id)
    verdict = _simulation_outputs(trace, manifest, Path(args.out))
    print(f"over_smoothing={verdict.over_smoothing} over_shrinking={verdict.over_shrinking}")
    print(verdict.notes)
    print(f"wrote {args.out}/trace.csv and {args.out}/report.json")
    return 0


def cmd_axioms(args) -> int:
    g, _, dataset_id = resolve_graph(args.graph, args.data_dir, read_attributes=False)
    label = args.operator
    base = label.removeprefix("conjugate:")
    op = descriptor_for(g, OPERATOR_ALIASES[base])
    if base != label:
        op = normalize_conjugation(op)
    a1 = axiom1_check(op, trials=args.trials, tol=args.tol, seed=args.seed)
    a2 = axiom2_check(op, trials=args.trials, seed=args.seed)
    manifest = _manifest(
        dataset_id, args.graph, {"operator": label, "trials": args.trials}, args.seed
    )
    report = export_axiom_report_json(
        label, a1, a2, args.seed,
        {"axiom1_tol": args.tol, "axiom2_tol": AXIOM2_TOL},
        manifest,
    )
    if args.out:
        _write(Path(args.out), report)
    print(f"axiom1: {'PASS' if a1.holds else 'FAIL'}")
    if not a1.holds:
        print(f"  witness: {a1.note}")
    print(f"axiom2: {'PASS' if a2 else 'FAIL'}")
    return 0


def cmd_ratio(args) -> int:
    g, features, dataset_id = resolve_graph(args.graph, args.data_dir)
    trace, manifest = _run_simulation(g, features, args, args.graph, dataset_id)
    ratio = energy_ratio_trace(trace)
    if args.out:
        _write(Path(args.out), export_ratio_csv(ratio, manifest))
    if not ratio.points:
        print("no well-conditioned ratio layers")
        return 0
    values = [r for _, r in ratio.points]
    st = stats(g)
    if st.regular:
        d = int(g.degrees[0])
        dev = max(abs(v - d) for v in values)
        print(f"regular graph, degree {d}: max |ratio - {d}| = {dev:.3e} "
              f"over {len(values)} pre-floor layers")
    else:
        print(f"non-regular graph: ratio in [{min(values):.6g}, {max(values):.6g}] "
              f"over {len(values)} pre-floor layers")
    if ratio.cut_layer is not None:
        print(f"ratio ill-conditioned from layer {ratio.cut_layer}")
    return 0


def cmd_spectra(args) -> int:
    g, _, dataset_id = resolve_graph(args.graph, args.data_dir, read_attributes=False)
    dec = eigendecompose(build(g, OPERATOR_ALIASES[args.operator]))
    manifest = _manifest(dataset_id, args.graph, {"operator": args.operator}, args.seed)
    _write_or_print(args.out, export_spectra_csv(dec, manifest))
    if args.superpose:
        other = eigendecompose(build(g, OPERATOR_ALIASES[args.superpose]))
        sup = superposition(dec, other)
        _write_or_print(args.superpose_out, export_superposition_csv(sup, manifest))
    return 0


def cmd_export_operator(args) -> int:
    g, _, dataset_id = resolve_graph(args.graph, args.data_dir, read_attributes=False)
    op = build(g, OPERATOR_ALIASES[args.operator])
    manifest = _manifest(dataset_id, args.graph, {"operator": args.operator}, args.seed)
    _write_or_print(args.out, export_matrix_csv(op.matrix, manifest))
    return 0


def cmd_repro(args) -> int:
    if args.data_dir is None:
        raise FileNotFoundError(f"repro needs --data-dir or ${DATA_DIR_ENV}")
    out_dir = Path(args.out) / args.experiment
    selector, output, weights = RECIPES[args.experiment]
    g, features, dataset_id = resolve_graph(selector, args.data_dir)
    run = argparse.Namespace(
        layers=50, operator="anorm", weights=weights, seed=args.seed,
        features=args.features, volume_constant=True,
    )
    trace, manifest = _run_simulation(g, features, run, selector, dataset_id)
    if output == "simulate":
        verdict = _simulation_outputs(trace, manifest, out_dir)
        print(f"{args.experiment}: over_smoothing={verdict.over_smoothing} "
              f"over_shrinking={verdict.over_shrinking}")
    else:
        ratio = energy_ratio_trace(trace)
        _write(out_dir / "trace.csv", export_trace_csv(trace, manifest))
        _write(out_dir / "ratio.csv", export_ratio_csv(ratio, manifest))
        print(f"{args.experiment}: {len(ratio.points)} well-conditioned ratio layers")
    print(f"wrote outputs under {out_dir}")
    return 0


# ---------------------------------------------------------------- parser


def _matching(pattern: str, expected: str, convert=str):
    """argparse type: ``convert(text)`` when text fully matches pattern, else exit 2."""
    def check(text: str):
        if re.fullmatch(pattern, text) is None:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return convert(text)
    return check


def _checked(convert, holds, expected: str):
    """argparse type: ``convert(text)`` when it converts and ``holds`` of it, else exit 2."""
    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return check


_POSITIVE = r"0*[1-9][0-9]*"
_positive_int = _matching(_POSITIVE, "a positive integer", int)
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_weights_spec = _matching(rf"none|first:{_POSITIVE}|per-layer(:{_POSITIVE})?",
                          "none | first:<w> | per-layer[:<w>] with w >= 1")
# an edge-list path, or enzymes:<idx> with a non-negative integer index
_graph_selector = _matching(r"(?s)enzymes:[0-9]+|(?!enzymes:).*", "enzymes:<idx> with idx >= 0")


def _add_common(
    p: argparse.ArgumentParser, graph: bool = True, seed: bool = True, features: bool = False
):
    """The shared flags, each offered only to the commands that read it."""
    if graph:
        p.add_argument("--graph", required=True, type=_graph_selector,
                       help="edge-list path, 'enzymes:<idx>', or 'cora-lcc'")
    # main builds the parser per call, so the variable is read when a command runs
    p.add_argument("--data-dir", default=os.environ.get(DATA_DIR_ENV),
                   help=f"dataset directory (default ${DATA_DIR_ENV})")
    if seed:
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    if features:
        p.add_argument("--features", type=_positive_int, default=8,
                       help="random-input width when the graph carries no attributes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oversmooth",
        description="Spectral diagnostics for over-smoothing in linear GCN dynamics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural stats and commutation check")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="deep linear propagation with metric trace")
    _add_common(p, features=True)
    p.add_argument("--layers", type=_positive_int, default=50)
    p.add_argument("--operator", default="anorm", choices=sorted(
        label for label, kind in OPERATOR_ALIASES.items() if kind in PROPAGATION_KINDS))
    p.add_argument("--weights", type=_weights_spec, default="none",
                   help="none | first:<width> | per-layer[:<width>]")
    p.add_argument("--volume-constant", action="store_true",
                   help="track energies with the 1/|V| constant")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("axioms", help="node-similarity axiom checks for an operator")
    _add_common(p)
    p.add_argument("--operator", default="delta-norm", choices=AXIOM_OPERATORS,
                   metavar="OPERATOR", help=" | ".join(AXIOM_OPERATORS))
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_AXIOM_TOL)
    p.add_argument("--out", default=None, help="axiom report JSON path")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("ratio", help="per-layer energy-ratio trace (per-layer weights)")
    _add_common(p, features=True)
    p.add_argument("--layers", type=_positive_int, default=50)
    p.add_argument("--out", default=None, help="ratio CSV path")
    # ratio is the simulate run with these settings fixed
    p.set_defaults(func=cmd_ratio, operator="anorm", weights="per-layer", volume_constant=False)

    p = sub.add_parser("spectra", help="export eigenvalues (and optional superposition)")
    _add_common(p)
    p.add_argument("--operator", default="delta-norm",
                   choices=sorted(OPERATOR_ALIASES))
    p.add_argument("--superpose", default=None, choices=sorted(OPERATOR_ALIASES),
                   help="also export the superposition with this operator's basis")
    p.add_argument("--out", default=None)
    p.add_argument("--superpose-out", default=None)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("export-operator", help="dump an operator matrix as CSV")
    _add_common(p)
    p.add_argument("--operator", default="delta", choices=sorted(OPERATOR_ALIASES))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_operator)

    p = sub.add_parser("repro", help="run a named experiment recipe")
    _add_common(p, graph=False, features=True)
    p.add_argument("--experiment", required=True,
                   choices=list(RECIPES))
    p.add_argument("--out", default="repro-out", help="output root directory")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "spectra" and args.superpose_out is not None and args.superpose is None:
        parser.error("spectra: --superpose-out needs --superpose")
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
