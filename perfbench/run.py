#!/usr/bin/env python3
"""Benchmark of the oversmooth CLI on seeded Cora- and ENZYMES-shaped inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload cora-fig3 --seed 1 --seconds 20 --trace 0

One caller drives ``oversmooth.cli.main`` in-process as a closed loop: the
next op starts when the previous one returns. Inputs are generated from
``--seed`` by ``bench_inputs`` into ``perfbench/work/`` (deleted at exit).
Every op's output is checked against an oracle from ``bench_oracles``; stdout
goes to an in-memory sink, never to a terminal or file.

Workloads (see BENCHMARK.json for why each exists):

* ``cora-fig3``: ``repro --experiment fig3`` on a 2708-node citation graph.
* ``cora-spectra``: ``spectra --graph cora-lcc --operator delta-norm
  --superpose delta``, both CSVs to stdout.
* ``enzymes-sweep``: ``simulate``, ``ratio`` and ``axioms`` on one
  ``enzymes:<i>`` graph of a 600-graph TU dataset; the indices cycle through
  eight drawn from the seed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates traced
and untraced passes over the op cycle, reports the per-layer metrics of the
traced ops (median per op), and writes the spans to
``perfbench/out/spans-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, the environment, and in a traced run each module's
share of op time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

ENZYMES_CYCLE = 8  # distinct graphs one enzymes-sweep run visits, in order, repeatedly
SPECTRA_SAMPLE_ROWS = 16  # superposition rows whose norm the oracle checks
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


NPROC = limit_blas_threads()  # BLAS reads the cap when numpy first loads, just below

import numpy as np  # noqa: E402

import bench_inputs  # noqa: E402
import bench_oracles  # noqa: E402
import bench_trace  # noqa: E402


class Sink:
    """Text stream that keeps what is written, for the oracles, and nothing else."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.chunks)


@dataclass
class Result:
    code: int | str  # exit code, or the exception that escaped main
    out: Sink
    err: Sink


@dataclass
class Op:
    commands: list[list[str]]
    check: Callable[[list[Result]], list[str]]


@dataclass
class Workload:
    write_inputs: Callable  # (dir, seed) -> facts
    make_ops: Callable  # (data dir, out dir, rng, facts) -> list[Op], run as a cycle
    setup_reps: int  # set-ups (generate inputs, warm up) per run; median + import = setup_s


# ------------------------------------------------------------------ workloads


def _fig3_ops(data: Path, out: Path, rng, facts) -> list[Op]:
    argv = ["repro", "--experiment", "fig3", "--data-dir", str(data), "--out", str(out)]

    def check(results):
        return bench_oracles.check_fig3(results[0].out.text(),
                                        (out / "fig3" / "trace.csv").read_text())

    return [Op([argv], check)]


def _spectra_ops(data: Path, out: Path, rng, facts) -> list[Op]:
    argv = ["spectra", "--graph", "cora-lcc", "--data-dir", str(data),
            "--operator", "delta-norm", "--superpose", "delta"]
    rows = rng.choice(facts.lcc_nodes, size=SPECTRA_SAMPLE_ROWS, replace=False)

    def check(results):
        return bench_oracles.check_spectra(results[0].out.chunks, facts.lcc_nodes,
                                           facts.lcc_edges, rows)

    return [Op([argv], check)]


def _sweep_ops(data: Path, out: Path, rng, facts) -> list[Op]:
    attrs = bench_inputs.read_enzymes_attributes(data, facts)
    ops = []
    for idx in rng.choice(len(facts.n_nodes), size=ENZYMES_CYCLE, replace=False):
        common = ["--graph", f"enzymes:{idx}", "--data-dir", str(data)]
        expected = bench_oracles.edge_sum_energy(attrs[idx], facts.edges[idx])

        def check(results, expected=expected):
            return bench_oracles.check_sweep((out / "trace.csv").read_text(),
                                             results[2].out.text(), expected)

        ops.append(Op([["simulate", *common, "--out", str(out)], ["ratio", *common],
                       ["axioms", *common]], check))
    return ops


WORKLOADS = {
    "cora-fig3": Workload(bench_inputs.write_cora, _fig3_ops, 5),
    "cora-spectra": Workload(bench_inputs.write_cora, _spectra_ops, 3),  # ~5 s per set-up
    "enzymes-sweep": Workload(bench_inputs.write_enzymes, _sweep_ops, 5),
}


# ------------------------------------------------------------------ running ops


def run_op(cli, op: Op) -> tuple[float, float, list[str]]:
    """Run one op; return its wall time, its process CPU time and its problems."""
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in op.commands:
        res = Result(0, Sink(), Sink())
        with contextlib.redirect_stdout(res.out), contextlib.redirect_stderr(res.err):
            try:
                res.code = cli.main(argv)
            except SystemExit as exc:
                res.code = exc.code
            except Exception:  # an escaped exception is a failed op, not a crashed benchmark
                res.code = traceback.format_exc(limit=3)
        results.append(res)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    problems = [f"{argv[0]}: exit {r.code} {r.err.text().strip()[:200]}"
                for argv, r in zip(op.commands, results) if r.code != 0]
    if not problems:
        try:
            problems = op.check(results)
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return wall, cpu, problems


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). When that percentile would
    not lie above the median (fewer than 2 * TAIL_BEYOND samples), it returns
    the maximum instead, as p100 with 0 samples beyond.
    """
    s = sorted(latencies)
    if len(s) < 2 * TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s), TAIL_BEYOND


def fresh(out: Path) -> None:
    """Empty an op's output directory after its check.

    Every op then writes new files, as a run into a new output directory
    does; rewriting an existing file on ext4 forces a flush to disk on close,
    which would time the disk rather than the program.
    """
    shutil.rmtree(out)
    out.mkdir()


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if it can be queried."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_limit": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": blas_threads_in_use(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------------ main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oversmooth" / "__init__.py").is_file():
        print(f"error: no oversmooth sources under {SRC}", file=sys.stderr)
        return 2

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import oversmooth.cli as cli
    import_s = time.perf_counter() - t_import
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported oversmooth from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, cli, workload, work, import_s, environment(args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run still uses it
            work.parent.rmdir()


class Tally:
    """Ops attempted and failed, warm-up ops included, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def set_up(args, cli, workload: Workload, work: Path, tally: Tally):
    """Generate the inputs, build the op cycle and run one warm-up op, setup_reps
    times into fresh directories; return the median time, the ops and their
    output directory from the last repeat."""
    times = []
    for rep in range(workload.setup_reps):
        data, out = work / f"inputs{rep}", work / f"out{rep}"
        t0 = time.perf_counter()
        data.mkdir(parents=True)
        out.mkdir(parents=True)
        facts = workload.write_inputs(data, args.seed)
        ops = workload.make_ops(data, out, np.random.default_rng([args.seed, 3]), facts)
        tally.add(run_op(cli, ops[0])[2])
        fresh(out)
        times.append(time.perf_counter() - t0)
        if rep < workload.setup_reps - 1:
            shutil.rmtree(data)
            shutil.rmtree(out)
    return statistics.median(times), ops, out


def measure(args, cli, workload: Workload, work: Path, import_s: float, env: dict) -> int:
    tally = Tally()
    setup_median, ops, out = set_up(args, cli, workload, work, tally)
    setup_s = import_s + setup_median

    # Closed loop over the op cycle. A traced run alternates traced and
    # untraced passes and ends on a whole pass, so every op of the cycle is
    # traced equally often and the per-layer counts do not depend on timing.
    tracer = bench_trace.Tracer() if args.trace else None
    latencies, cpus, traced, untraced = [], [], [], []
    completed = 0  # ops of the loop with no problems
    start = time.perf_counter()
    passes = 0
    done = False
    while not done:
        trace_pass = tracer is not None and passes % 2 == 0
        if trace_pass:
            tracer.install()
        try:
            for op in ops:
                if tracer is None and time.perf_counter() - start >= args.seconds:
                    done = True
                    break
                if trace_pass:
                    tracer.begin_op(len(latencies))
                try:
                    wall, cpu, problems = run_op(cli, op)
                finally:
                    if trace_pass:
                        tracer.end_op()
                tally.add(problems)
                completed += not problems
                fresh(out)
                latencies.append(wall)
                cpus.append(cpu)
                (traced if trace_pass else untraced).append(wall)
        finally:
            if trace_pass:
                tracer.restore()
        passes += 1
        if tracer is not None:
            done = time.perf_counter() - start >= args.seconds and passes >= 2

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(latencies)} ops in "
          f"{time.perf_counter() - start:.3f} s after {workload.setup_reps} set-ups")
    for problem in tally.problems[:10]:
        print(f"FAILED: {problem}")
    print(f"  failed_ops_ratio: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted} (ratio)")

    if tracer is None:
        value, pct, beyond = tail(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (completed / sum(latencies), "1/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (value, "s"),
            "cpu_s_per_op": (statistics.median(cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {"op_tail_s": f"p{pct:.1f}, {beyond} samples beyond, {len(latencies)} samples"}
    else:
        metrics, notes = layer_report(args, tracer, traced, untraced, env)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name}: {value!r} {unit}{note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_report(args, tracer, traced: list[float], untraced: list[float], env: dict):
    per_op = bench_trace.per_op_layer_metrics(tracer.spans)
    metrics = {
        name: (statistics.median(v[name] for v in per_op.values()), bench_trace.unit_of(name))
        for name in bench_trace.LAYER_METRICS
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    shares = bench_trace.module_shares(tracer.spans)
    modules = sorted({m for s in shares.values() for m in s})
    median_share = {m: statistics.median(s.get(m, 0.0) for s in shares.values()) for m in modules}
    print("  share of op time (self, median over traced ops): "
          + ", ".join(f"{m} {median_share[m]:.1%}" for m in modules))
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps({
        "env": env,
        "workload": args.workload,
        "module_share": median_share,
        "spans": [[s.name, s.start, s.end, s.parent, s.op, s.amount] for s in tracer.spans],
    }))
    notes = {"trace.overhead_ratio": f"{len(traced)} traced vs {len(untraced)} untraced ops"}
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
