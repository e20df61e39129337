#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's run-to-run spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1] [--out FILE]

Each run is a separate ``perfbench/run.py`` process, run one after another,
over every workload in BENCHMARK.json.
For every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median. In an
untraced set each spread is compared with a third of the metric's bound in
BENCHMARK.json. ``--out`` writes all runs, the summaries, the environment and,
for traced sets, each module's share of op time to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    run = json.loads(lines[-1])
    run["seed"] = seed
    run["env"] = json.loads(next(ln for ln in lines if ln.startswith("env: "))[5:])
    if trace:
        spans = json.loads((BENCH / "out" / f"spans-{workload}-{seed}.json").read_text())
        run["module_share"] = spans["module_share"]
    return run


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "trace": args.trace,
              "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}", flush=True)
        report.setdefault("env", runs[0]["env"])
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            modules = sorted({m for r in runs for m in r["module_share"]})
            entry["module_share"] = {
                m: statistics.median(r["module_share"].get(m, 0.0) for r in runs) for m in modules}
            print("  share of op time: " + ", ".join(
                f"{m} {v:.1%}" for m, v in entry["module_share"].items()))
        report["workloads"][workload] = entry
        for name, s in summary.items():
            verdict = ""
            if name in bounds:
                ok = s["spread"] < bounds[name] / 3
                steady &= ok
                verdict = f"bound {bounds[name]:.2f} {'ok' if ok else 'TOO WIDE'}"
            print(f"  {name:34s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:7.2%} {verdict}")
        steady &= all(r["correct"] for r in runs)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
