#!/usr/bin/env python3
"""Run every named experiment recipe and collect the CSV/JSON artifacts.

Usage: python3 scripts/run_figures.py --data-dir <dir> [--out <dir>]

The data directory must contain the TU-format files (ENZYMES_*.txt) and,
for the fig3 recipe, cora.content / cora.cites. Experiments whose data
files are missing are skipped with a notice rather than failing the batch.
"""

import argparse
import sys

from oversmooth.cli import RECIPES
from oversmooth.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--out", default="repro-out")
    args = parser.parse_args(argv)

    failures = 0
    for experiment in RECIPES:
        code = cli_main([
            "repro", "--experiment", experiment,
            "--data-dir", args.data_dir, "--out", args.out,
        ])
        if code != 0:
            print(f"{experiment}: skipped (exit {code}); see message above")
            failures += 1
    print(f"done: {len(RECIPES) - failures}/{len(RECIPES)} experiments completed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
