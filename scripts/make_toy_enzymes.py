#!/usr/bin/env python3
"""Generate a small synthetic dataset in the TU text format.

Thin wrapper around ``oversmooth.synthetic.write_synthetic_enzymes``: index 0
is a 37-node non-regular connected graph, index 10 is the complete graph on 4
nodes (3-regular), and index 18 is a single edge. The output is reproducible
from the seed.

Usage: python3 scripts/make_toy_enzymes.py [out_dir] [--seed N]
"""

import argparse
import sys

from oversmooth.synthetic import DEFAULT_DATASET_SEED, write_synthetic_enzymes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default="data")
    parser.add_argument("--seed", type=int, default=DEFAULT_DATASET_SEED)
    args = parser.parse_args(argv)

    graphs = write_synthetic_enzymes(args.out_dir, seed=args.seed)
    n_nodes = sum(g.n_nodes for g in graphs)
    print(f"wrote TU-format dataset ({n_nodes} nodes, {len(graphs)} graphs) to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
