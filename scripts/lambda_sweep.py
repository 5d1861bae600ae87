#!/usr/bin/env python3
"""Sweep the centripetal weight on the reference benchmark.

Runs the full method per lambda per seed and prints the MAP@R curve,
seed-by-seed and averaged.  At the default two-epoch operating point the
curve rises monotonically over [0, 1]; longer schedules bend it over.
"""

import argparse

from centerpolar.cli import output_file
from centerpolar.experiments import report_grid, run_lambda_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (0..n-1)")
    parser.add_argument(
        "--lambdas",
        type=float,
        nargs="+",
        default=None,
        help="lambda grid (default 0 0.25 0.5 0.75 1)",
    )
    parser.add_argument("--epochs", type=int, default=None, help="training epochs per run")
    parser.add_argument("--out", default=None, help="optional JSON output path")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    epochs = {} if args.epochs is None else {"total_epochs": args.epochs}
    lambdas = {} if args.lambdas is None else {"lambdas": tuple(args.lambdas)}
    try:  # --out and every cell are checked before the first cell runs
        if args.out:
            output_file(args.out)
        curve = run_lambda_sweep(range(args.seeds), **lambdas, **epochs)
    except (OSError, ValueError) as e:
        parser.error(str(e))
    report_grid(curve, "lambda={:<5g}", args.out)


if __name__ == "__main__":
    main()
