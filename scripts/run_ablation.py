#!/usr/bin/env python3
"""Run the four-way ablation grid on the reference benchmark.

Prints per-seed MAP@R for baseline / c4_only / c3e_only / full and the
mean per ablation.  Seeds and sizes are CLI-settable; defaults match the
release-check configuration.
"""

import argparse

from centerpolar.cli import output_file
from centerpolar.experiments import report_grid, run_ablation_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (0..n-1)")
    parser.add_argument("--lam", type=float, default=None, help="centripetal weight")
    parser.add_argument("--epochs", type=int, default=None, help="training epochs per run")
    parser.add_argument("--out", default=None, help="optional JSON output path")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    flags = {"lam": args.lam, "total_epochs": args.epochs}
    kwargs = {name: value for name, value in flags.items() if value is not None}
    try:  # --out and every cell are checked before the first cell runs
        if args.out:
            output_file(args.out)
        results = run_ablation_grid(range(args.seeds), **kwargs)
    except (OSError, ValueError) as e:
        parser.error(str(e))
    report_grid(results, "{:9s}", args.out)


if __name__ == "__main__":
    main()
