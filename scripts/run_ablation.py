#!/usr/bin/env python3
"""Run the four-way ablation grid on the reference benchmark.

Prints per-seed MAP@R for baseline / c4_only / c3e_only / full and the
mean per ablation.  Seeds and sizes are CLI-settable; defaults match the
release-check configuration.
"""

import argparse

from centerpolar import schema
from centerpolar.experiments import benchmark_train_config, run_ablation_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (0..n-1)")
    parser.add_argument("--lam", type=float, default=None, help="centripetal weight")
    parser.add_argument("--epochs", type=int, default=None, help="training epochs per run")
    parser.add_argument("--out", default=None, help="optional JSON output path")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    kwargs = {}
    if args.lam is not None:
        kwargs["lam"] = args.lam
    if args.epochs is not None:
        kwargs["total_epochs"] = args.epochs
    try:  # the grid's config rules, checked before any cell runs
        benchmark_train_config(0, "full", **kwargs)
    except ValueError as e:
        parser.error(str(e))
    results = run_ablation_grid(range(args.seeds), **kwargs)

    for ablation, scores in results.items():
        mean = sum(scores) / len(scores)
        print(f"{ablation:9s} mean={mean:.4f}  " + " ".join(f"{s:.4f}" for s in scores))
    if args.out:
        schema.write_json(results, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
