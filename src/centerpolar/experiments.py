"""Reference benchmark and experiment grids.

`default_benchmark_spec` is the desk-scale retrieval benchmark used by the
experiment scripts and the release checks: 4 seen classes for training, 4
unseen classes pushed through 3 affine domain shifts for testing.  The
helpers run full train/evaluate cycles and report MAP@R averaged over the
unseen domains.
"""

from __future__ import annotations

from . import schema
from .data import BenchmarkSpec, DomainTransform, generate_benchmark
from .evaluation import evaluate
from .expansion import ExpansionConfig
from .losses import LossConfig
from .trainer import ABLATIONS, TrainConfig, train

DEFAULT_LAMBDA = 0.75


def default_benchmark_spec(seed: int = 0, samples_per_class: int = 200) -> BenchmarkSpec:
    transforms = (
        DomainTransform(
            name="tilt_up",
            rotation_angles=(0.35, 0.25, 0.30, 0.20, 0.40, 0.25, 0.30, 0.35),
            scale=1.15,
            bias_seed=11,
            bias_std=0.30,
        ),
        DomainTransform(
            name="tilt_down",
            rotation_angles=(0.25, 0.35, 0.20, 0.30, 0.25, 0.40, 0.35, 0.20),
            scale=0.85,
            bias_seed=12,
            bias_std=0.30,
        ),
        DomainTransform(
            name="shift",
            rotation_angles=(0.30, 0.20, 0.35, 0.25, 0.30, 0.30, 0.25, 0.40),
            scale=1.0,
            bias_seed=13,
            bias_std=0.50,
        ),
    )
    # class signal lives in a 5-dim subspace; the other 11 coordinates carry
    # strong class-independent noise, so an untrained encoder retrieves badly
    # and training has to learn to suppress the nuisance directions
    return BenchmarkSpec(
        n_classes_total=8,
        n_classes_seen=4,
        samples_per_class=samples_per_class,
        input_dim=16,
        class_separation=2.5,
        intra_std=0.25,
        domain_transforms=transforms,
        seed=seed,
        signal_dim=5,
        nuisance_std=1.2,
    )


def benchmark_train_config(
    seed: int,
    ablation: str,
    lam: float = DEFAULT_LAMBDA,
    total_epochs: int = 2,
) -> TrainConfig:
    # two epochs with expansion after the first: the benchmark rewards the
    # expanded set as extra augmentation while the encoder is still fitting,
    # whereas long schedules overfit the source domain and invert the grid
    return TrainConfig(
        total_epochs=total_epochs,
        batch_size=32,
        lr_theta=1e-3,
        seed=seed,
        ablation=ablation,
        embed_dim=32,
        hidden_dim=64,
        loss=LossConfig(lam=lam),
        expansion=ExpansionConfig(
            iterations_te=5, step_size=0.05, expansion_epochs=(1,)
        ),
    )


def run_benchmark(spec: BenchmarkSpec, config: TrainConfig) -> dict:
    """Train on the seen split and evaluate on the unseen domains.

    Returns {"map_at_r", "r_precision", "recall_at_1", "epoch_losses"}.
    """
    train_set, tests = generate_benchmark(spec)
    report = train(train_set, config)
    ev = evaluate(report.model, tests)
    return {
        "map_at_r": ev.average.map_at_r,
        "r_precision": ev.average.r_precision,
        "recall_at_1": ev.average.recall_at[1],
        "epoch_losses": report.epoch_losses,
    }


def run_ablation_grid(seeds, lam: float = DEFAULT_LAMBDA, total_epochs: int = 2) -> dict:
    """MAP@R per ablation of ABLATIONS per seed on the default benchmark."""
    return _run_grid(
        ABLATIONS, seeds,
        lambda ablation, seed: benchmark_train_config(seed, ablation, lam, total_epochs),
    )


def run_lambda_sweep(
    seeds,
    lambdas=(0.0, 0.25, 0.5, 0.75, 1.0),
    total_epochs: int = 2,
) -> dict:
    """MAP@R of the full method per lambda per seed on the default benchmark."""
    return _run_grid(
        [float(lam) for lam in lambdas], seeds,
        lambda lam, seed: benchmark_train_config(seed, "full", lam, total_epochs),
    )


def report_grid(results: dict, label: str, out) -> None:
    """Print a `<label> mean=…  scores` line per cell, `label.format(cell)`
    heading it, and, given `out`, write {str(cell): scores} there as JSON."""
    for cell, scores in results.items():
        mean = sum(scores) / len(scores)
        print(f"{label.format(cell)} mean={mean:.4f}  " + " ".join(f"{s:.4f}" for s in scores))
    if out:
        schema.write_json({str(cell): scores for cell, scores in results.items()}, out)
        print(f"wrote {out}")


def _run_grid(cells, seeds, config_of) -> dict:
    """{cell: [MAP@R per seed]}, running each cell's seeds in turn with the
    config `config_of(cell, seed)`.  Every config is built, and a repeated
    cell (`0.0` and `-0.0` are one) raises ValueError, before any cell runs."""
    seeds = list(seeds)  # every cell runs them all, even from a one-pass iterator
    runs: dict = {}
    for cell in cells:
        if cell in runs:
            raise ValueError(f"grid cell {cell!r} is repeated")
        runs[cell] = [(default_benchmark_spec(seed=seed), config_of(cell, seed)) for seed in seeds]
    return {
        cell: [run_benchmark(spec, config)["map_at_r"] for spec, config in pairs]
        for cell, pairs in runs.items()
    }
