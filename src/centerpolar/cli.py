"""Command-line interface.

Subcommands: gen-data, train, eval, export-embeddings.  Every run writes a
manifest recording the arguments `main` parsed, resolved configuration,
seed, input hashes, and artifact paths.  Exit codes: 0 success, 1 runtime
or numeric failure, 2 usage or parse failure, an output directory that
is an existing file, or an `--out` file that is an existing directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import schema
from .data import (
    BenchmarkSpec,
    DataSet,
    GenerationError,
    generate_benchmark,
    load_csv,
    save_csv,
    _write_rows,
)
from .evaluation import METRICS, check_domains, evaluate
from .geometry import DegenerateVectorError
from .trainer import (
    ABLATIONS,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

_ABLATION_ALIASES = {"c4": "c4_only", "c3e": "c3e_only"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.argv = ["centerpolar", *argv]
    # exit 1 covers the divergence errors, which are ArithmeticErrors, and
    # must come first: DegenerateVectorError is also a ValueError
    try:
        return args.func(args)
    except (ArithmeticError, DegenerateVectorError, GenerationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (
        FileNotFoundError,
        FileExistsError,
        IsADirectoryError,
        NotADirectoryError,
        ValueError,
        KeyError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centerpolar",
        description="Expansion-and-constraint metric learning on labeled vector data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic benchmark from a spec")
    p.add_argument("--spec", required=True, help="benchmark spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train an encoder on a generated dataset")
    p.add_argument("--data", required=True, help="dataset directory (from gen-data)")
    p.add_argument("--config", help="training config JSON file")
    p.add_argument("--ablation", choices=sorted(set(ABLATIONS) | set(_ABLATION_ALIASES)))
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--dump-trajectories", metavar="DIR", help="write expansion trajectories CSV")
    p.add_argument("--seed", type=int)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--lr-theta", type=float)
    p.add_argument("--step-size", type=float, help="expansion step size")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test domains")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset directory with test CSVs")
    p.add_argument("--out", required=True, help="output report JSON file")
    p.add_argument("--metric", choices=METRICS, default="euclidean")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings", help="embed a dataset CSV with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset CSV file")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_export_embeddings)
    return parser


def cmd_gen_data(args) -> int:
    spec_path = Path(args.spec)
    spec = BenchmarkSpec.from_json(spec_path.read_text())
    out_dir = output_dir(args.out, "--out")
    started = _now()
    train_set, tests = generate_benchmark(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    train_path = out_dir / "train.csv"
    save_csv(train_set, train_path)
    artifacts["train"] = str(train_path)
    for name, ds in tests.items():
        path = out_dir / f"test_{name}.csv"
        save_csv(ds, path)
        artifacts[f"test_{name}"] = str(path)
    _write_manifest(
        out_dir / "manifest.json",
        args,
        resolved_config=spec.to_dict(),
        seed=spec.seed,
        artifacts=artifacts,
        inputs=[spec_path],
        started=started,
    )
    print(
        f"train: {len(train_set)} samples, {len(np.unique(train_set.labels))} classes "
        f"({train_path})"
    )
    for name, ds in tests.items():
        print(f"test {name}: {len(ds)} samples, {len(np.unique(ds.labels))} classes")
    return 0


def _resolve_train_config(args) -> tuple[TrainConfig, list[Path]]:
    inputs = []
    config = TrainConfig()
    if args.config:
        cfg_path = Path(args.config)
        config = TrainConfig.from_dict(json.loads(cfg_path.read_text()))
        inputs.append(cfg_path)
    # CLI flags override JSON config fields override defaults
    updates = {}
    if args.ablation:
        updates["ablation"] = _ABLATION_ALIASES.get(args.ablation, args.ablation)
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.embed_dim is not None:
        updates["embed_dim"] = args.embed_dim
    if args.lr_theta is not None:
        updates["lr_theta"] = args.lr_theta
    if args.step_size is not None:
        updates["expansion"] = replace(config.expansion, step_size=args.step_size)
    return replace(config, **updates), inputs


def _load_tests(data_dir: Path, width: int, source: str):
    """({domain tag: test set}, test CSV paths).  Test rows are grouped by
    domain tag over all test_*.csv files in name order, domains in order of
    first appearance; ids need only be unique within a domain.  A file whose
    rows are not `width` wide (see `_check_width`) raises ValueError."""
    test_paths = sorted(data_dir.glob("test_*.csv"))
    loaded = [(path, load_csv(path)) for path in test_paths]
    for path, ds in loaded:
        _check_width(path, ds, width, source)
    parts = [ds for _, ds in loaded if len(ds)]
    tests = {}
    if parts:
        ids, labels, domains, features = (
            np.concatenate([getattr(ds, c) for ds in parts])
            for c in ("ids", "labels", "domains", "features")
        )
        names, first = np.unique(domains, return_index=True)
        for name in names[np.argsort(first)].tolist():
            rows = domains == name
            tests[name] = DataSet(ids[rows], labels[rows], domains[rows], features[rows])
    return tests, test_paths


def _check_width(path: Path, ds: DataSet, width: int, source: str) -> None:
    """ValueError naming the file and its domains unless the rows of `ds`,
    read from `path`, have `width` features, the width of `source`; an
    empty file passes."""
    if len(ds) and ds.features.shape[1] != width:
        domains = ", ".join(map(repr, dict.fromkeys(ds.domains.tolist())))
        raise ValueError(
            f"{path}: domain {domains} has {ds.features.shape[1]} features, "
            f"but {source} has {width}"
        )


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    train_path = data_dir / "train.csv"
    if not train_path.exists():
        raise FileNotFoundError(f"no train.csv in {data_dir}")
    train_set = load_csv(train_path)
    tests, test_paths = _load_tests(data_dir, train_set.features.shape[1], str(train_path))
    config, config_inputs = _resolve_train_config(args)
    out_dir = output_dir(args.out, "--out")
    if args.dump_trajectories:
        traj_dir = output_dir(args.dump_trajectories, "--dump-trajectories")
    started = _now()
    sink = [] if args.dump_trajectories else None
    report = train(train_set, config, tests=tests or None, trajectory_sink=sink)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.json"
    save_checkpoint(checkpoint_path, report.model, config, config.total_epochs)
    report_path = out_dir / "report.json"
    schema.write_json(report.to_dict(), report_path)
    artifacts = {"checkpoint": str(checkpoint_path), "report": str(report_path)}
    if sink is not None:
        traj_dir.mkdir(parents=True, exist_ok=True)
        traj_path = traj_dir / "trajectories.csv"
        with open(traj_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "iter", "d_geo", "d_euclid", "loss"])
            for sid, it, dg, de, lv in sink:
                writer.writerow([sid, it, f"{dg:.17g}", f"{de:.17g}", f"{lv:.17g}"])
        artifacts["trajectories"] = str(traj_path)
    _write_manifest(
        out_dir / "manifest.json",
        args,
        resolved_config=config.to_dict(),
        seed=config.seed,
        artifacts=artifacts,
        inputs=[train_path] + test_paths + config_inputs,
        started=started,
        extra={"call_counts": report.call_counts},
    )
    if report.epoch_losses:
        print(f"trained {config.total_epochs} epochs, final loss {report.epoch_losses[-1]:.6f}")
    else:
        print("trained 0 epochs (initial model echoed)")
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    model, _config, _epoch = load_checkpoint(ckpt_path)
    data_dir = Path(args.data)
    tests, test_paths = _load_tests(data_dir, model.input_dim, "the checkpoint's encoder")
    if not tests:
        if test_paths:
            names = ", ".join(path.name for path in test_paths)
            raise ValueError(f"the test CSVs in {data_dir} hold no rows: {names}")
        raise FileNotFoundError(f"no test_*.csv files in {data_dir}")
    check_domains(tests)
    out_path = output_file(args.out)
    started = _now()
    report = evaluate(model, tests, metric=args.metric)
    schema.write_json(report.to_dict(), out_path)
    _write_manifest(
        Path(str(out_path) + ".manifest.json"),
        args,
        resolved_config={"metric": args.metric},
        seed=None,
        artifacts={"report": str(out_path)},
        inputs=[ckpt_path] + test_paths,
        started=started,
    )
    sys.stdout.write(report.to_text())
    return 0


def cmd_export_embeddings(args) -> int:
    ckpt_path = Path(args.checkpoint)
    model, _config, _epoch = load_checkpoint(ckpt_path)
    data_path = Path(args.data)
    ds = load_csv(data_path)
    _check_width(data_path, ds, model.input_dim, "the checkpoint's encoder")
    started = _now()
    out_path = output_file(args.out)
    header = ("id", "label", "domain", *(f"e{i}" for i in range(model.embed_dim)))
    E = model.embed_many(ds.features) if len(ds) else np.zeros((0, model.embed_dim))
    _write_rows(out_path, header, ds, E)
    _write_manifest(
        Path(str(out_path) + ".manifest.json"),
        args,
        resolved_config={"embed_dim": model.embed_dim},
        seed=None,
        artifacts={"embeddings": str(out_path)},
        inputs=[ckpt_path, data_path],
        started=started,
    )
    print(f"wrote {len(ds)} embeddings to {out_path}")
    return 0


def output_dir(out: str, flag: str) -> Path:
    """`out` as a directory that a run makes once its work is done; a file
    in its place or above it raises FileExistsError or NotADirectoryError
    now, before the work."""
    path = Path(out)
    for p in (path, *path.parents):
        if p.is_dir():
            break
        if p.exists():
            error = FileExistsError if p == path else NotADirectoryError
            raise error(f"{flag} {path}: {p} is a file, not a directory")
    return path


def output_file(out: str) -> Path:
    """`out` with its folder made; an existing directory is IsADirectoryError."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")
    return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    path: Path,
    args,
    resolved_config,
    seed,
    artifacts: dict,
    inputs: list,
    started: str,
    extra: dict | None = None,
) -> None:
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "resolved_config": resolved_config,
        "seed": seed,
        "artifacts": artifacts,
        "input_sha256": {str(p): _sha256(Path(p)) for p in inputs},
        "started_at": started,
        "finished_at": _now(),
    }
    if extra:
        manifest.update(extra)
    schema.write_json(manifest, path)


if __name__ == "__main__":
    sys.exit(main())
