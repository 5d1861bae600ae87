"""The three benchmark workloads: set-up, one operation, and its checks.

Each operation is a closed loop step: the runner starts the next one only
after this one returns.  `op` does the timed work and returns a record;
`check` inspects the record afterwards, outside the timed region, and
returns the list of failed checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from centerpolar import cli, data, evaluation, experiments, trainer

CLI_SAMPLES_PER_CLASS = 500

# metrics that must be nonzero in a traced run, per workload: the "heavy"
# column of the prediction table in README.md
HEAVY = {
    "train_full": (
        "tensor.backward.calls",
        "tensor.tape_entries",
        "encoder.forward.calls",
        "losses.loss_c4.calls",
        "losses.loss_dom.calls",
        "losses.loss_dis.calls",
        "expansion.expand_batch.calls",
        "expansion.steps",
        "geometry.compute_centroids.calls",
        "geometry.geodesic_distance.calls",
        "trainer.train.calls",
        "trainer.adam_step.calls",
    ),
    "train_c4": (
        "tensor.backward.calls",
        "tensor.tape_entries",
        "encoder.forward.calls",
        "losses.loss_c4.calls",
        "losses.loss_dom.calls",
        "losses.loss_dis.calls",
        "trainer.train.calls",
        "trainer.adam_step.calls",
    ),
    "cli_eval": (
        "encoder.embed_many.calls",
        "trainer.save_checkpoint.calls",
        "trainer.load_checkpoint.calls",
        "data.generate_benchmark.calls",
        "data.save_csv.calls",
        "data.load_csv.calls",
        "evaluation.evaluate.calls",
        "evaluation.map_at_r.calls",
        "evaluation.r_precision.calls",
        "evaluation.recall_at_k.calls",
        "cli.main.calls",
    ),
}

WORKLOADS = tuple(HEAVY)


def op_seed(workload: str, seed: int, index) -> tuple[int, int]:
    """Program seed of operation `index` (or "setup") of a workload run.

    Candidates are drawn from a hash of (workload, seed, index).  The
    generator's rejection sampler cannot place the reference prototypes for
    about 1.5% of seeds and raises GenerationError; such candidates are
    skipped, so no operation fails on them.  Returns (seed, candidates
    skipped) so the run can report how often that happened.
    """
    for skipped in itertools.count():
        digest = hashlib.sha256(f"{workload}/{seed}/{index}/{skipped}".encode()).digest()
        candidate = int.from_bytes(digest[:4], "big")
        try:
            data.generate_benchmark(experiments.default_benchmark_spec(candidate, 2))
        except data.GenerationError:
            continue
        return candidate, skipped


def samples_consumed(n_train: int, config) -> int:
    """Samples `train` feeds through phase two: the originals, plus one
    expanded copy each from the first expansion epoch on."""
    expand_from = min(config.expansion.expansion_epochs, default=None)
    run_expansion = config.ablation in ("c3e_only", "full") and expand_from is not None
    return sum(
        2 * n_train if run_expansion and epoch >= expand_from else n_train
        for epoch in range(1, config.total_epochs + 1)
    )


def _check_map(value) -> list:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        return [f"MAP@R {value!r} is not a finite number in [0, 1]"]
    return []


# -- train_full / train_c4 ----------------------------------------------------

ABLATION = {"train_full": "full", "train_c4": "c4_only"}


def train_setup(workload: str, seed: int, work: Path) -> dict:
    # the data and model of a train operation are built inside the operation
    return {}


def train_op(workload: str, seed: int, work: Path) -> dict:
    """Body of experiments.run_benchmark, with its own timers."""
    spec = experiments.default_benchmark_spec(seed=seed)
    config = experiments.benchmark_train_config(seed, ABLATION[workload])
    train_set, tests = data.generate_benchmark(spec)
    t0 = time.perf_counter()
    report = trainer.train(train_set, config)
    t1 = time.perf_counter()
    ev = evaluation.evaluate(report.model, tests)
    t2 = time.perf_counter()
    return {
        "train_s": t1 - t0,
        "samples": samples_consumed(len(train_set), config),
        "working_set": len(train_set),
        "eval_s": t2 - t1,
        "queries": ev.query_count,
        "expected_queries": sum(len(ds) for ds in tests.values()),
        "gallery_per_domain": [len(ds) - 1 for ds in tests.values()],
        "map_at_r": ev.average.map_at_r,
        "digest": report.model.checksum(),
    }


def train_check(rec: dict, work: Path) -> list:
    problems = _check_map(rec["map_at_r"])
    if rec["queries"] != rec["expected_queries"]:
        problems.append(
            f"query_count {rec['queries']} != generated {rec['expected_queries']}"
        )
    return problems


# -- cli_eval -------------------------------------------------------------------


def _cli(argv) -> int:
    with redirect_stdout(StringIO()):
        return cli.main([str(a) for a in argv])


def cli_setup(workload: str, seed: int, work: Path) -> dict:
    """`gen-data` and `train` at the reference spec and the full config."""
    root = work / "setup"
    root.mkdir(parents=True, exist_ok=True)
    spec_path, config_path = root / "spec.json", root / "config.json"
    spec_path.write_text(json.dumps(experiments.default_benchmark_spec(seed=seed).to_dict()))
    config_path.write_text(
        json.dumps(experiments.benchmark_train_config(seed, "full").to_dict())
    )
    timing = {}
    real_train = cli.train

    def timed_train(dataset, config, *args, **kwargs):
        t0 = time.perf_counter()
        report = real_train(dataset, config, *args, **kwargs)
        timing["train_s"] = time.perf_counter() - t0
        timing["samples"] = samples_consumed(len(dataset), config)
        timing["checksum"] = report.model.checksum()
        return report

    cli.train = timed_train
    try:
        codes = [
            _cli(["gen-data", "--spec", spec_path, "--out", root / "data"]),
            _cli(["train", "--data", root / "data", "--config", config_path, "--out", root / "run"]),
        ]
    finally:
        cli.train = real_train
    if codes != [0, 0]:
        raise RuntimeError(f"cli_eval set-up: exit codes {codes}, expected [0, 0]")
    return timing


def checkpoint_checksum(work: Path) -> str:
    model, _config, _epoch = trainer.load_checkpoint(work / "setup" / "run" / "checkpoint.json")
    return model.checksum()


def cli_op(workload: str, seed: int, work: Path) -> dict:
    """gen-data of a fresh dataset, eval on its test CSVs, export-embeddings."""
    checkpoint = work / "setup" / "run" / "checkpoint.json"
    root = work / "op"
    root.mkdir(parents=True, exist_ok=True)
    spec = experiments.default_benchmark_spec(seed=seed, samples_per_class=CLI_SAMPLES_PER_CLASS)
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    data_dir = root / "data"
    codes = {"gen-data": _cli(["gen-data", "--spec", spec_path, "--out", data_dir])}
    t0 = time.perf_counter()
    codes["eval"] = _cli(
        ["eval", "--checkpoint", checkpoint, "--data", data_dir, "--out", root / "eval.json"]
    )
    t1 = time.perf_counter()
    first_test = data_dir / f"test_{spec.domain_transforms[0].name}.csv"
    codes["export-embeddings"] = _cli(
        ["export-embeddings", "--checkpoint", checkpoint, "--data", first_test,
         "--out", root / "embeddings.csv"]
    )
    per_domain = (spec.n_classes_total - spec.n_classes_seen) * spec.samples_per_class
    return {
        "codes": codes,
        "eval_s": t1 - t0,
        "expected_rows": {
            "train.csv": spec.n_classes_seen * spec.samples_per_class,
            **{f"test_{t.name}.csv": per_domain for t in spec.domain_transforms},
        },
        "expected_queries": per_domain * len(spec.domain_transforms),
        "expected_embeddings": per_domain,
        "gallery_per_domain": [per_domain - 1] * len(spec.domain_transforms),
    }


def _data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def cli_check(rec: dict, work: Path) -> list:
    """Exit codes, artifact row counts, the eval report; fills in the
    record's queries, MAP@R and output digest."""
    root = work / "op"
    problems = [f"{cmd} exited {code}" for cmd, code in rec["codes"].items() if code != 0]
    if problems:
        return problems
    for name, rows in rec["expected_rows"].items():
        got = _data_rows(root / "data" / name)
        if got != rows:
            problems.append(f"{name}: {got} rows, expected {rows}")
    report_bytes = (root / "eval.json").read_bytes()
    report = json.loads(report_bytes)
    rec["queries"] = report["query_count"]
    rec["map_at_r"] = report["average"]["map_at_r"]
    if rec["queries"] != rec["expected_queries"]:
        problems.append(f"query_count {rec['queries']} != generated {rec['expected_queries']}")
    problems += _check_map(rec["map_at_r"])
    embed_rows = _data_rows(root / "embeddings.csv")
    if embed_rows != rec["expected_embeddings"]:
        problems.append(
            f"embeddings.csv: {embed_rows} rows, expected {rec['expected_embeddings']}"
        )
    h = hashlib.sha256(report_bytes)
    h.update((root / "embeddings.csv").read_bytes())
    rec["digest"] = h.hexdigest()
    return problems


SETUP = {"train_full": train_setup, "train_c4": train_setup, "cli_eval": cli_setup}
OP = {"train_full": train_op, "train_c4": train_op, "cli_eval": cli_op}
CHECK = {"train_full": train_check, "train_c4": train_check, "cli_eval": cli_check}
