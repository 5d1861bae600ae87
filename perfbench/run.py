"""Benchmark of centerpolar: closed-loop workloads timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 25 --trace 0

The program is imported from `src/` of the checkout the script sits in.
With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it alternates untraced and traced operations on the same
seeds and reports the per-layer metrics.  The last line of standard output
is the result object; the line before it holds every operation's record,
the set-up times and the machine fingerprint, which are also written to
`.perfbench/results/`.  The traced run writes its spans to
`.perfbench/spans/`.
"""

from __future__ import annotations

import os

# BLAS threads are pinned to 1 before numpy loads: the program works on small
# matrices from Python loops, and a second BLAS thread on a 2-core machine
# only adds scheduling noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def import_program():
    """Import centerpolar from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "centerpolar" / "__init__.py").is_file():
        raise SystemExit(f"error: no centerpolar package under {src}")
    sys.path.insert(0, str(src))
    import centerpolar

    if Path(centerpolar.__file__).resolve().parent != (src / "centerpolar").resolve():
        raise SystemExit(f"error: centerpolar imported from {centerpolar.__file__}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- provenance ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "none (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_note": "pinned to 1 by the benchmark for steadiness",
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload,
        "workload_seed": seed,
    }


# -- running ------------------------------------------------------------------


def run_child_setups(workload: str, seed: int) -> tuple[list, list]:
    """Set the workload up SETUP_REPEATS times, each in a fresh interpreter
    timed from outside, so imports count; returns (seconds, child reports)."""
    times, infos = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}:\n{proc.stderr}")
        infos.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times, infos


def attempt(wl, workload: str, seed: int, work: Path) -> dict:
    """One operation; an exception or a failed check marks it failed."""
    t0 = time.perf_counter()
    try:
        rec = wl.OP[workload](workload, seed, work)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {"seed": seed, "seconds": time.perf_counter() - t0, "problems": ["exception"]}
    rec["seconds"] = time.perf_counter() - t0
    rec["seed"] = seed
    try:
        rec["problems"] = wl.CHECK[workload](rec, work)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rec["problems"] = ["exception in check"]
    return rec


def rate(records: list, work: str, seconds: str) -> float:
    """Throughput over a run: total work over total seconds."""
    return sum(r[work] for r in records) / sum(r[seconds] for r in records)


class Digests:
    """Output digest per program seed; a repeat of a seed must match."""

    def __init__(self):
        self.seen = {}

    def check(self, rec: dict, label: str) -> None:
        digest = rec.get("digest")
        if digest is None:
            return
        first = self.seen.setdefault(rec["seed"], (digest, label))
        if first[0] != digest:
            rec["problems"].append(
                f"output digest of seed {rec['seed']} differs between {first[1]} and {label}"
            )


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {wl.WORKLOADS}")
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    setup_seed, skipped = wl.op_seed(args.workload, args.seed, "setup")

    if args.setup_child:
        print(json.dumps(wl.SETUP[args.workload](args.workload, setup_seed, work)))
        return 0

    run_problems = []
    details = {"fingerprint": fingerprint(args.workload, args.seed), "trace": args.trace,
               "setup_seed": setup_seed, "seed_candidates_skipped": skipped}
    tracer = tr.Tracer()
    if args.trace:
        with tracer.operation("setup"), tracer.installed():
            setup_infos = [wl.SETUP[args.workload](args.workload, setup_seed, work)]
    else:
        details["setup_runs_s"], setup_infos = run_child_setups(args.workload, setup_seed)
    details["setup_reports"] = setup_infos
    if args.workload == "cli_eval":
        sums = {info["checksum"] for info in setup_infos} | {wl.checkpoint_checksum(work)}
        if len(sums) != 1:
            run_problems.append(f"set-up checkpoints differ across repeats: {sorted(sums)}")

    digests = Digests()
    # warm-up: lazy set-up finishes, and op 0 later repeats its seed
    seeds = [wl.op_seed(args.workload, args.seed, 0)]
    warm = attempt(wl, args.workload, seeds[0][0], work)
    run_problems += [f"warm-up: {p}" for p in warm["problems"]]
    digests.check(warm, "warm-up")

    untraced, traced = [], []
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < args.seconds:
        if i == len(seeds):
            seeds.append(wl.op_seed(args.workload, args.seed, i))
        s = seeds[i][0]
        rec = attempt(wl, args.workload, s, work)
        digests.check(rec, "untraced")
        untraced.append(rec)
        if args.trace:
            with tracer.operation(i), tracer.installed():
                rec = attempt(wl, args.workload, s, work)
            rec["op"] = i
            digests.check(rec, "traced")
            traced.append(rec)
        i += 1

    ops = untraced + traced
    details["seed_candidates_skipped"] += sum(n for _s, n in seeds)
    for rec in ops:
        for p in rec["problems"]:
            print(f"check failed: op seed {rec['seed']}: {p}", file=sys.stderr)
    for p in run_problems:
        print(f"check failed: {p}", file=sys.stderr)
    failed = sum(1 for rec in ops if rec["problems"])
    ok = [rec for rec in untraced if not rec["problems"]]
    ok_traced = [rec for rec in traced if not rec["problems"]]
    if not ok or (args.trace and not ok_traced):
        raise SystemExit("error: no operation succeeded")

    if args.trace:
        values = tr.layer_metrics(tracer, [rec["op"] for rec in ok_traced], "setup")
        zero = [name for name in wl.HEAVY[args.workload] if not values.get(name)]
        if zero:
            raise SystemExit(
                f"error: traced run recorded no work for heavy layers of {args.workload}: {zero}"
            )
        values["trace.run_s"] = median(rec["seconds"] for rec in ok_traced)
        values["trace.untraced_run_s"] = median(rec["seconds"] for rec in ok)
        values["trace.overhead"] = values["trace.run_s"] / values["trace.untraced_run_s"] - 1.0
        declared = bench["per_layer"]
    else:
        # cli_eval trains only while it is set up
        trains = setup_infos if args.workload == "cli_eval" else ok
        values = {
            "setup_s": median(details["setup_runs_s"]),
            "run_s": median(rec["seconds"] for rec in ok),
            "train_samples_per_s": rate(trains, "samples", "train_s"),
            "eval_queries_per_s": rate(ok, "queries", "eval_s"),
            "map_at_r": mean(rec["map_at_r"] for rec in ok),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_op_share": (len(ops) - failed) / len(ops),
        }
        declared = bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: no value measured for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    details.update(ops=ops, warm_up=warm, run_problems=run_problems)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({**details, "metrics": metrics}, indent=1))
    if args.trace:
        spans = WORK / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans / f"{stem}.jsonl")
    print(json.dumps(details, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0 and not run_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
