"""Computed counts of the traced run repeat exactly.

Runs the traced benchmark twice per workload with the same seed and
requires every count metric to be identical, so a later change can rest
a claim on a count named beforehand.  Run from the repository root:

    python3 -m pytest perfbench/test_counts.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]


def traced_result(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_counts_repeat_exactly(workload):
    first = traced_result(workload, seed=7)
    second = traced_result(workload, seed=7)
    counts = {name: first["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNT_METRICS}
    assert any(counts.values())
