"""The experiment scripts end to end, each in its own interpreter."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


@pytest.mark.parametrize(
    "name, extra, cells",
    [
        ("run_ablation.py", [], ["baseline", "c3e_only", "c4_only", "full"]),
        ("lambda_sweep.py", ["--lambdas", "0", "0.75"], ["0.0", "0.75"]),
    ],
)
def test_script_writes_one_score_per_cell_and_seed(tmp_path, name, extra, cells):
    out = tmp_path / "out.json"
    proc = run_script(name, "--seeds", "1", "--epochs", "1", "--out", str(out), *extra)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())
    assert sorted(results) == cells
    for scores in results.values():
        assert len(scores) == 1 and 0.0 <= scores[0] <= 1.0


@pytest.mark.parametrize("seeds", ["0", "-2"])
@pytest.mark.parametrize("name", ["run_ablation.py", "lambda_sweep.py"])
def test_script_rejects_an_empty_seed_list(name, seeds):
    proc = run_script(name, "--seeds", seeds, "--epochs", "1")
    assert proc.returncode == 2
    assert "--seeds" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, args, value",
    [
        ("lambda_sweep.py", ["--epochs", "1", "--lambdas", "-1"], "-1"),
        ("lambda_sweep.py", ["--epochs", "1", "--lambdas", "0.5", "-3"], "-3"),
        ("lambda_sweep.py", ["--epochs", "-1"], "-1"),
        ("run_ablation.py", ["--epochs", "-1"], "-1"),
        ("run_ablation.py", ["--epochs", "1", "--lam", "-1"], "-1"),
    ],
)
def test_script_rejects_an_invalid_config_flag_before_the_grid(name, args, value):
    proc = run_script(name, "--seeds", "1", *args)
    assert proc.returncode == 2
    assert f"got {value}" in proc.stderr
    assert "Traceback" not in proc.stderr
