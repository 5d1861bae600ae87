"""The experiment scripts end to end, each in its own interpreter."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import child_env

from centerpolar import experiments
from centerpolar.experiments import run_ablation_grid, run_lambda_sweep
from centerpolar.trainer import ABLATIONS

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


@pytest.mark.parametrize("lambdas", [["0.5", "0.5"], ["0", "0.25", "-0"]])
def test_lambda_sweep_rejects_a_repeated_lambda_before_the_grid(lambdas):
    proc = run_script("lambda_sweep.py", "--seeds", "1", "--epochs", "1", "--lambdas", *lambdas)
    assert proc.returncode == 2
    assert f"grid cell {float(lambdas[-1])!r} is repeated" in proc.stderr
    assert "lambda=" not in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "lambdas, match",
    [
        ((0.5, 0.5), "is repeated"),
        ((0.0, 0.25, -0.0), "is repeated"),
        ((0.5, -3.0), "lambda: must be >= 0, got -3.0"),
    ],
)
def test_repeated_grid_cell_rejected_before_any_cell_trains(monkeypatch, lambdas, match):
    def no_run(*args):
        raise AssertionError("a cell ran before the grid was checked")

    monkeypatch.setattr(experiments, "run_benchmark", no_run)
    with pytest.raises(ValueError, match=match):
        run_lambda_sweep(range(1), lambdas=lambdas)


def test_every_grid_cell_runs_every_seed_of_a_one_pass_iterator(monkeypatch):
    def seed_as_score(spec, config):
        return {"map_at_r": float(config.seed)}

    monkeypatch.setattr(experiments, "run_benchmark", seed_as_score)
    grid = run_ablation_grid(iter(range(2)))
    assert grid == {ablation: [0.0, 1.0] for ablation in ABLATIONS}


@pytest.mark.parametrize("name", ["run_ablation.py", "lambda_sweep.py"])
def test_script_rejects_an_out_that_is_a_directory_before_the_grid(tmp_path, name):
    proc = run_script(name, "--seeds", "1", "--epochs", "1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert f"--out {tmp_path} is a directory" in proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_script_makes_the_folder_of_out(tmp_path):
    out = tmp_path / "new" / "curve.json"
    proc = run_script(
        "lambda_sweep.py", "--seeds", "1", "--epochs", "1", "--lambdas", "0.75", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    assert list(json.loads(out.read_text())) == ["0.75"]
    assert proc.stdout.splitlines()[-1] == f"wrote {out}"


@pytest.mark.parametrize(
    "name, extra, heads",
    [
        ("run_ablation.py", [], ["baseline ", "c4_only  ", "c3e_only ", "full     "]),
        ("lambda_sweep.py", ["--lambdas", "0", "0.75"], ["lambda=0    ", "lambda=0.75 "]),
    ],
)
def test_script_prints_one_line_per_cell(name, extra, heads):
    proc = run_script(name, "--seeds", "2", "--epochs", "1", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(heads)
    for line, head in zip(lines, heads):
        # `<head> mean=<mean>  <score> <score>`, each to four places
        number = r"(\d\.\d{4})"
        match = re.fullmatch(f"{re.escape(head)} mean={number}  {number} {number}", line)
        assert match, line
        mean, *scores = map(float, match.groups())
        assert abs(mean - sum(scores) / 2) <= 1e-4
