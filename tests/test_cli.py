"""End-to-end CLI runs in temp directories, exit codes, manifests."""

import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import centerpolar
from centerpolar import cli, schema
from centerpolar.cli import main
from centerpolar.data import load_csv
from centerpolar.encoder import EncoderModel
from centerpolar.experiments import default_benchmark_spec
from centerpolar.trainer import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint
from csv_oracle import oracle_write_csv

MANIFEST_KEYS = {
    "command",
    "argv",
    "resolved_config",
    "seed",
    "artifacts",
    "input_sha256",
    "started_at",
    "finished_at",
}


def spec_dict(**overrides):
    d = {
        "n_classes_total": 4,
        "n_classes_seen": 2,
        "samples_per_class": 5,
        "input_dim": 4,
        "class_separation": 2.0,
        "intra_std": 0.1,
        "domain_transforms": [
            {"name": "near"},
            {"name": "rot", "rotation_seed": 11, "scale": 1.2},
        ],
        "seed": 0,
    }
    d.update(overrides)
    return d


def train_config_dict(**overrides):
    d = {
        "total_epochs": 2,
        "batch_size": 8,
        "embed_dim": 4,
        "hidden_dim": 8,
        "eval_every": 1,
        "expansion": {"iterations_te": 2, "step_size": 0.01, "expansion_epochs": [1]},
    }
    d.update(overrides)
    return d


def checkpoint_dict(config=TrainConfig(embed_dim=4, hidden_dim=8), **overrides):
    # layers built from the config it writes, for the 4-dim spec_dict() data
    model = EncoderModel.default(4, config.embed_dim, config.hidden_dim)
    d = schema.to_dict(Checkpoint(config, 1, config.seed, model.records()))
    d.update(overrides)
    return d


def layers_for(**dims):
    # the layers of checkpoint_dict() for a config of other sizes
    return checkpoint_dict(TrainConfig(**dims))["layers"]


def checkpoint_with_layer(**fields):
    # checkpoint_dict() with fields of its first layer replaced
    d = checkpoint_dict()
    d["layers"][0].update(fields)
    return d


def checkpoint_without_layer_key(key):
    # checkpoint_dict() with one key of its first layer removed
    d = checkpoint_dict()
    del d["layers"][0][key]
    return d


def write_wider_test_csv(data_dir):
    # test_near.csv with one more feature column, as domain "wide"
    header, *rows = (data_dir / "test_near.csv").read_text().splitlines()
    rows = [row.replace(",near,", ",wide,") + ",0.5" for row in rows]
    (data_dir / "test_wide.csv").write_text("\n".join([header + ",f4", *rows]) + "\n")


@pytest.fixture
def data_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_dict()))
    out = tmp_path / "data"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_dir(tmp_path, data_dir):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(train_config_dict()))
    out = tmp_path / "run"
    rc = main(
        ["train", "--data", str(data_dir), "--config", str(cfg_path), "--out", str(out)]
    )
    assert rc == 0
    return out


class TestGenData:
    def test_writes_datasets_and_manifest(self, tmp_path, data_dir):
        assert (data_dir / "train.csv").exists()
        assert (data_dir / "test_near.csv").exists()
        assert (data_dir / "test_rot.csv").exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 0
        assert str(tmp_path / "spec.json") in manifest["input_sha256"]
        assert set(manifest["artifacts"]) == {"train", "test_near", "test_rot"}
        assert len(load_csv(data_dir / "train.csv")) == 10

    def test_rerun_byte_identical(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict()))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(a)]) == 0
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(b)]) == 0
        for name in ("train.csv", "test_near.csv", "test_rot.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_reference_spec_bytes_pinned(self, tmp_path):
        # the Philox streams, their draw order and the CSV format, across commits
        spec_path = tmp_path / "spec.json"
        spec = default_benchmark_spec(seed=0, samples_per_class=20)
        spec_path.write_text(json.dumps(spec.to_dict()))
        out = tmp_path / "out"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
        assert digests == {
            "train.csv": "21cc2dec46e2a310a386f9c40256ae0fbdc04eb08f48db3a4068f667c0e63230",
            "test_tilt_up.csv": "e56e8a1f25db3ec093a148dafbc019345ca56d6ba8b9519bfd98da7ddb17bc94",
            "test_tilt_down.csv": "e62a348cd951047d96badda12db6f4322fe0256d4aed8009ec17d0576dd89ea3",
            "test_shift.csv": "2f63bb9ce8f2243a3e9a1578e711e54c65fa52e6d49ab1ef2e1a869119656192",
        }

    def test_missing_spec_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", "/tmp/x"])
        assert exc.value.code == 2

    def test_missing_spec_file(self, tmp_path, capsys):
        rc = main(["gen-data", "--spec", str(tmp_path / "no.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{broken")
        rc = main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_infeasible_spec_is_runtime_failure(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                spec_dict(
                    n_classes_total=50,
                    n_classes_seen=25,
                    input_dim=2,
                    domain_transforms=[],
                )
            )
        )
        rc = main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "prototypes" in capsys.readouterr().err


class TestTrain:
    def test_writes_artifacts(self, run_dir):
        assert (run_dir / "checkpoint.json").exists()
        report = json.loads((run_dir / "report.json").read_text())
        assert report["config"]["total_epochs"] == 2
        assert len(report["epoch_losses"]) == 2
        assert report["eval_snapshots"]  # test domains were present
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS | {"call_counts"}
        assert manifest["command"] == "train"
        model, config, epoch = load_checkpoint(run_dir / "checkpoint.json")
        assert epoch == 2
        assert config.total_epochs == 2

    def test_rerun_byte_identical(self, tmp_path, data_dir):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(train_config_dict()))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(
                ["train", "--data", str(data_dir), "--config", str(cfg_path), "--out", str(out)]
            )
            assert rc == 0
            outs.append(out)
        a, b = outs
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_ablation_alias_and_counts(self, tmp_path, data_dir):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(train_config_dict()))
        out = tmp_path / "run_c3e"
        rc = main(
            [
                "train",
                "--data",
                str(data_dir),
                "--config",
                str(cfg_path),
                "--ablation",
                "c3e",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["ablation"] == "c3e_only"
        assert manifest["call_counts"]["loss_dis"] == 0
        assert manifest["call_counts"]["loss_c4"] == 0
        assert manifest["call_counts"]["expand_batch"] == 1
        # 10 train samples x 2 iterations x 1 round of objective evaluations
        assert manifest["call_counts"]["loss_c3e"] == 10 * 2 * 1

    def test_flags_override_config_file(self, tmp_path, data_dir):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(train_config_dict(seed=3, lr_theta=1e-3)))
        out = tmp_path / "run_flags"
        rc = main(
            [
                "train",
                "--data",
                str(data_dir),
                "--config",
                str(cfg_path),
                "--seed",
                "7",
                "--lr-theta",
                "5e-4",
                "--step-size",
                "0.02",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert resolved["seed"] == 7
        assert resolved["lr_theta"] == 5e-4
        assert resolved["expansion"]["step_size"] == 0.02
        assert resolved["embed_dim"] == 4  # JSON value survives when no flag given
        assert resolved["eval_every"] == 1

    def test_dump_trajectories(self, tmp_path, data_dir):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(train_config_dict()))
        out = tmp_path / "run_traj"
        traj_dir = tmp_path / "traj"
        rc = main(
            [
                "train",
                "--data",
                str(data_dir),
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--dump-trajectories",
                str(traj_dir),
            ]
        )
        assert rc == 0
        lines = (traj_dir / "trajectories.csv").read_text().strip().splitlines()
        assert lines[0] == "sample_id,iter,d_geo,d_euclid,loss"
        # 10 train samples, one scheduled round, iterations 0..2 inclusive
        assert len(lines) == 1 + 10 * 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "trajectories" in manifest["artifacts"]

    def test_missing_data_dir(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "train.csv" in capsys.readouterr().err

    def test_malformed_train_csv_is_exit_2(self, tmp_path, data_dir, capsys):
        (data_dir / "train.csv").write_text("garbage\n")
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("[1, 2]")
        rc = main(
            ["train", "--data", str(data_dir), "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_unknown_config_field(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(train_config_dict(momentum=0.9)))
        rc = main(
            ["train", "--data", str(data_dir), "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "momentum" in capsys.readouterr().err

    def test_test_csv_width_checked_before_training(self, tmp_path, data_dir, capsys, monkeypatch):
        # a width-5 test file next to the width-4 train.csv
        write_wider_test_csv(data_dir)
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "o"
        rc = main(["train", "--data", str(data_dir), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{data_dir / 'test_wide.csv'}: domain 'wide' has 5 features" in err
        assert f"but {data_dir / 'train.csv'} has 4" in err
        assert not out.exists()

    def test_non_finite_flag_is_exit_2(self, tmp_path, data_dir, capsys):
        out = tmp_path / "o"
        rc = main(["train", "--data", str(data_dir), "--out", str(out), "--lr-theta", "inf"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "lr_theta: expected a finite number, got inf" in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_exit_code(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(train_config_dict(lr_theta=1e160, ablation="c4_only")))
        rc = main(
            ["train", "--data", str(data_dir), "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_writes_report_and_manifest(self, tmp_path, data_dir, run_dir, capsys):
        out_path = tmp_path / "eval" / "report.json"
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--data",
                str(data_dir),
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert set(report["domains"]) == {"near", "rot"}
        assert report["metric"] == "euclidean"
        manifest = json.loads((tmp_path / "eval" / "report.json.manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command"] == "eval"
        assert "average" in capsys.readouterr().out

    def test_geodesic_metric_flag(self, tmp_path, data_dir, run_dir):
        out_path = tmp_path / "geo.json"
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--data",
                str(data_dir),
                "--out",
                str(out_path),
                "--metric",
                "geodesic",
            ]
        )
        assert rc == 0
        assert json.loads(out_path.read_text())["metric"] == "geodesic"

    def test_groups_test_rows_by_domain_tag(self, tmp_path, data_dir, run_dir, capsys):
        # test_a holds all of near and half of rot, test_b the rest of rot and
        # a copy of near tagged echo: ids overlap across domains only
        header, *near = (data_dir / "test_near.csv").read_text().splitlines()
        _, *rot = (data_dir / "test_rot.csv").read_text().splitlines()
        echo = [line.replace(",near,", ",echo,") for line in near]
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "train.csv").write_bytes((data_dir / "train.csv").read_bytes())
        half = len(rot) // 2
        (mixed / "test_a.csv").write_text("\n".join([header, *near, *rot[:half]]) + "\n")
        (mixed / "test_b.csv").write_text("\n".join([header, *echo, *rot[half:]]) + "\n")
        out_path = tmp_path / "mixed.json"
        argv = ["eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--out", str(out_path)]
        assert main(argv + ["--data", str(mixed)]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == ["near", "rot", "echo", "average"]
        report = json.loads(out_path.read_text())
        assert main(argv[:-1] + [str(tmp_path / "plain.json"), "--data", str(data_dir)]) == 0
        plain = json.loads((tmp_path / "plain.json").read_text())
        assert report["domains"] == {**plain["domains"], "echo": plain["domains"]["near"]}

    @pytest.mark.parametrize(
        "train_csv", ["garbage,\x00\n1,2\n", None], ids=["garbage", "missing"]
    )
    def test_reads_only_the_test_csvs(self, tmp_path, data_dir, run_dir, train_csv):
        # eval needs no train.csv: a broken or missing one changes nothing
        tests_only = tmp_path / "tests_only"
        tests_only.mkdir()
        for path in data_dir.glob("test_*.csv"):
            (tests_only / path.name).write_bytes(path.read_bytes())
        if train_csv is not None:
            (tests_only / "train.csv").write_text(train_csv)
        ckpt = run_dir / "checkpoint.json"
        out_path = tmp_path / "r.json"
        argv = ["eval", "--checkpoint", str(ckpt), "--out", str(out_path)]
        assert main(argv + ["--data", str(tests_only)]) == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert sorted(manifest["input_sha256"]) == sorted(
            [str(ckpt), str(tests_only / "test_near.csv"), str(tests_only / "test_rot.csv")]
        )
        assert main(argv[:-1] + [str(tmp_path / "plain.json"), "--data", str(data_dir)]) == 0
        assert out_path.read_text() == (tmp_path / "plain.json").read_text()

    def test_test_csv_width_checked_against_the_checkpoint(self, tmp_path, data_dir, run_dir, capsys):
        write_wider_test_csv(data_dir)
        out_path = tmp_path / "r.json"
        argv = ["eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--out", str(out_path)]
        assert main(argv + ["--data", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{data_dir / 'test_wide.csv'}: domain 'wide' has 5 features" in err
        assert "but the checkpoint's encoder has 4" in err
        assert not out_path.exists()

    def test_missing_checkpoint(self, tmp_path, data_dir, capsys):
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(tmp_path / "no.json"),
                "--data",
                str(data_dir),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2

    def test_corrupt_checkpoint(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(bad),
                "--data",
                str(data_dir),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_no_test_domains(self, tmp_path, run_dir, capsys):
        spec_path = tmp_path / "solo_spec.json"
        spec_path.write_text(
            json.dumps(spec_dict(n_classes_seen=4, domain_transforms=[]))
        )
        solo = tmp_path / "solo_data"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(solo)]) == 0
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--data",
                str(solo),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "test_*.csv" in capsys.readouterr().err


class TestExportEmbeddings:
    def test_round_trip(self, tmp_path, data_dir, run_dir):
        out_path = tmp_path / "emb.csv"
        rc = main(
            [
                "export-embeddings",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--data",
                str(data_dir / "test_near.csv"),
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        header = out_path.read_text().splitlines()[0]
        assert header == "id,label,domain,e0,e1,e2,e3"
        back = load_csv(out_path)  # embeddings load under the same schema
        source = load_csv(data_dir / "test_near.csv")
        assert len(back) == len(source)
        model, _cfg, _epoch = load_checkpoint(run_dir / "checkpoint.json")
        expected = model.embed_many(source.features)
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(back.features, expected)
        assert np.array_equal(back.ids, source.ids)
        manifest = json.loads((tmp_path / "emb.csv.manifest.json").read_text())
        assert manifest["command"] == "export-embeddings"
        assert manifest["resolved_config"] == {"embed_dim": 4}

    def test_reference_spec_bytes_pinned(self, tmp_path):
        # the export's row format, across commits, on an untrained seed-0 encoder
        spec = default_benchmark_spec(seed=0, samples_per_class=20)
        spec_path, data = tmp_path / "spec.json", tmp_path / "data"
        spec_path.write_text(json.dumps(spec.to_dict()))
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(data)]) == 0
        config = TrainConfig()
        model = EncoderModel.default(spec.input_dim, config.embed_dim, config.hidden_dim, config.seed)
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint, model, config, 0)
        out, oracle = tmp_path / "emb.csv", tmp_path / "oracle.csv"
        source = data / "test_tilt_up.csv"
        argv = ["export-embeddings", "--checkpoint", str(checkpoint), "--data", str(source)]
        assert main(argv + ["--out", str(out)]) == 0
        assert (
            hashlib.sha256(out.read_bytes()).hexdigest()
            == "e26622ce24d7b403522a87c7deb9e58d7db4362ede88279f948b95e7d52510f0"
        )
        ds = load_csv(source)
        header = ["id", "label", "domain", *(f"e{i}" for i in range(config.embed_dim))]
        oracle_write_csv(
            oracle, header, ds.ids, ds.labels, ds.domains, model.embed_many(ds.features)
        )
        assert out.read_bytes() == oracle.read_bytes()

    def test_empty_input(self, tmp_path, run_dir, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("id,label,domain,f0,f1,f2,f3\n")
        out_path = tmp_path / "emb.csv"
        rc = main(
            [
                "export-embeddings",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--data",
                str(src),
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        assert out_path.read_text().strip() == "id,label,domain,e0,e1,e2,e3"
        assert "wrote 0 embeddings" in capsys.readouterr().out

    def test_dim_mismatch_names_both(self, tmp_path, run_dir, capsys):
        src = tmp_path / "narrow.csv"
        src.write_text("id,label,domain,f0,f1,f2\n0,0,a,1.0,2.0,3.0\n")
        rc = main(
            [
                "export-embeddings",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--data",
                str(src),
                "--out",
                str(tmp_path / "emb.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "3" in err and "4" in err


def test_module_entry_point(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_dict()))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "centerpolar",
            "gen-data",
            "--spec",
            str(spec_path),
            "--out",
            str(tmp_path / "d"),
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "train.csv").exists()
    assert "train: 10 samples" in proc.stdout
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["argv"] == [
        "centerpolar", "gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")
    ]


def test_manifest_records_the_arguments_main_parsed(tmp_path, data_dir):
    # not the host process's sys.argv
    out = tmp_path / "run"
    argv = ["train", "--data", str(data_dir), "--out", str(out), "--seed", "3"]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["argv"] == ["centerpolar", *argv]
    assert manifest["command"] == "train"


@pytest.mark.parametrize(
    "command", ["gen-data", "train", "train-dump", "eval", "export-embeddings"]
)
def test_output_path_through_an_existing_file_is_exit_2(
    tmp_path, data_dir, run_dir, capsys, command
):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    spec_path = tmp_path / "spec.json"  # written by the data_dir fixture
    ckpt = str(run_dir / "checkpoint.json")
    out = tmp_path / "fresh"
    argv = {
        "gen-data": ["gen-data", "--spec", str(spec_path), "--out", str(blocker)],
        "train": ["train", "--data", str(data_dir), "--out", str(blocker)],
        "train-dump": ["train", "--data", str(data_dir), "--out", str(out)]
        + ["--dump-trajectories", str(blocker)],
        "eval": ["eval", "--checkpoint", ckpt, "--data", str(data_dir)]
        + ["--out", str(blocker / "report.json")],
        "export-embeddings": ["export-embeddings", "--checkpoint", ckpt]
        + ["--data", str(data_dir / "test_near.csv"), "--out", str(blocker / "e.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(blocker) in err
    # the trajectory directory is made before training, so nothing is written
    assert not out.exists() or not any(out.iterdir())


def child_env(**overrides):
    # the child imports the same package as this process, installed or not
    src = str(Path(centerpolar.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), **overrides}


def test_train_byte_identical_across_blas_threads(tmp_path):
    # large enough that the encoder's matrix products reach the threaded BLAS kernels
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_dict(samples_per_class=200, input_dim=16)))
    data = tmp_path / "data"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(data)]) == 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(train_config_dict(embed_dim=32, hidden_dim=64)))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "centerpolar", "train", "--data", str(data)]
            + ["--config", str(cfg_path), "--out", str(out)]
            + ["--dump-trajectories", str(out / "traj")],
            capture_output=True,
            text=True,
            env=child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a, b = outs
    # expansion runs stacked BLAS calls too, so its trajectories are compared
    for name in ("checkpoint.json", "report.json", "traj/trajectories.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, content, key",
    [
        ("train", {"total_epochs": "3"}, "total_epochs"),
        ("train", {"loss": [1, 2]}, "loss"),
        ("train", {"total_epochs": 1.5}, "total_epochs"),
        ("train", {"batch_size": 8.0}, "batch_size"),
        ("train", {"loss": {"lamda": 0.1}}, "loss.lamda"),
        ("gen-data", [1], "BenchmarkSpec"),
        ("gen-data", spec_dict(nuisance_sd=1.0), "nuisance_sd"),
        ("gen-data", spec_dict(samples_per_class=2.9), "samples_per_class"),
        (
            "gen-data",
            spec_dict(domain_transforms=[{"name": "near", "scael": 2.0}]),
            "domain_transforms[0].scael",
        ),
        ("eval", 1, "checkpoint"),
        ("eval", [1], "checkpoint"),
        ("eval", checkpoint_dict(epoch=[1]), "epoch"),
        ("eval", checkpoint_dict(epoch=1.7), "epoch"),
        ("eval", checkpoint_dict(epoch=-5), "epoch"),
        ("eval", checkpoint_dict(note="hi"), "note"),
        ("eval", checkpoint_dict(seed="abc"), "seed"),
        ("eval", checkpoint_dict(seed=1), "seed"),
        ("eval", checkpoint_dict(layers=layers_for(embed_dim=5, hidden_dim=8)), "embed_dim"),
        ("eval", checkpoint_dict(layers=layers_for(embed_dim=4, hidden_dim=9)), "hidden_dim"),
        ("eval", checkpoint_with_layer(scale=2.0), "layers[0].scale"),
        ("eval", checkpoint_with_layer(weight_shape=[8.5, 4]), "layers[0].weight_shape"),
        (
            "eval",
            checkpoint_with_layer(
                bias=base64.b64encode(np.full(8, np.nan).astype("<f8").tobytes()).decode()
            ),
            "layers[0].bias",
        ),
        # newer cases go last, so the ids of the earlier ones stay stable
        ("train", {"loss": {"lambda": -1}}, "loss"),
        (
            "gen-data",
            spec_dict(domain_transforms=[{"name": "near", "scale": -1}]),
            "domain_transforms[0]",
        ),
        ("eval", checkpoint_with_layer(weight_shape=[2, 3, 4]), "layers[0].weight_shape"),
        ("eval", checkpoint_dict(layers={}), "layers"),
        ("eval", checkpoint_without_layer_key("bias"), "layers[0].bias"),
        ("eval", checkpoint_with_layer(activation="sigmoid"), "layers[0].activation"),
        (
            "eval",
            checkpoint_with_layer(bias=base64.b64encode(np.zeros(7).astype("<f8").tobytes()).decode()),
            "layers[0].bias",
        ),
        ("train", {"adam_eps": float("inf")}, "adam_eps: expected a finite number"),
        ("train", {"loss": {"lambda": float("inf")}}, "loss: lambda: expected a finite number"),
        ("train", {"expansion": {"step_size": float("nan")}}, "expansion: step_size: expected"),
        ("gen-data", spec_dict(nuisance_std=float("nan")), "nuisance_std: expected a finite"),
        ("gen-data", spec_dict(class_separation=float("inf")), "class_separation: expected"),
        (
            "gen-data",
            spec_dict(domain_transforms=[{"name": "near", "rotation_angles": [float("inf")]}]),
            "domain_transforms[0]: rotation_angles[0]: expected a finite number",
        ),
    ],
)
def test_malformed_input_file_is_exit_2(tmp_path, data_dir, capsys, command, content, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", "--data", str(data_dir), "--config", str(path), "--out", out]
    elif command == "eval":
        argv = ["eval", "--checkpoint", str(path), "--data", str(data_dir), "--out", out]
    else:
        argv = ["gen-data", "--spec", str(path), "--out", out]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert key in err
