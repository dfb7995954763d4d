"""CLI contract tests: exit codes, RESULT lines, stage ordering, determinism."""

import json
from dataclasses import fields

import numpy as np
import pytest

from betadrop import cli
from betadrop.checkpoint import load_checkpoint, save_checkpoint
from betadrop.cli import _train_config, main
from betadrop.config import validate_config
from betadrop.data import write_idx
from betadrop.layers import build_lenet5_caffe, build_mlp
from betadrop.reporting import parse_report_csv
from betadrop.training import TrainConfig

from helpers import WRONG_TYPED_MANIFESTS, edit_manifest, to_format_version_1


def write_config(tmp_path, **overrides):
    cfg = {
        "model": {"arch": "mlp", "dims": [20, 16, 2], "seed": 0},
        "data": {"kind": "planted", "n": 1200, "d": 20, "k_signal": 4,
                 "val_fraction": 0.15, "seed": 0},
        "train": {
            "batch_size": 100,
            "pretrain_epochs": 4,
            "finetune_epochs": 70,
            "lr_variational": 0.02,
            "seed": 0,
        },
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def last_result(capsys):
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("RESULT")]
    assert lines, "no RESULT line printed"
    return lines[-1]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert main(["pretrain", "--config", "x.json", "--frobnicate"]) == 1

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": {"arch": }}')
        assert main(["pretrain", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"arch": "mlp", "dimz": [4, 2]}}))
        assert main(["pretrain", "--config", str(cfg)]) == 1
        assert "dimz" in capsys.readouterr().err

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg)]) == 2

    def test_output_narrower_than_classes_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"dims": [20, 16, 1]})
        assert main(["pretrain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "1 outputs" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "old,new,named",
        [
            (b'"name":"L0.w"', b'"name":"L0.v"', "'L0.w'"),
            (b'"kind":"dense",', b"", "'kind'"),
        ],
        ids=["renamed-array", "missing-layer-key"],
    )
    def test_checkpoint_missing_name_is_runtime_error(self, tmp_path, capsys, old, new,
                                                      named):
        cfg = write_config(tmp_path)
        path = tmp_path / "broken.ckpt"
        save_checkpoint(build_mlp((20, 16, 2), seed=0), path)
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        assert main(["evaluate", "--config", str(cfg), "--init", str(path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(WRONG_TYPED_MANIFESTS))
    def test_checkpoint_wrong_typed_value_is_runtime_error(self, tmp_path, capsys, case):
        edit, named = WRONG_TYPED_MANIFESTS[case]
        cfg = write_config(tmp_path)
        path = tmp_path / "broken.ckpt"
        save_checkpoint(build_mlp((20, 16, 2), seed=0), path)
        edit_manifest(path, edit)
        assert main(["evaluate", "--config", str(cfg), "--init", str(path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_version_1_checkpoint_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        path = tmp_path / "old.ckpt"
        save_checkpoint(build_mlp((20, 16, 2), seed=0), path)
        edit_manifest(path, to_format_version_1)
        assert main(["evaluate", "--config", str(cfg), "--init", str(path)]) == 2
        err = capsys.readouterr().err
        assert "format version 1 " in err and "Traceback" not in err

    def test_help_config_lists_defaults(self, capsys):
        assert main(["--help-config"]) == 0
        out = capsys.readouterr().out
        assert "kl_scales" in out and "threshold" in out

    def test_lenet5_kl_multiplier_convention(self):
        cfg = validate_config({"model": {"arch": "lenet5_caffe"}})
        assert _train_config(cfg).per_layer_kl_multipliers == (20.0, 8.0, 1.0, 1.0)
        explicit = validate_config(
            {"model": {"arch": "lenet5_caffe"},
             "train": {"per_layer_kl_multipliers": [1, 1, 1, 1]}}
        )
        assert _train_config(explicit).per_layer_kl_multipliers == (1, 1, 1, 1)

    @pytest.mark.parametrize("command,stage,trainer", [
        ("train-bb", "pretrained", "finetune_bb"), ("train-dbb", "bb_pruned", "finetune_dbb"),
    ])
    def test_lenet5_checkpoint_sets_kl_multipliers(self, tmp_path, monkeypatch, command, stage,
                                                   trainer):
        # the config leaves model.arch at its default; the checkpoint is lenet5_caffe
        rng = np.random.default_rng(0)
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(rng.integers(0, 256, (20, 28, 28), dtype=np.uint8), rng.integers(0, 10, 20),
                  images, labels)
        net = build_lenet5_caffe()
        net.meta["stage"] = stage
        save_checkpoint(net, tmp_path / "in.ckpt")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "data": {"kind": "idx", "images": str(images), "labels": str(labels),
                     "val_fraction": 0.5},
            "train": {"batch_size": 10, "finetune_epochs": 1},
            "output_dir": str(tmp_path / "run"),
        }))
        seen = []
        real = getattr(cli, trainer)

        def spy(net, data, config, **kwargs):
            seen.append(config.per_layer_kl_multipliers)
            return real(net, data, config, **kwargs)

        monkeypatch.setattr(cli, trainer, spy)
        assert main([command, "--config", str(cfg), "--init", str(tmp_path / "in.ckpt")]) == 0
        assert seen == [(20.0, 8.0, 1.0, 1.0)]


# config key -> (GateState field, a non-default value)
GATE_OPTIONS = {
    "alpha_over_k": ("alpha_over_k", 0.5),
    "eps_gate": ("eps", 0.2),
    "momentum": ("momentum", 0.1),
    "sigma_floor": ("sigma_floor", 0.5),
}


class TestConfigHomes:
    @pytest.mark.parametrize("key", sorted(GATE_OPTIONS))
    def test_gate_option_under_train_is_unknown_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, train={key: GATE_OPTIONS[key][1]})
        assert main(["pretrain", "--config", str(cfg)]) == 1
        assert f"unknown config key train.{key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(GATE_OPTIONS))
    def test_gate_option_under_model_reaches_every_gate(self, tmp_path, key):
        name, value = GATE_OPTIONS[key]
        cfg = write_config(tmp_path, model={key: value}, train={"pretrain_epochs": 1})
        assert main(["pretrain", "--config", str(cfg)]) == 0
        net = load_checkpoint(tmp_path / "run" / "pretrained.ckpt")
        assert len(net.gates()) == 2
        assert all(getattr(g, name) == value for g in net.gates())

    @pytest.mark.parametrize("section,key,value", [
        ("model", "momentum", 1.5), ("model", "sigma_floor", -1.0), ("train", "logit_eps", 0.7),
    ])
    def test_out_of_range_setting_is_runtime_error(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path, **{section: {key: value}})
        assert main(["pretrain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_train_section_fills_train_config_by_field_name(self):
        defaults = validate_config({})["train"]
        del defaults["pretrain_epochs"], defaults["finetune_epochs"]
        assert defaults == {f.name: f.default for f in fields(TrainConfig)}
        custom = {"batch_size": 7, "lr_variational": 0.02, "lr_weights": 0.003,
                  "kl_scale": 2.0, "per_layer_kl_multipliers": [1.0, 2.0], "tau": 0.3,
                  "rho_var": 1.5, "weight_decay": 0.0, "seed": 9, "logit_eps": 1e-5}
        assert custom.keys() == defaults.keys()
        tconf = _train_config(validate_config({"model": {"arch": "mlp"}, "train": custom}))
        assert {key: getattr(tconf, key) for key in custom} == {
            **custom, "per_layer_kl_multipliers": (1.0, 2.0)}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """pretrain -> train-bb -> prune once for the read-only stage tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp_path)
    assert main(["pretrain", "--config", str(cfg)]) == 0
    assert main(["train-bb", "--config", str(cfg)]) == 0
    assert main(["prune", "--config", str(cfg)]) == 0
    return tmp_path, cfg


class TestPipeline:
    def test_stage_files_written(self, pipeline):
        tmp_path, _ = pipeline
        run = tmp_path / "run"
        for name in ("pretrained.ckpt", "bb.ckpt", "bb_pruned.ckpt"):
            assert (run / name).exists()

    def test_prune_recovers_planted_signal(self, pipeline):
        tmp_path, _ = pipeline
        net = load_checkpoint(tmp_path / "run" / "bb_pruned.ckpt")
        assert net.meta["stage"] == "bb_pruned"
        assert net.meta["kept_counts"][0] == 4

    def test_prune_saves_the_kept_counts_of_its_gates(self, tmp_path):
        # 10 of conv2's 50 channels and 100 of the 500 dense inputs fall below
        # the threshold; the 800-wide gate loses the pruned channels' positions
        net = build_lenet5_caffe(seed=0)
        net.layers[1].gate.a_raw.value[:10] = -30.0
        net.layers[3].gate.a_raw.value[::5] = -30.0
        net.meta["stage"] = "bb"
        bb = tmp_path / "bb.ckpt"
        save_checkpoint(net, bb)
        cfg = write_config(tmp_path, model={"arch": "lenet5_caffe"},
                           data={"n": 40, "d": 784})
        assert main(["prune", "--config", str(cfg), "--init", str(bb)]) == 0
        small = load_checkpoint(tmp_path / "run" / "bb_pruned.ckpt")
        assert small.meta["kept_counts"] == [g.k for g in small.gates()] == [20, 40, 640, 400]
        assert "flops_pruned" not in small.meta

    def test_evaluate_result_contract(self, pipeline, capsys):
        _, cfg = pipeline
        assert main(["evaluate", "--config", str(cfg)]) == 0
        line = last_result(capsys)
        assert "error_pct=" in line and "speedup=" in line and "memory_pct=" in line

    def test_train_dbb_requires_pruned_stage(self, pipeline, capsys):
        tmp_path, cfg = pipeline
        rc = main(
            ["train-dbb", "--config", str(cfg), "--init", str(tmp_path / "run" / "bb.ckpt")]
        )
        assert rc == 2
        assert "stage" in capsys.readouterr().err

    def test_train_dbb_then_correlation(self, pipeline, capsys):
        tmp_path, cfg = pipeline
        assert main(["train-dbb", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["analyze-correlation", "--config", str(cfg)]) == 0
        line = last_result(capsys)
        assert "within_corr=" in line and "cross_corr=" in line
        assert (tmp_path / "run" / "gate_correlation_layer0.csv").exists()

    def test_metrics_log_emitted(self, pipeline):
        tmp_path, _ = pipeline
        log = (tmp_path / "run" / "bb_log.csv").read_text().splitlines()
        assert log[0] == "epoch,nll,kl,train_err,test_err,expected_flops"
        assert len(log) == 71  # header + one row per epoch


class TestSweep:
    def test_sweep_emits_one_row_per_scale(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            data={"kind": "planted", "n": 600, "d": 10, "k_signal": 3,
                  "val_fraction": 0.15, "seed": 0},
            model={"arch": "mlp", "dims": [10, 8, 2], "seed": 0},
            train={"batch_size": 60, "pretrain_epochs": 3, "finetune_epochs": 20,
                   "lr_variational": 0.02, "seed": 0},
            sweep={"kl_scales": [1.0, 2.0, 4.0, 6.0, 8.0]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        reports = parse_report_csv(tmp_path / "run" / "sweep.csv")
        assert len(reports) == 5
        assert [r.kl_scale for r in reports] == [1.0, 2.0, 4.0, 6.0, 8.0]
        assert (tmp_path / "run" / "tradeoff.svg").exists()
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 0
        assert "rows=5" in last_result(capsys)


def strip_paths(result_line):
    return " ".join(t for t in result_line.split() if not t.startswith("checkpoint="))


class TestDeterminism:
    def test_same_config_same_result_and_checkpoint(self, tmp_path, capsys):
        lines, blobs = [], []
        for run in ("a", "b"):
            cfg = write_config(
                tmp_path,
                output_dir=str(tmp_path / run),
                train={"batch_size": 100, "pretrain_epochs": 2, "finetune_epochs": 5,
                       "lr_variational": 0.02, "seed": 0},
            )
            assert main(["pretrain", "--config", str(cfg)]) == 0
            assert main(["train-bb", "--config", str(cfg)]) == 0
            lines.append(strip_paths(last_result(capsys)))
            blobs.append((tmp_path / run / "bb.ckpt").read_bytes())
        assert lines[0] == lines[1]
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "s"))
        blobs = []
        for seed in ("1", "2"):
            assert main(["pretrain", "--config", str(cfg), "--seed", seed]) == 0
            blobs.append((tmp_path / "s" / "pretrained.ckpt").read_bytes())
        assert blobs[0] != blobs[1]
