"""CLI contract tests: exit codes, RESULT lines, stage ordering, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import betadrop
from betadrop import analysis, cli
from betadrop.checkpoint import load_checkpoint, save_checkpoint
from betadrop.cli import _train_config, main
from betadrop.config import load_config, validate_config
from betadrop.errors import CheckpointError
from betadrop.gates import MODE_DBB
from betadrop.layers import build_lenet5_caffe, build_mlp, forward_eval, shrink
from betadrop.reporting import CSV_HEADER, parse_report_csv
from betadrop.training import TrainConfig

from helpers import (UNFIT_CHECKPOINTS, WRONG_TYPED_MANIFESTS, edit_manifest, to_format_version_1,
                     to_format_version_2, write_idx)


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


# config values of the wrong JSON kind, each with the message it must give
WRONG_KIND_SETTINGS = [
    ("data", "val_fraction", float("nan"), "data.'val_fraction' must be a finite number"),
    ("train", "kl_scale", float("nan"), "train.'kl_scale' must be a finite number"),
    ("train", "tau", float("inf"), "train.'tau' must be a finite number"),
    ("train", "seed", -1, "train.'seed' must be a non-negative integer"),
    ("train", "pretrain_epochs", -1, "'pretrain_epochs' must be a non-negative integer"),
    ("train", "batch_size", True, "'batch_size' must be a non-negative integer"),
    ("model", "dims", [20, -4, 2], "'dims' must be a list of non-negative integers or null"),
    ("data", "n", -5, "data.'n' must be a non-negative integer"),
    ("data", "k_signal", -1, "'k_signal' must be a non-negative integer"),
    ("data", "train_subset", -5, "'train_subset' must be a non-negative integer or null"),
    ("data", "kind", 5, "'kind' must be one of ['idx', 'planted', 'two_cluster'], got 5"),
]


REPORT_HEADER = ",".join(CSV_HEADER) + "\n"


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

    @pytest.mark.parametrize("section,key,value,named", WRONG_KIND_SETTINGS,
                             ids=[f"{section}.{key}" for section, key, _, _ in WRONG_KIND_SETTINGS])
    def test_wrong_kind_config_value_is_usage_error(self, tmp_path, capsys, section, key,
                                                    value, named):
        cfg = write_config(tmp_path, **{section: {key: value}})
        assert main(["pretrain", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert main(["pretrain", "--config", str(tmp_path / "none.json")]) == 1
        err = capsys.readouterr().err
        assert "config file not found" in err and "Traceback" not in err

    def test_mlp_without_dims_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"dims": None})
        assert main(["pretrain", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "model.dims is required for arch=mlp" in err and "Traceback" not in err

    def test_negative_seed_override_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", str(cfg), "--seed", "-3"]) == 1
        assert "--seed must be a non-negative integer, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "sweep", "report"])
    def test_init_on_a_command_that_reads_no_checkpoint_is_usage_error(self, tmp_path, capsys,
                                                                       command):
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg), "--init", str(tmp_path / "none.ckpt")]) == 1
        assert "unrecognized arguments: --init" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
            (b'"shape":[20,16],', b"", "'shape'"),
            (b'"kind":"dense",', b"", "'kind'"),
            (b',"input_shape":[20]', b"", "'input_shape'"),
        ],
        ids=["missing-shape", "missing-layer-key", "missing-input-shape"],
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

    def test_checkpoint_without_manifest_terminator_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        path = tmp_path / "broken.ckpt"
        save_checkpoint(build_mlp((20, 16, 2), seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: blob.index(b"\n")])  # the manifest alone
        assert main(["evaluate", "--config", str(cfg), "--init", str(path)]) == 2
        err = capsys.readouterr().err
        assert "missing manifest terminator" in err and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "select,named",
        [([0, 1, 99], "input_select of layer 0"), (3.5, "input_select of layer 0"),
         ([0, 1], "input_select of layer 0"), ([1, 0, 3], "input_select of layer 0"),
         ([0, 0, 3], "input_select of layer 0"), ([0, 1, 2**70], "malformed checkpoint")],
        ids=["out-of-range", "number", "short", "unsorted", "repeated", "huge"],
    )
    def test_checkpoint_bad_input_select_is_runtime_error(self, tmp_path, capsys, select,
                                                          named):
        # the first layer reads inputs 0, 1 and 3 of the 20 raw values
        cfg = write_config(tmp_path)
        net = shrink(build_mlp((20, 16, 2), seed=0), [np.array([0, 1, 3]), np.arange(16)])
        assert np.array_equal(net.layers[0].input_select, [0, 1, 3])
        path = tmp_path / "broken.ckpt"
        save_checkpoint(net, path)
        edit_manifest(path, lambda m: m["layers"][0].update(input_select=select))
        with pytest.raises(CheckpointError, match=named):
            load_checkpoint(path)
        assert main(["evaluate", "--config", str(cfg), "--init", str(path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("case", ["input-shape-empty", "input-shape-1x30x30", "no-layers",
                                      "conv-last"])
    @pytest.mark.parametrize("command", ["train-bb", "prune", "train-dbb", "evaluate",
                                         "analyze-correlation"])
    def test_checkpoint_whose_layers_do_not_fit_is_runtime_error(self, tmp_path, capsys,
                                                                 command, case):
        write, named = UNFIT_CHECKPOINTS[case]
        path = tmp_path / "unfit.ckpt"
        write(path)
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg), "--init", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("command,stage", [("evaluate", "dbb"), ("train-dbb", "bb_pruned")])
    def test_threshold_that_keeps_no_work_is_runtime_error(self, tmp_path, capsys, command,
                                                           stage):
        # every expected mask is below E[pi] = 0.9 at init; evaluate divided by zero
        net = build_mlp((20, 16, 2), seed=0)
        if stage == "dbb":
            net.set_gate_mode(MODE_DBB)
            for g in net.gates():
                g.update_running_stats(np.random.default_rng(0).normal(size=(8, g.k)))
        net.meta["stage"] = stage
        path = tmp_path / "in.ckpt"
        save_checkpoint(net, path)
        cfg = write_config(tmp_path, data={"kind": "two_cluster", "n": 200},
                           train={"finetune_epochs": 1}, prune={"threshold": 0.95})
        assert main([command, "--config", str(cfg), "--init", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "threshold 0.95 leaves no multiply-accumulate" in err

    @pytest.mark.parametrize("kind", ["two_cluster", "planted"])
    @pytest.mark.parametrize("n,d,named", [(2**50, 20, "Unable to allocate"),
                                           (10, 2**62, "cannot be addressed")],
                             ids=["beyond-memory", "unaddressable"])
    def test_data_size_beyond_memory_is_runtime_error(self, tmp_path, capsys, kind, n, d,
                                                      named):
        # numpy refuses both sizes at once: 2**50 values exceed any address space
        cfg = write_config(tmp_path, data={"kind": kind, "n": n, "d": d})
        assert main(["pretrain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err

    def test_idx_header_beyond_the_file_is_runtime_error(self, tmp_path, capsys):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(np.zeros((4, 2, 10), dtype=np.uint8), np.zeros(4), images, labels)
        blob = bytearray(images.read_bytes())
        blob[4:8] = (-5).to_bytes(4, "big", signed=True)
        images.write_bytes(bytes(blob))
        cfg = write_config(tmp_path, data={"kind": "idx", "images": str(images),
                                           "labels": str(labels)})
        assert main(["pretrain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "header declares" in err and "Traceback" not in err

    def test_idx_file_shorter_than_its_header_is_runtime_error(self, tmp_path, capsys):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(np.zeros((4, 2, 10), dtype=np.uint8), np.zeros(4), images, labels)
        images.write_bytes(images.read_bytes()[:10])  # 10 of the header's 16 bytes
        cfg = write_config(tmp_path, data={"kind": "idx", "images": str(images),
                                           "labels": str(labels)})
        assert main(["pretrain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "header truncated" in err and "Traceback" not in err

    @pytest.mark.parametrize("text,named", [
        ("method,kl,error_pct\n", "unexpected report header"),
        (REPORT_HEADER + "bb,1.0,0.5\n", "line 2: not enough values"),
        (REPORT_HEADER + "bb,abc,0.5,2.0,50.0,4-3\n", "line 2: could not convert string to float"),
        (REPORT_HEADER + "bb,1.0,0.5,0.5,50.0,4-3\n", "line 2: speedup must be >= 1, got 0.5"),
        (REPORT_HEADER + "bb,1.0,nan,2.0,50.0,4-3\n",
         "line 2: error_pct must lie in [0, 100], got nan"),
        (REPORT_HEADER + "bb,1.0,0.5,inf,50.0,4-3\n",
         "line 2: kl_scale and speedup must be finite"),
        (REPORT_HEADER + "bb,1.0,150.0,2.0,50.0,4-3\n",
         "line 2: error_pct must lie in [0, 100], got 150.0"),
        (REPORT_HEADER + "bb&dbb,1.0,0.5,2.0,50.0,4-3\n",
         "line 2: method must be a non-empty run of letters, digits"),
        (None, "no sweep CSV at"),
    ], ids=["header", "short-row", "text-kl-scale", "speedup-below-1", "nan-error",
            "inf-speedup", "error-above-100", "method-outside-the-name-rule", "no-file"])
    def test_malformed_sweep_csv_is_runtime_error(self, tmp_path, capsys, text, named):
        cfg = write_config(tmp_path)
        (tmp_path / "run").mkdir()
        if text is not None:
            (tmp_path / "run" / "sweep.csv").write_text(text)
        assert main(["report", "--config", str(cfg)]) == 2
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

    def test_version_2_checkpoint_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        path = tmp_path / "old.ckpt"
        save_checkpoint(build_mlp((20, 16, 2), seed=0), path)
        edit_manifest(path, to_format_version_2)
        assert main(["evaluate", "--config", str(cfg), "--init", str(path)]) == 2
        err = capsys.readouterr().err
        assert "format version 2 " in err and "Traceback" not in err

    def test_help_config_lists_defaults(self, capsys):
        assert main(["--help-config"]) == 0
        out = capsys.readouterr().out
        assert "kl_scales" in out and "threshold" in out

    def test_lenet5_kl_multiplier_convention(self):
        net = build_lenet5_caffe()
        cfg = validate_config({"model": {"arch": "lenet5_caffe"}})
        assert _train_config(cfg).multipliers_for(net) == (20.0, 8.0, 1.0, 1.0)
        explicit = validate_config(
            {"model": {"arch": "lenet5_caffe"},
             "train": {"per_layer_kl_multipliers": [1, 1, 1, 1]}}
        )
        assert _train_config(explicit).multipliers_for(net) == (1, 1, 1, 1)

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
        if stage == "pretrained":
            net.set_gate_mode(None)
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
        real, *rest = cli._TRAINING[command]
        assert real.__name__ == trainer

        def spy(net, data, config, **kwargs):
            seen.append(config.multipliers_for(net))
            return real(net, data, config, **kwargs)

        monkeypatch.setitem(cli._TRAINING, command, (spy, *rest))
        assert main([command, "--config", str(cfg), "--init", str(tmp_path / "in.ckpt")]) == 0
        assert seen == [(20.0, 8.0, 1.0, 1.0)]


@pytest.mark.parametrize("arch", ["lenet5_caffe", "lenet_500_300"])
def test_idx_test_files_and_subsets_pretrain_each_mnist_arch(tmp_path, capsys, arch):
    # 20 training and 10 test images; 12 and 5 of them are used
    rng = np.random.default_rng(0)
    paths = {key: str(tmp_path / f"{key}.idx")
             for key in ("images", "labels", "test_images", "test_labels")}
    pixels, digits = rng.integers(0, 256, (30, 28, 28), dtype=np.uint8), rng.integers(0, 10, 30)
    write_idx(pixels[:20], digits[:20], paths["images"], paths["labels"])
    write_idx(pixels[20:], digits[20:], paths["test_images"], paths["test_labels"])
    cfg = write_config(tmp_path, model={"arch": arch},
                       data={"kind": "idx", **paths, "train_subset": 12, "test_subset": 5},
                       train={"batch_size": 6, "pretrain_epochs": 1})
    assert main(["pretrain", "--config", str(cfg)]) == 0
    fields = result_fields(last_result(capsys))
    for key, n in (("train_err", 12), ("test_err", 5)):  # a whole number of misses
        misses = float(fields[key]) * n / 100.0
        assert misses == pytest.approx(round(misses), abs=1e-4), key
    assert load_checkpoint(fields["checkpoint"]).meta["arch"] == arch


# config key -> (GateState field, a non-default value)
GATE_OPTIONS = {
    "alpha_over_k": ("alpha_over_k", 0.5),
    "eps_gate": ("eps", 0.2),
    "momentum": ("momentum", 0.1),
}


class TestConfigHomes:
    @pytest.mark.parametrize("key", sorted(GATE_OPTIONS))
    def test_gate_option_under_train_is_unknown_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, train={key: GATE_OPTIONS[key][1]})
        assert main(["pretrain", "--config", str(cfg)]) == 1
        assert f"unknown config key train.{key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(GATE_OPTIONS))
    def test_gate_option_under_model_reaches_every_gate(self, tmp_path, key):
        # pretraining drops the gates; train-bb adds them with the model's options
        name, value = GATE_OPTIONS[key]
        cfg = write_config(tmp_path, model={key: value},
                           train={"pretrain_epochs": 1, "finetune_epochs": 1})
        assert main(["pretrain", "--config", str(cfg)]) == 0
        assert load_checkpoint(tmp_path / "run" / "pretrained.ckpt").gates() == []
        assert main(["train-bb", "--config", str(cfg)]) == 0
        net = load_checkpoint(tmp_path / "run" / "bb.ckpt")
        assert len(net.gates()) == 2
        assert all(getattr(g, name) == value for g in net.gates())

    def test_sweep_gives_every_run_gates_with_the_model_options(self, tmp_path, monkeypatch):
        real, seen = cli.run_stages, []

        def spy(net, *args, **kwargs):
            seen.append([(g.alpha_over_k, g.eps, g.momentum) for g in net.gates()])
            return real(net, *args, **kwargs)

        monkeypatch.setattr(cli, "run_stages", spy)
        cfg = write_config(tmp_path, model={key: value for key, (_, value) in GATE_OPTIONS.items()},
                           train={"pretrain_epochs": 1, "finetune_epochs": 1},
                           sweep={"kl_scales": [1.0, 2.0]})
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert load_checkpoint(tmp_path / "run" / "pretrained.ckpt").gates() == []
        assert seen == [[(0.5, 0.2, 0.1)] * 2] * 2

    @pytest.mark.parametrize("section,key,value", [
        ("model", "momentum", 1.5), ("data", "val_fraction", 1.5), ("data", "noise", -1.0),
        ("model", "dims", [20, 0, 2]), ("model", "alpha_over_k", 0.0),
    ])
    def test_out_of_range_setting_is_runtime_error(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path, **{section: {key: value}})
        assert main(["pretrain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("section,key,value", [
        ("model", "sigma_floor", -1.0), ("train", "sigma_floor", 0.5), ("train", "logit_eps", 0.7),
    ])
    def test_numerical_floor_is_unknown_key(self, tmp_path, capsys, section, key, value):
        # the floors are the constants gates.SIGMA_FLOOR and distributions.LOGIT_EPS
        cfg = write_config(tmp_path, **{section: {key: value}})
        assert main(["pretrain", "--config", str(cfg)]) == 1
        assert f"unknown config key {section}.{key!r}" in capsys.readouterr().err

    def test_train_section_fills_train_config_by_field_name(self):
        defaults = validate_config({})["train"]
        del defaults["pretrain_epochs"], defaults["finetune_epochs"]
        assert defaults == {f.name: f.default for f in fields(TrainConfig)}
        custom = {"batch_size": 7, "lr_variational": 0.02, "lr_weights": 0.003,
                  "kl_scale": 2.0, "per_layer_kl_multipliers": [1.0, 2.0], "tau": 0.3,
                  "rho_var": 1.5, "weight_decay": 0.0, "seed": 9}
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

    def test_correlation_runs_one_evaluation_pass(self, pipeline, tmp_path, capsys,
                                                   monkeypatch):
        cfg = write_config(tmp_path, train={"finetune_epochs": 2})
        init = str(pipeline[0] / "run" / "bb_pruned.ckpt")
        assert main(["train-dbb", "--config", str(cfg), "--init", init]) == 0
        sizes = []

        def counted(net, x, **kwargs):
            sizes.append(len(x))
            return forward_eval(net, x, **kwargs)

        monkeypatch.setattr(analysis, "forward_eval", counted)
        assert main(["analyze-correlation", "--config", str(cfg)]) == 0
        assert sizes == [180]  # the 180-example test split is one batch
        assert "within_corr=" in last_result(capsys)

    def test_each_command_evaluates_the_test_split_once(self, pipeline, tmp_path, monkeypatch):
        # train-dbb's log evaluates the test split after each of its 2 epochs;
        # its RESULT line, and evaluate's, read the error and the runtime
        # counts from one further pass
        cfg = write_config(tmp_path, train={"finetune_epochs": 2})
        _, test = cli._load_data(load_config(cfg))
        passes = []

        def counted(net, x, **kwargs):
            passes.append(np.array_equal(x, test.images))
            return forward_eval(net, x, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "betadrop" or name.startswith("betadrop."):
                for attr, value in list(vars(module).items()):
                    if value is forward_eval:
                        monkeypatch.setattr(module, attr, counted)
        init = str(pipeline[0] / "run" / "bb_pruned.ckpt")
        assert main(["train-dbb", "--config", str(cfg), "--init", init]) == 0
        assert passes.count(True) == 3
        passes.clear()
        dbb = str(tmp_path / "run" / "dbb.ckpt")
        assert main(["evaluate", "--config", str(cfg), "--init", dbb]) == 0
        assert passes == [True]

    def test_zero_epoch_train_dbb_is_runtime_error(self, pipeline, tmp_path, capsys):
        # DBB gates take their input statistics from the first training batch,
        # so a run of no epochs leaves a net that could not be evaluated
        cfg = write_config(tmp_path, train={"finetune_epochs": 0})
        init = str(pipeline[0] / "run" / "bb_pruned.ckpt")
        assert main(["train-dbb", "--config", str(cfg), "--init", init]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "DBB gate of layer 0 holds no input statistics" in err
        assert not (tmp_path / "run" / "dbb.ckpt").exists()
        assert not (tmp_path / "run" / "dbb_log.csv").exists()  # no header-only log

    def test_correlation_of_a_pretrained_net_is_runtime_error(self, pipeline, capsys):
        tmp_path, cfg = pipeline
        pretrained = str(tmp_path / "run" / "pretrained.ckpt")
        assert main(["analyze-correlation", "--config", str(cfg), "--init", pretrained]) == 2
        err = capsys.readouterr().err
        assert "require gates" in err and "Traceback" not in err

    def test_metrics_log_emitted(self, pipeline):
        tmp_path, _ = pipeline
        log = (tmp_path / "run" / "bb_log.csv").read_text().splitlines()
        assert log[0] == "epoch,nll,kl,train_err,test_err,expected_flops"
        assert len(log) == 71  # header + one row per epoch


def result_fields(result_line):
    return dict(token.split("=", 1) for token in result_line.split()[1:])


class TestFoldMasks:
    def test_folded_prune_evaluates_and_refuses_train_dbb(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            data={"kind": "two_cluster", "n": 600, "d": 20, "noise": 0.3},
            train={"pretrain_epochs": 2, "finetune_epochs": 5},
            prune={"fold_masks": True},
        )
        for command in ("pretrain", "train-bb", "prune"):
            assert main([command, "--config", str(cfg)]) == 0
        pruned = result_fields(last_result(capsys))
        assert load_checkpoint(tmp_path / "run" / "bb_pruned.ckpt").gates() == []
        assert main(["evaluate", "--config", str(cfg)]) == 0
        evaluated = result_fields(last_result(capsys))
        for key in ("error_pct", "speedup", "memory_pct"):
            assert evaluated[key] == pruned[key]
        assert main(["train-dbb", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "re-run prune with fold_masks=false" in err and "Traceback" not in err


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

    def test_scale_below_one_is_runtime_error_before_pretraining(self, tmp_path, capsys):
        # each scale's TrainConfig is validated as train.kl_scale is
        cfg = write_config(tmp_path, sweep={"kl_scales": [1.0, 0.5]})
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "kl_scale must be >= 1, got 0.5" in err and "Traceback" not in err
        for name in ("pretrained.ckpt", "sweep.csv"):
            assert not (tmp_path / "run" / name).exists()

    def test_empty_scale_grid_is_runtime_error_before_pretraining(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"kl_scales": []})
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "sweep.kl_scales must hold at least one scale" in err and "Traceback" not in err
        for name in ("pretrained.ckpt", "sweep.csv", "tradeoff.svg"):
            assert not (tmp_path / "run" / name).exists()


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

    def test_same_sweep_config_same_rows_and_files(self, tmp_path, capsys):
        lines, files = [], []
        for run in ("a", "b"):
            cfg = write_config(
                tmp_path,
                output_dir=str(tmp_path / run),
                train={"batch_size": 100, "pretrain_epochs": 2, "finetune_epochs": 3,
                       "lr_variational": 0.02, "seed": 0},
                sweep={"kl_scales": [1.0, 4.0]},
            )
            assert main(["sweep", "--config", str(cfg)]) == 0
            out = capsys.readouterr().out.replace(str(tmp_path / run), "<out>")
            lines.append([l for l in out.splitlines() if l.startswith("RESULT")])
            files.append([(tmp_path / run / n).read_bytes() for n in ("sweep.csv", "tradeoff.svg")])
        assert len(lines[0]) == 3 and lines[0] == lines[1]
        assert files[0] == files[1]

    def test_seed_override_changes_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "s"))
        blobs = []
        for seed in ("1", "2"):
            assert main(["pretrain", "--config", str(cfg), "--seed", seed]) == 0
            blobs.append((tmp_path / "s" / "pretrained.ckpt").read_bytes())
        assert blobs[0] != blobs[1]


def test_package_and_cli_import_without_scipy():
    # numpy is the only runtime dependency; every staged command is a fresh
    # process, so an import of scipy would cost each one its start-up time
    src = os.path.dirname(os.path.dirname(os.path.abspath(betadrop.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import betadrop, betadrop.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"
