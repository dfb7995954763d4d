"""Command-line pipeline: pretrain -> train-bb -> prune -> train-dbb ->
evaluate, plus tradeoff sweeps and gate-correlation analysis.

Every subcommand reads a JSON run configuration (see ``--help-config``),
writes its outputs under ``output_dir`` and prints one machine-readable
``RESULT key=value ...`` line.  Exit codes: 0 success, 1 usage error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import data as data_mod
from .analysis import (
    class_average_gate_correlation,
    evaluate_error,
    gate_masks,
    runtime_prune_stats,
    within_cross_gate_correlation,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, check_json, describe_defaults, load_config
from .distributions import make_rng
from .errors import BetadropError, ContractError
from .gates import MODE_BB, MODE_DBB
from .layers import Network, build_lenet5_caffe, build_lenet_500_300, build_mlp
from .layers import shrink  # noqa: F401  (perfbench reads it here)
from .reporting import SparsityReport, emit_report_csv, emit_tradeoff_svg, parse_report_csv
from .training import (
    MetricsLog,
    TrainConfig,
    derive_seed,
    finetune_bb,
    finetune_dbb,
    pretrain,
    prune,
    run_stages,
)

STAGE_FILES = {
    "pretrained": "pretrained.ckpt",
    "bb": "bb.ckpt",
    "bb_pruned": "bb_pruned.ckpt",
    "dbb": "dbb.ckpt",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="betadrop", description=__doc__)
    parser.add_argument(
        "--help-config", action="store_true", help="print all config keys with defaults"
    )
    sub = parser.add_subparsers(dest="command")
    for name, (run, stage, doc) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc, description=doc)
        p.set_defaults(run=run, input_stage=stage)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")
        p.add_argument("--out", default=None, help="override output_dir")
        if stage is not None:
            p.add_argument("--init", default=None, help="input checkpoint (default: "
                           f"{STAGE_FILES[stage]} under output_dir)")
    return parser


def _gate_options(cfg: dict) -> dict:
    """The GateState fields that ``model`` sets; pretrain's gates only check them."""
    mc = cfg["model"]
    return dict(alpha_over_k=mc["alpha_over_k"], eps=mc["eps_gate"], momentum=mc["momentum"])


def _build_model(cfg: dict) -> Network:
    mc = cfg["model"]
    kwargs = dict(seed=mc["seed"], **_gate_options(cfg))
    if mc["arch"] == "lenet_500_300":
        return build_lenet_500_300(**kwargs)
    if mc["arch"] == "lenet5_caffe":
        return build_lenet5_caffe(**kwargs)
    if mc["dims"] is None:
        raise ConfigError("model.dims is required for arch=mlp")
    return build_mlp(mc["dims"], **kwargs)


def _load_data(cfg: dict) -> tuple[data_mod.Dataset, data_mod.Dataset]:
    dc = cfg["data"]
    test = None
    if dc["kind"] == "idx":
        if not dc["images"] or not dc["labels"]:
            raise ConfigError("data.kind=idx requires data.images and data.labels")
        train = data_mod.load_idx(dc["images"], dc["labels"])
        if dc["test_images"] and dc["test_labels"]:
            test = data_mod.load_idx(dc["test_images"], dc["test_labels"])
    elif dc["kind"] == "planted":
        train = data_mod.synthetic_planted_sparsity(
            dc["n"], dc["d"], dc["k_signal"], seed=dc["seed"], noise=dc["noise"]
        )
    else:
        train = data_mod.synthetic_two_cluster(
            dc["n"], dc["d"], seed=dc["seed"], noise=dc["noise"]
        )
    if dc["train_subset"] is not None and dc["train_subset"] < len(train):
        perm = make_rng(dc["seed"]).permutation(len(train))
        train = train.subset(perm[: dc["train_subset"]])
    if test is None:
        train, test = train.split(dc["val_fraction"], seed=dc["seed"])
    if dc["test_subset"] is not None and dc["test_subset"] < len(test):
        test = test.subset(np.arange(dc["test_subset"]))
    return train, test


def _train_config(cfg: dict) -> TrainConfig:
    """The ``train`` section as a TrainConfig."""
    names = {f.name for f in fields(TrainConfig)}
    tc = {key: value for key, value in cfg["train"].items() if key in names}
    multipliers = tc["per_layer_kl_multipliers"]
    tc["per_layer_kl_multipliers"] = None if multipliers is None else tuple(multipliers)
    return TrainConfig(**tc)


def _outdir(cfg: dict) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _ckpt_path(cfg: dict, stage: str) -> str:
    return os.path.join(_outdir(cfg), STAGE_FILES[stage])


def _load_input(args, cfg, any_stage: bool = False) -> Network:
    """The command's input checkpoint: ``--init``, else its input stage's
    file under ``output_dir``.  Unless ``any_stage``, it must hold that stage."""
    stage = args.input_stage
    path = args.init or _ckpt_path(cfg, stage)
    if not os.path.exists(path):
        raise ContractError(f"input checkpoint not found: {path}")
    net = load_checkpoint(path)
    if not any_stage and net.meta.get("stage") != stage:
        raise ContractError(
            f"checkpoint {path} is stage {net.meta.get('stage')!r}, expected {stage!r}"
        )
    return net


def _result(**kv) -> None:
    parts = []
    for k, v in kv.items():
        if isinstance(v, float):
            parts.append(f"{k}={v:.6f}")
        else:
            parts.append(f"{k}={v}")
    print("RESULT " + " ".join(parts))


def _test_error(net: Network, test, cfg) -> tuple:
    """(test error, RuntimeStats of a DBB network, else None) from one pass."""
    if net.gate_mode != MODE_DBB:
        return evaluate_error(net, test), None
    stats = runtime_prune_stats(net, test, cfg["prune"]["threshold"])
    return stats.error_pct, stats


# training command -> (trainer, epochs key, log file)
_TRAINING = {
    "pretrain": (pretrain, "pretrain_epochs", "pretrain_log.csv"),
    "train-bb": (finetune_bb, "finetune_epochs", "bb_log.csv"),
    "train-dbb": (finetune_dbb, "finetune_epochs", "dbb_log.csv"),
}


def _cmd_train(args, cfg) -> int:
    trainer, epochs_key, log_name = _TRAINING[args.command]
    if args.input_stage is None:
        net = _build_model(cfg)
    else:
        net = _load_input(args, cfg)
        if args.command == "train-bb":
            net.set_gate_mode(MODE_BB, **_gate_options(cfg))
        elif not net.gates():
            raise ContractError(
                f"{args.command} requires gates, which prune with fold_masks=true folds "
                "into the weights; re-run prune with fold_masks=false"
            )
    tconf = _train_config(cfg)
    train, test = _load_data(cfg)
    log = MetricsLog(os.path.join(_outdir(cfg), log_name))
    trainer(net, train, tconf, epochs=cfg["train"][epochs_key], eval_data=test, log=log)
    stage = net.meta["stage"]
    path = _ckpt_path(cfg, stage)
    save_checkpoint(net, path)
    train_err = {} if net.gates() else {"train_err": evaluate_error(net, train)}
    err, stats = _test_error(net, test, cfg)
    runtime = {} if stats is None else {"mean_runtime_flops": stats.mean_flops}
    _result(stage=stage, checkpoint=path, **train_err, test_err=err, **runtime)
    return 0


def _cmd_prune(args, cfg) -> int:
    net = _load_input(args, cfg)
    _, test = _load_data(cfg)
    small = prune(net, cfg["prune"]["threshold"], cfg["prune"]["fold_masks"])
    path = _ckpt_path(cfg, "bb_pruned")
    save_checkpoint(small, path)
    _result(stage="bb_pruned", checkpoint=path, error_pct=evaluate_error(small, test),
            speedup=small.meta["speedup"], memory_pct=small.meta["memory_pct"],
            kept="-".join(str(c) for c in small.meta["kept_counts"]))
    return 0


def _cmd_evaluate(args, cfg) -> int:
    net = _load_input(args, cfg, any_stage=True)
    _, test = _load_data(cfg)
    err, stats = _test_error(net, test, cfg)
    extras = {}
    if stats is not None:
        flops_orig = net.meta.get("flops_orig", stats.static_flops)
        extras["runtime_speedup"] = flops_orig / stats.mean_flops
        extras["mean_runtime_flops"] = stats.mean_flops
    _result(error_pct=err, speedup=net.meta.get("speedup", 1.0),
            memory_pct=net.meta.get("memory_pct", 100.0), **extras)
    return 0


def _emit_reports(reports: list[SparsityReport], cfg: dict, csv_name: str) -> int:
    out = _outdir(cfg)
    csv_path = os.path.join(out, csv_name)
    svg_path = os.path.join(out, "tradeoff.svg")
    emit_report_csv(reports, csv_path)
    emit_tradeoff_svg(reports, svg_path)
    _result(rows=len(reports), csv=csv_path, svg=svg_path)
    return 0


def _cmd_sweep(args, cfg) -> int:
    tconf = _train_config(cfg)
    run_confs = [replace(tconf, kl_scale=float(scale), seed=derive_seed(tconf.seed, i))
                 for i, scale in enumerate(cfg["sweep"]["kl_scales"])]
    if not run_confs:
        raise ContractError("sweep.kl_scales must hold at least one scale")
    train, test = _load_data(cfg)
    base = _build_model(cfg)
    pretrain(base, train, tconf, epochs=cfg["train"]["pretrain_epochs"])
    pre_path = _ckpt_path(cfg, "pretrained")
    save_checkpoint(base, pre_path)
    reports = []
    for run_conf in run_confs:
        net = load_checkpoint(pre_path)
        net.set_gate_mode(MODE_BB, **_gate_options(cfg))
        report = run_stages(net, train, test, run_conf,
                            cfg["train"]["finetune_epochs"], threshold=cfg["prune"]["threshold"],
                            fold_masks=cfg["prune"]["fold_masks"]).report
        print(report.result_line())
        reports.append(report)
    return _emit_reports(reports, cfg, "sweep.csv")


def _cmd_report(args, cfg) -> int:
    csv_path = os.path.join(_outdir(cfg), "sweep.csv")
    if not os.path.exists(csv_path):
        raise ContractError(f"no sweep CSV at {csv_path}")
    return _emit_reports(parse_report_csv(csv_path), cfg, "report.csv")


def _cmd_analyze_correlation(args, cfg) -> int:
    net = _load_input(args, cfg, any_stage=True)
    _, test = _load_data(cfg)
    masks = gate_masks(net, test.images)
    matrices = class_average_gate_correlation(masks, test.labels)
    out = _outdir(cfg)
    for (li, _), matrix in zip(net.gated_layers(), matrices):
        mat_path = os.path.join(out, f"gate_correlation_layer{li}.csv")
        with open(mat_path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in matrix:
                writer.writerow([repr(float(v)) for v in row])
    within, cross = within_cross_gate_correlation(masks[-1], test.labels)
    _result(layers=len(matrices), within_corr=within, cross_corr=cross, out=out)
    return 0


# command -> (function, the stage whose checkpoint it reads unless --init
# names one, or None when it reads none; help)
_COMMANDS = {
    "pretrain": (_cmd_train, None, "train the base network without gates"),
    "train-bb": (_cmd_train, "pretrained", "stage 1: fine-tune with input-independent gates"),
    "train-dbb": (_cmd_train, "bb_pruned",
                  "stage 2: fine-tune the input-dependent gates (needs a pruned stage-1 checkpoint)"),
    "prune": (_cmd_prune, "bb", "threshold-prune and physically shrink a trained network"),
    "evaluate": (_cmd_evaluate, "bb_pruned", "report error/speedup/memory of a checkpoint"),
    "sweep": (_cmd_sweep, None, "run the KL-scale tradeoff grid and emit CSV + SVG"),
    "report": (_cmd_report, None, "re-emit CSV/SVG from an existing sweep CSV"),
    "analyze-correlation": (_cmd_analyze_correlation, "dbb",
                            "class-average gate correlation matrices"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.help_config:
            print(describe_defaults())
            return 0
        if args.command is None:
            raise UsageError(parser.format_help())
        cfg = load_config(args.config)
        if args.seed is not None:
            seed = check_json(args.seed, ["int"], "--seed")
            for section in ("train", "model", "data"):
                cfg[section]["seed"] = seed
        if args.out is not None:
            cfg["output_dir"] = args.out
        return args.run(args, cfg)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BetadropError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
