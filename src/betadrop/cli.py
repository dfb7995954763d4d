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
    count_flops,
    count_memory,
    prune_by_threshold,
    runtime_prune_stats,
    within_cross_gate_correlation,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, describe_defaults, load_config
from .distributions import make_rng
from .errors import BetadropError, ContractError
from .gates import MODE_DBB
from .layers import Network, build_lenet5_caffe, build_lenet_500_300, build_mlp, shrink
from .reporting import SparsityReport, emit_report_csv, emit_tradeoff_svg, parse_report_csv
from .training import (
    MetricsLog,
    TrainConfig,
    derive_seed,
    evaluate_error,
    finetune_bb,
    finetune_dbb,
    pretrain,
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
    for name, doc in [
        ("pretrain", "train the base network without gates"),
        ("train-bb", "stage 1: fine-tune with input-independent gates"),
        ("train-dbb", "stage 2: fine-tune the input-dependent gates (needs a pruned stage-1 checkpoint)"),
        ("prune", "threshold-prune and physically shrink a trained network"),
        ("evaluate", "report error/speedup/memory of a checkpoint"),
        ("sweep", "run the KL-scale tradeoff grid and emit CSV + SVG"),
        ("report", "re-emit CSV/SVG from an existing sweep CSV"),
        ("analyze-correlation", "class-average gate correlation matrices"),
    ]:
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")
        p.add_argument("--out", default=None, help="override output_dir")
        p.add_argument("--init", default=None, help="input checkpoint (stage commands)")
    return parser


def _build_model(cfg: dict) -> Network:
    mc = cfg["model"]
    kwargs = dict(
        seed=mc["seed"],
        alpha_over_k=mc["alpha_over_k"],
        eps=mc["eps_gate"],
        momentum=mc["momentum"],
        sigma_floor=mc["sigma_floor"],
    )
    if mc["arch"] == "lenet_500_300":
        return build_lenet_500_300(**kwargs)
    if mc["arch"] == "lenet5_caffe":
        return build_lenet5_caffe(**kwargs)
    if mc["dims"] is None:
        raise ConfigError("model.dims is required for arch=mlp")
    return build_mlp(mc["dims"], **kwargs)


def _load_data(cfg: dict) -> tuple[data_mod.Dataset, data_mod.Dataset]:
    dc = cfg["data"]
    if dc["kind"] == "idx":
        if not dc["images"] or not dc["labels"]:
            raise ConfigError("data.kind=idx requires data.images and data.labels")
        train = data_mod.load_idx(dc["images"], dc["labels"])
        test = None
        if dc["test_images"] and dc["test_labels"]:
            test = data_mod.load_idx(dc["test_images"], dc["test_labels"])
    elif dc["kind"] == "planted":
        train = data_mod.synthetic_planted_sparsity(
            dc["n"], dc["d"], dc["k_signal"], seed=dc["seed"], noise=dc["noise"]
        )
        test = None
    else:
        train = data_mod.synthetic_two_cluster(
            dc["n"], dc["d"], seed=dc["seed"], noise=dc["noise"]
        )
        test = None
    if dc["train_subset"] is not None and dc["train_subset"] < len(train):
        perm = make_rng(dc["seed"]).permutation(len(train))
        train = train.subset(perm[: dc["train_subset"]])
    if test is None:
        train, test = train.split(dc["val_fraction"], seed=dc["seed"])
    if dc["test_subset"] is not None and dc["test_subset"] < len(test):
        test = test.subset(np.arange(dc["test_subset"]))
    return train, test


def _train_config(cfg: dict, arch: str | None = None) -> TrainConfig:
    """The ``train`` section as a TrainConfig.  ``arch`` names the network
    trained (default: the config's ``model.arch``); it picks the default
    per-layer KL multipliers."""
    names = {f.name for f in fields(TrainConfig)}
    tc = {key: value for key, value in cfg["train"].items() if key in names}
    multipliers = tc["per_layer_kl_multipliers"]
    if multipliers is None and (arch or cfg["model"]["arch"]) == "lenet5_caffe":
        # conv-layer KL is underweighted by the small filter counts;
        # conventional compensation for this architecture
        multipliers = [20.0, 8.0, 1.0, 1.0]
    tc["per_layer_kl_multipliers"] = None if multipliers is None else tuple(multipliers)
    return TrainConfig(**tc).validate()


def _outdir(cfg: dict) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _ckpt_path(cfg: dict, stage: str) -> str:
    return os.path.join(_outdir(cfg), STAGE_FILES[stage])


def _load_stage(args, cfg, expected_stage: str | None = None) -> Network:
    path = args.init or (_ckpt_path(cfg, expected_stage) if expected_stage else None)
    if path is None or not os.path.exists(path):
        raise ContractError(f"input checkpoint not found: {path}")
    net = load_checkpoint(path)
    if expected_stage is not None and net.meta.get("stage") != expected_stage:
        raise ContractError(
            f"checkpoint {path} is stage {net.meta.get('stage')!r}, "
            f"expected {expected_stage!r}"
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


def _cmd_pretrain(args, cfg) -> int:
    tconf = _train_config(cfg)
    net = _build_model(cfg)
    train, test = _load_data(cfg)
    log = MetricsLog(os.path.join(_outdir(cfg), "pretrain_log.csv"))
    pretrain(net, train, tconf, epochs=cfg["train"]["pretrain_epochs"],
             eval_data=test, log=log)
    path = _ckpt_path(cfg, "pretrained")
    save_checkpoint(net, path)
    _result(stage="pretrained", checkpoint=path,
            train_err=evaluate_error(net, train), test_err=evaluate_error(net, test))
    return 0


def _cmd_train_bb(args, cfg) -> int:
    net = _load_stage(args, cfg, "pretrained")
    tconf = _train_config(cfg, net.meta.get("arch"))
    train, test = _load_data(cfg)
    log = MetricsLog(os.path.join(_outdir(cfg), "bb_log.csv"))
    finetune_bb(net, train, tconf, epochs=cfg["train"]["finetune_epochs"],
                eval_data=test, log=log)
    path = _ckpt_path(cfg, "bb")
    save_checkpoint(net, path)
    _result(stage="bb", checkpoint=path, test_err=evaluate_error(net, test))
    return 0


def _cmd_prune(args, cfg) -> int:
    net = _load_stage(args, cfg, "bb")
    _, test = _load_data(cfg)
    threshold = cfg["prune"]["threshold"]
    keeps = prune_by_threshold(net, threshold)
    counts = [int(k.size) for k in keeps]
    orig, _, speedup = count_flops(net, counts)
    memory = count_memory(net, counts)
    small = shrink(net, keeps, fold_masks=cfg["prune"]["fold_masks"])
    small.meta.update(
        stage="bb_pruned", flops_orig=orig,
        speedup=speedup, memory_pct=memory, kept_counts=counts,
    )
    path = _ckpt_path(cfg, "bb_pruned")
    save_checkpoint(small, path)
    _result(stage="bb_pruned", checkpoint=path, error_pct=evaluate_error(small, test),
            speedup=speedup, memory_pct=memory,
            kept="-".join(str(c) for c in counts))
    return 0


def _cmd_train_dbb(args, cfg) -> int:
    net = _load_stage(args, cfg, "bb_pruned")
    tconf = _train_config(cfg, net.meta.get("arch"))
    if not net.gates():
        raise ContractError(
            "train-dbb requires gates; re-run prune with fold_masks=false"
        )
    train, test = _load_data(cfg)
    log = MetricsLog(os.path.join(_outdir(cfg), "dbb_log.csv"))
    finetune_dbb(net, train, tconf, epochs=cfg["train"]["finetune_epochs"],
                 eval_data=test, log=log)
    path = _ckpt_path(cfg, "dbb")
    save_checkpoint(net, path)
    stats = runtime_prune_stats(net, test, cfg["prune"]["threshold"])
    _result(stage="dbb", checkpoint=path, test_err=evaluate_error(net, test),
            mean_runtime_flops=stats.mean_flops)
    return 0


def _cmd_evaluate(args, cfg) -> int:
    path = args.init or _ckpt_path(cfg, "bb_pruned")
    if not os.path.exists(path):
        raise ContractError(f"checkpoint not found: {path}")
    net = load_checkpoint(path)
    _, test = _load_data(cfg)
    err = evaluate_error(net, test)
    extras = {}
    gates = net.gates()
    if gates and all(g.mode == MODE_DBB for g in gates) and net.gates_enabled:
        stats = runtime_prune_stats(net, test, cfg["prune"]["threshold"])
        flops_orig = net.meta.get("flops_orig", stats.static_flops)
        extras["runtime_speedup"] = flops_orig / stats.mean_flops
        extras["mean_runtime_flops"] = stats.mean_flops
    _result(error_pct=err, speedup=net.meta.get("speedup", 1.0),
            memory_pct=net.meta.get("memory_pct", 100.0), **extras)
    return 0


def _cmd_sweep(args, cfg) -> int:
    tconf = _train_config(cfg)
    out = _outdir(cfg)
    train, test = _load_data(cfg)
    base = _build_model(cfg)
    pretrain(base, train, tconf, epochs=cfg["train"]["pretrain_epochs"])
    pre_path = _ckpt_path(cfg, "pretrained")
    save_checkpoint(base, pre_path)
    reports = []
    for i, scale in enumerate(cfg["sweep"]["kl_scales"]):
        run_conf = replace(tconf, kl_scale=float(scale), seed=derive_seed(tconf.seed, i))
        net = load_checkpoint(pre_path)
        finetune_bb(net, train, run_conf, epochs=cfg["train"]["finetune_epochs"])
        keeps = prune_by_threshold(net, cfg["prune"]["threshold"])
        counts = [int(k.size) for k in keeps]
        _, _, speedup = count_flops(net, counts)
        memory = count_memory(net, counts)
        small = shrink(net, keeps)
        err = evaluate_error(small, test)
        reports.append(
            SparsityReport(
                method="bb", kl_scale=float(scale), error_pct=err,
                speedup=speedup, memory_pct=memory, kept_counts=counts,
            )
        )
        print(reports[-1].result_line())
    csv_path = os.path.join(out, "sweep.csv")
    svg_path = os.path.join(out, "tradeoff.svg")
    emit_report_csv(reports, csv_path)
    emit_tradeoff_svg(reports, svg_path)
    _result(rows=len(reports), csv=csv_path, svg=svg_path)
    return 0


def _cmd_report(args, cfg) -> int:
    out = _outdir(cfg)
    csv_path = os.path.join(out, "sweep.csv")
    if not os.path.exists(csv_path):
        raise ContractError(f"no sweep CSV at {csv_path}")
    reports = parse_report_csv(csv_path)
    merged_csv = os.path.join(out, "report.csv")
    svg_path = os.path.join(out, "tradeoff.svg")
    emit_report_csv(reports, merged_csv)
    emit_tradeoff_svg(reports, svg_path)
    _result(rows=len(reports), csv=merged_csv, svg=svg_path)
    return 0


def _cmd_analyze_correlation(args, cfg) -> int:
    path = args.init or _ckpt_path(cfg, "dbb")
    if not os.path.exists(path):
        raise ContractError(f"checkpoint not found: {path}")
    net = load_checkpoint(path)
    _, test = _load_data(cfg)
    report = class_average_gate_correlation(net, test)
    out = _outdir(cfg)
    for li, matrix in zip(report.layer_indices, report.matrices):
        mat_path = os.path.join(out, f"gate_correlation_layer{li}.csv")
        with open(mat_path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in matrix:
                writer.writerow([repr(float(v)) for v in row])
    within, cross = within_cross_gate_correlation(net, test)
    _result(layers=len(report.matrices), within_corr=within, cross_corr=cross,
            out=out)
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "train-bb": _cmd_train_bb,
    "train-dbb": _cmd_train_dbb,
    "prune": _cmd_prune,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "analyze-correlation": _cmd_analyze_correlation,
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
            cfg["train"]["seed"] = args.seed
            cfg["model"]["seed"] = args.seed
            cfg["data"]["seed"] = args.seed
        if args.out is not None:
            cfg["output_dir"] = args.out
        return _COMMANDS[args.command](args, cfg)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BetadropError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
