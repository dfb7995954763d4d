"""The four benchmark workloads.

Each workload is a closed loop in one process: the next call into betadrop is
made only after the previous one returns.  A workload builds its state in
``setup`` (inputs from the seed, the network, warm-up calls), runs one loop
iteration per ``call``, and checks its outputs as it goes; ``finish`` runs the
checks that need the whole run.  Every call and every run-level check counts
as one attempted operation, and a failed check counts as a failed one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, replace
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import inputs
from betadrop import analysis, cli, data, gates, layers, training

PRUNE_THRESHOLD = 1e-3
B1_CALLS_PER_PASS = 32
PIPELINE_MAX_TEST_ERROR_PCT = 5.0
PIPELINE_STAGES = ("pretrain", "train-bb", "prune", "train-dbb", "evaluate")
WORK_DIR = os.path.join("perfbench", "_work")  # relative to the checkout root


@dataclass
class Sample:
    """One timed call into the package."""

    kind: str
    seconds: float
    examples: int
    ok: bool


class Meter:
    """Times calls into the package; with a tracer set, also records a span."""

    def __init__(self):
        self.samples: list[Sample] = []
        self.tracer = None

    def call(self, kind: str, fn, *args, **kwargs):
        if self.tracer is not None:
            fn = self.tracer.timed(f"bench.{kind}", fn)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        return out, perf_counter() - t0

    def record(self, kind: str, seconds: float, examples: int, ok: bool) -> None:
        self.samples.append(Sample(kind, seconds, examples, bool(ok)))


def _kept_counts(net) -> list[int]:
    return [int((g.expected_pi() >= PRUNE_THRESHOLD).sum()) for g in net.gates()]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class _TrainState:
    def __init__(self, net, batches, config, step_fn):
        self.net = net
        self.batches = batches
        self.config = config
        self.step_fn = step_fn
        self.step = 0
        self.losses: list[float] = []

    def run_step(self, meter: Meter | None):
        """One finetune call on one batch of 100: one optimizer step."""
        batch = self.batches[self.step % len(self.batches)]
        config = replace(self.config, seed=self.config.seed + self.step)
        self.step += 1
        if meter is None:
            losses = self.step_fn(self.net, batch, config, epochs=1)
            seconds = 0.0
        else:
            losses, seconds = meter.call("step", self.step_fn, self.net, batch, config, epochs=1)
        self.losses.extend(losses)
        return losses, seconds


class TrainWorkload:
    """Training steps at batch 100 through ``training.finetune_*``.

    Each call is one ``finetune_*`` call over one batch (one Adam step; the
    finetune call builds its own optimizer state, as every stage call does).
    The batches cycle over a fixed seeded training set; one cycle is an epoch.
    """

    latency_kind = "step"
    throughput_kind = "step"
    warmup_steps = 2
    replay_steps = 2
    train_size = 0  # glyphs in the training set; a multiple of 100

    def __init__(self, seed: int, train_size: int | None = None):
        self.seed = seed
        self.train_size = train_size or self.train_size

    def build(self):
        """(network, finetune function, TrainConfig, image -> input reshaping)."""
        raise NotImplementedError

    def setup(self):
        net, step_fn, config, to_input = self.build()
        x, y = inputs.glyphs(self.train_size, (self.seed, 0))
        x = to_input(x)
        batches = [data.Dataset(x[i:i + 100], y[i:i + 100]) for i in range(0, len(x), 100)]
        hx, hy = inputs.glyphs(200, (self.seed, 1))
        self.held_out = data.Dataset(to_input(hx), hy)
        state = _TrainState(net, batches, config, step_fn)
        for _ in range(self.warmup_steps):
            state.run_step(None)
        state.losses.clear()
        return state

    def call(self, state: _TrainState, meter: Meter) -> None:
        losses, seconds = state.run_step(meter)
        meter.record("step", seconds, 100, all(np.isfinite(v) for v in losses) and len(losses) == 1)

    def finish(self, state: _TrainState) -> dict:
        losses = state.losses
        cycle = min(len(state.batches), len(losses) // 2)
        first = float(np.mean(losses[:cycle])) if cycle else float("nan")
        last = float(np.mean(losses[-cycle:])) if cycle else float("nan")
        # Set-up is deterministic, so a fresh one is a replica of the state
        # the timed loop started from.
        replica = self.setup()
        n = min(self.replay_steps, len(losses))
        replayed = [v for _ in range(n) for v in replica.run_step(None)[0]]
        checks = {
            "last_epoch_loss_below_first": bool(cycle and last < first),
            "fixed_seed_reproduces_loss": bool(n and replayed == losses[:n]),
        }
        records = {
            "final_loss": float(losses[-1]) if losses else float("nan"),
            "first_epoch_mean_loss": first,
            "last_epoch_mean_loss": last,
            "test_error_pct": training.evaluate_error(state.net, self.held_out),
            "kept_counts": _kept_counts(state.net),
        }
        return {"checks": checks, "records": records}


class TrainLenet5BB(TrainWorkload):
    train_size = 500

    def build(self):
        net = layers.build_lenet5_caffe(seed=self.seed)
        config = training.TrainConfig(batch_size=100, seed=self.seed,
                                      per_layer_kl_multipliers=(20.0, 8.0, 1.0, 1.0))
        return net, training.finetune_bb, config, lambda x: x


class TrainLenet300DBB(TrainWorkload):
    train_size = 1000

    def build(self):
        net = layers.build_lenet_500_300(seed=self.seed)
        net = layers.shrink(net, inputs.keep_sets([784, 500, 300], 0.5, self.seed))
        config = training.TrainConfig(batch_size=100, seed=self.seed)
        return net, training.finetune_dbb, config, lambda x: x.reshape(len(x), -1)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


class InferLenet5DBB:
    """DBB inference on a shrunk ``lenet5_caffe``: batch 500, batch 1, runtime stats.

    One call is one pass: ``evaluate_error`` over 500 images at batch 500,
    ``B1_CALLS_PER_PASS`` ``forward_eval`` calls at batch 1, and one
    ``runtime_prune_stats`` over 100 further images.
    """

    # Batch-1 latency is reported in the detail record only: its run-to-run
    # spread on a shared 2-core machine reached 28 %, beyond any usable bound.
    latency_kind = "eval_b500"
    throughput_kind = "eval_b500"

    def __init__(self, seed: int, eval_size: int = 500, stats_size: int = 100):
        self.seed = seed
        self.eval_size = eval_size
        self.stats_size = stats_size

    def setup(self):
        s = SimpleNamespace()
        rng = np.random.default_rng((self.seed, 2))
        net = layers.build_lenet5_caffe(seed=self.seed)
        net = layers.shrink(net, inputs.keep_sets([20, 50, 800, 500], 0.75, self.seed))
        net.gates_enabled = True
        net.set_gate_mode(gates.MODE_DBB)
        # gate scale near 1 and shift near 0: each unit is kept for roughly
        # the inputs above its running mean, so kept counts vary per input.
        for g in net.gates():
            g.gamma.value = rng.normal(1.0, 0.25, g.k)
            g.eta.value = rng.normal(0.0, 0.3, g.k)
        x, _ = inputs.glyphs(100, (self.seed, 3))
        layers.forward_train(net, x, rng)  # sets the running statistics
        x, y = inputs.glyphs(self.eval_size, (self.seed, 0))
        s.net = net
        s.eval_set = data.Dataset(x, y)
        sx, sy = inputs.glyphs(self.stats_size, (self.seed, 1))
        s.stats_set = data.Dataset(sx, sy)
        s.reference = layers.forward_eval(net, x)
        s.error_pct = training.evaluate_error(net, s.eval_set, batch_size=500)
        s.stats = analysis.runtime_prune_stats(net, s.stats_set, PRUNE_THRESHOLD)
        s.next_b1 = 0
        for i in range(4):
            layers.forward_eval(net, x[i:i + 1])
        return s

    def call(self, s, meter: Meter) -> None:
        err, seconds = meter.call("eval_b500", training.evaluate_error, s.net, s.eval_set,
                                  batch_size=500)
        meter.record("eval_b500", seconds, len(s.eval_set), err == s.error_pct)
        images = s.eval_set.images
        for _ in range(B1_CALLS_PER_PASS):
            i = s.next_b1 % len(images)
            s.next_b1 += 1
            logits, seconds = meter.call("eval_b1", layers.forward_eval, s.net, images[i:i + 1])
            ok = logits.shape == (1, 10) and np.abs(logits[0] - s.reference[i]).max() <= 1e-9
            meter.record("eval_b1", seconds, 1, ok)
        stats, seconds = meter.call("runtime_stats", analysis.runtime_prune_stats, s.net,
                                    s.stats_set, PRUNE_THRESHOLD)
        ok = (stats.flops_per_input <= stats.static_flops).all() and np.array_equal(
            stats.kept_per_input, s.stats.kept_per_input)
        meter.record("runtime_stats", seconds, len(s.stats_set), ok)

    def finish(self, s) -> dict:
        speedup = s.stats.static_flops / s.stats.mean_flops
        return {
            "checks": {"predicted_runtime_speedup_above_1.5": bool(speedup > 1.5)},
            "records": {
                "test_error_pct": s.error_pct,
                "predicted_runtime_speedup": speedup,
                "static_flops": int(s.stats.static_flops),
                "mean_flops": float(s.stats.mean_flops),
                "mean_kept": [float(v) for v in s.stats.mean_kept],
                "kept_counts": _kept_counts(s.net),
            },
        }


# ---------------------------------------------------------------------------
# staged pipeline through the CLI
# ---------------------------------------------------------------------------


def parse_result(stdout: str) -> dict | None:
    """key=value pairs of the last ``RESULT`` line, or None if there is none."""
    lines = [l for l in stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        return None
    try:
        return dict(part.split("=", 1) for part in lines[-1].split()[1:])
    except ValueError:
        return None


def check_pass(results: dict) -> dict:
    """Per-pass output checks over the parsed RESULT lines of every stage."""
    ok_all = all(r is not None and r.get("rc") == "0" for r in results.values())
    checks = {"every_stage_ok": ok_all}
    if not ok_all:
        return checks
    ev, pr = results["evaluate"], results["prune"]
    try:
        err = float(ev["error_pct"])
        # runtime speedup = flops_orig / mean runtime flops and prune speedup =
        # flops_orig / static flops, so this is mean runtime flops <= static.
        flops_ok = float(ev["runtime_speedup"]) >= float(pr["speedup"]) - 1e-6
        same_flops = ev["mean_runtime_flops"] == results["train-dbb"]["mean_runtime_flops"]
    except (KeyError, ValueError):
        return {"every_stage_ok": False}
    checks["test_error_below_bound"] = err < PIPELINE_MAX_TEST_ERROR_PCT
    checks["runtime_flops_at_most_static"] = flops_ok and same_flops
    return checks


class PipelineTwoCluster:
    """``cli.main`` in-process: pretrain -> train-bb -> prune -> train-dbb -> evaluate.

    One call is one pass in a fresh output directory, on the seeded
    ``two_cluster`` MLP 20-16-2 config.
    """

    latency_kind = "pass"
    throughput_kind = "pass"

    def __init__(self, seed: int, epochs=inputs.PIPELINE_EPOCHS):
        self.seed = seed
        self.work_dir = os.path.join(WORK_DIR, f"pipeline-seed{seed}")
        self.epochs = epochs
        config = inputs.pipeline_config(seed, "", epochs)
        n = config["data"]["n"]
        n_train = n - round(config["data"]["val_fraction"] * n)
        self.examples_per_pass = n_train * (epochs[0] + 2 * epochs[1])
        self.passes = 0
        self.first = None
        self.records: dict = {}

    def _pass(self, meter: Meter | None, epochs) -> tuple[dict, float]:
        out = os.path.join(self.work_dir, f"pass{self.passes}")
        self.passes += 1
        os.makedirs(out)
        config_path = os.path.join(out, "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(inputs.pipeline_config(self.seed, out, epochs), fh)
        results: dict = {}
        seconds = 0.0
        for stage in PIPELINE_STAGES:
            argv = [stage, "--config", config_path]
            if stage == "evaluate":
                argv += ["--init", os.path.join(out, "dbb.ckpt")]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if meter is None:
                    rc = cli.main(argv)
                else:
                    rc, dt = meter.call(f"stage.{stage}", cli.main, argv)
                    seconds += dt
            parsed = parse_result(buf.getvalue())
            if parsed is not None:
                parsed["rc"] = str(rc)
                parsed.pop("checkpoint", None)
            results[stage] = parsed
        shutil.rmtree(out)
        return results, seconds

    def setup(self):
        os.makedirs(self.work_dir, exist_ok=True)
        # warm-up: every stage once at one epoch each
        self._pass(None, (1, 1))
        return self

    def call(self, state, meter: Meter) -> None:
        results, seconds = self._pass(meter, self.epochs)
        checks = check_pass(results)
        if self.first is None:
            self.first = results
        checks["same_results_as_first_pass"] = results == self.first
        meter.record("pass", seconds, self.examples_per_pass, all(checks.values()))
        if all(checks.values()):
            ev, pr = results["evaluate"], results["prune"]
            self.records = {
                "test_error_pct": float(ev["error_pct"]),
                "kept_counts": [int(k) for k in pr["kept"].split("-")],
                "static_speedup": float(pr["speedup"]),
                "predicted_runtime_speedup": float(ev["runtime_speedup"]),
                "mean_runtime_flops": float(ev["mean_runtime_flops"]),
            }

    def finish(self, state) -> dict:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        return {"checks": {}, "records": self.records}


WORKLOADS = {
    "train_lenet5_bb": TrainLenet5BB,
    "train_lenet300_dbb": TrainLenet300DBB,
    "infer_lenet5_dbb": InferLenet5DBB,
    "pipeline_two_cluster": PipelineTwoCluster,
}
