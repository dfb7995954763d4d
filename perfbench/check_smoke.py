"""Smoke tests of the benchmark itself: tiny runs, metric names, failing checks.

Run from the repository root:  python3 -m pytest -q perfbench/check_smoke.py
(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# (seconds, workload sizes): long enough for two training epochs of two batches
TINY = {
    "train_lenet5_bb": (1.6, {"train_size": 200}),
    "train_lenet300_dbb": (0.3, {"train_size": 200}),
    "infer_lenet5_dbb": (0.3, {"eval_size": 20, "stats_size": 10}),
    "pipeline_two_cluster": (0.3, {"epochs": (1, 2)}),
}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _in_root(tmp_path, monkeypatch):
    # run.py writes under perfbench/ relative to the working directory
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_names_match(spec, name, trace):
    seconds, sizes = TINY[name]
    detail, result = run.run(name, seed=3, seconds=seconds, trace=trace, setup_reps=1, **sizes)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, detail["checks"]
    section = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(detail)  # the detail record must serialize


def test_workload_names_match(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_tracer_uninstall_restores_the_package():
    from betadrop import autodiff, cli, gates, layers, training
    from tracer import Tracer

    before = (autodiff.matmul, autodiff.Node.__init__, layers.concrete_mask_node,
              cli.shrink, training.forward_train, gates.GateState.expected_mask)
    tracer = Tracer()
    tracer.install()
    assert layers.concrete_mask_node is not before[2] and cli.shrink is not before[3]
    tracer.uninstall()
    after = (autodiff.matmul, autodiff.Node.__init__, layers.concrete_mask_node,
             cli.shrink, training.forward_train, gates.GateState.expected_mask)
    assert all(a is b for a, b in zip(before, after))


def test_inputs_follow_the_seed():
    a, la = inputs.glyphs(30, (5, 0))
    b, lb = inputs.glyphs(30, (5, 0))
    c, _ = inputs.glyphs(30, (6, 0))
    assert a.shape == (30, 28, 28) and np.array_equal(a, b) and np.array_equal(la, lb)
    assert not np.array_equal(a, c)
    assert 0.0 <= a.min() and a.max() <= 1.0


# -- corrupted outputs must be reported as failures ---------------------------


def test_non_finite_loss_fails_the_step():
    wl = workloads.TrainLenet300DBB(seed=1, train_size=200)
    state = wl.setup()
    state.step_fn = lambda *args, **kwargs: [float("nan")]
    meter = workloads.Meter()
    wl.call(state, meter)
    assert meter.samples[-1].ok is False


def test_rising_loss_fails_the_epoch_check():
    wl = workloads.TrainLenet300DBB(seed=1, train_size=200)
    state = wl.setup()
    meter = workloads.Meter()
    for _ in range(4):
        wl.call(state, meter)
    state.losses[-2:] = [v + 1e6 for v in state.losses[-2:]]
    checks = wl.finish(state)["checks"]
    assert checks["last_epoch_loss_below_first"] is False
    assert checks["fixed_seed_reproduces_loss"] is True


def test_changed_loss_fails_the_replay_check():
    wl = workloads.TrainLenet300DBB(seed=1, train_size=200)
    state = wl.setup()
    meter = workloads.Meter()
    for _ in range(4):
        wl.call(state, meter)
    state.losses[0] = np.nextafter(state.losses[0], np.inf)
    assert wl.finish(state)["checks"]["fixed_seed_reproduces_loss"] is False


def test_corrupted_reference_logits_fail_batch_one():
    wl = workloads.InferLenet5DBB(seed=1, eval_size=20, stats_size=10)
    state = wl.setup()
    state.reference = state.reference + 1e-6
    meter = workloads.Meter()
    wl.call(state, meter)
    b1 = [s for s in meter.samples if s.kind == "eval_b1"]
    assert b1 and not any(s.ok for s in b1)
    assert all(s.ok for s in meter.samples if s.kind != "eval_b1")


def _good_results():
    return {
        "pretrain": {"rc": "0", "stage": "pretrained", "test_err": "0.0"},
        "train-bb": {"rc": "0", "stage": "bb", "test_err": "0.0"},
        "prune": {"rc": "0", "speedup": "1.5", "kept": "18-12"},
        "train-dbb": {"rc": "0", "mean_runtime_flops": "150.0"},
        "evaluate": {"rc": "0", "error_pct": "1.0", "runtime_speedup": "2.2",
                     "mean_runtime_flops": "150.0"},
    }


@pytest.mark.parametrize("corrupt, failing", [
    (lambda r: r.__setitem__("prune", None), "every_stage_ok"),
    (lambda r: r["train-dbb"].__setitem__("rc", "2"), "every_stage_ok"),
    (lambda r: r["evaluate"].pop("error_pct"), "every_stage_ok"),
    (lambda r: r["evaluate"].__setitem__("error_pct", "12.5"), "test_error_below_bound"),
    (lambda r: r["evaluate"].__setitem__("runtime_speedup", "1.2"), "runtime_flops_at_most_static"),
])
def test_corrupted_pipeline_results_fail(corrupt, failing):
    assert all(workloads.check_pass(_good_results()).values())
    results = _good_results()
    corrupt(results)
    assert workloads.check_pass(results)[failing] is False


def test_parse_result_reads_the_last_result_line():
    out = "noise\nRESULT a=1 b=x\nRESULT c=2.5\n"
    assert workloads.parse_result(out) == {"c": "2.5"}
    assert workloads.parse_result("no result here") is None
    assert workloads.parse_result("RESULT broken") is None


def test_fails_without_the_package(tmp_path):
    """Outside a checkout the benchmark exits non-zero and prints no result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "train_lenet5_bb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
