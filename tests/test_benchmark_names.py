"""The names that the benchmark under ``perfbench/`` reads from betadrop, and
the shapes of the calls it makes.

Its tracer wraps functions by identity, in every betadrop module that holds
them, and patches ``GateState.expected_mask`` and ``update_running_stats`` on
the class; its workloads and smoke check call further names.  A dropped or
moved name, or a changed signature, breaks the benchmark while the rest of
this suite still passes.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from betadrop import analysis, autodiff, data, gates, layers, training
from betadrop.checkpoint import load_checkpoint, save_checkpoint
from betadrop.distributions import make_rng
from betadrop.gates import GateState

# module -> the dotted names read from it
BENCHMARK_NAMES = {
    "autodiff": ["backward", "Node.__init__", "Node.zero_grad", *autodiff.__all__],
    "gates": ["sample_pi_node", "beta_sample_node", "dbb_phi_node", "concrete_mask_node",
              "kl_bb_node", "kl_beta_gaussian_node", "GateState.expected_mask",
              "GateState.update_running_stats"],
    "layers": ["forward_train", "forward_eval", "shrink", "concrete_mask_node",
               "build_lenet5_caffe", "build_lenet_500_300", "Network.set_gate_mode"],
    "training": ["elbo_loss", "adam_step", "evaluate_error", "forward_train", "TrainConfig",
                 "finetune_bb", "finetune_dbb"],
    "data": ["batch_iterator", "synthetic_two_cluster", "synthetic_planted_sparsity",
             "load_idx", "Dataset"],
    "analysis": ["runtime_prune_stats", "evaluate_error", "count_flops", "count_memory",
                 "prune_by_threshold"],
    "checkpoint": ["save_checkpoint", "load_checkpoint"],
    "config": ["load_config"],
    "cli": ["main", "shrink"],
}

# names a module holds for the benchmark, which must be the defining object,
# since the tracer finds what to rebind by identity
REEXPORTS = [("layers.concrete_mask_node", "gates.concrete_mask_node"),
             ("cli.shrink", "layers.shrink"), ("training.forward_train", "layers.forward_train"),
             ("training.evaluate_error", "analysis.evaluate_error")]

GATE_GRAPH = ["sample_pi_node", "beta_sample_node", "dbb_phi_node", "concrete_mask_node",
              "kl_bb_node", "kl_beta_gaussian_node"]


def resolve(dotted):
    module, *path = dotted.split(".")
    return functools.reduce(getattr, path, importlib.import_module(f"betadrop.{module}"))


@pytest.mark.parametrize("module", sorted(BENCHMARK_NAMES))
def test_every_name_the_benchmark_reads_exists(module):
    for name in BENCHMARK_NAMES[module]:
        assert callable(resolve(f"{module}.{name}")), f"{module}.{name}"


@pytest.mark.parametrize("held,defined", REEXPORTS)
def test_reexported_names_are_the_defining_objects(held, defined):
    assert resolve(held) is resolve(defined)


def test_every_gate_a_network_holds_is_a_gate_state(tmp_path):
    # a subclass overriding the patched methods would escape the trace
    net = layers.build_lenet5_caffe(seed=0)
    nets = [net]
    net.set_gate_mode(gates.MODE_DBB)
    for g in net.gates():
        g.gamma.value = g.gamma.value + 0.5  # the DBB workload sets these two leaves
        g.eta.value = g.eta.value - 0.1
    layers.forward_train(net, np.zeros((2, 28, 28)) + np.arange(2)[:, None, None],
                         make_rng(0))
    nets.append(layers.shrink(net, [np.arange(0, g.k, 2) for g in net.gates()]))
    save_checkpoint(nets[-1], tmp_path / "net.ckpt")
    nets.append(load_checkpoint(tmp_path / "net.ckpt"))
    assert all(type(g) is GateState for n in nets for g in n.gates())


@pytest.mark.parametrize("dbb", [False, True], ids=["bb", "dbb"])
def test_training_builds_its_gate_graph_through_the_names_the_tracer_rebinds(monkeypatch,
                                                                            dbb):
    # rebind each builder, as the tracer does, in every betadrop module that holds it
    calls = dict.fromkeys(GATE_GRAPH, 0)
    for name in GATE_GRAPH:
        original = getattr(gates, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname == "betadrop" or modname.startswith("betadrop."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    net = layers.build_mlp((6, 5, 2))
    if dbb:
        net.set_gate_mode(gates.MODE_DBB)
    layers.forward_train(net, make_rng(1).normal(size=(4, 6)), make_rng(2))
    per_gate = 2 if dbb else 0
    assert calls == {"sample_pi_node": 2, "kl_bb_node": 2, "concrete_mask_node": 2,
                     "beta_sample_node": per_gate, "dbb_phi_node": per_gate,
                     "kl_beta_gaussian_node": per_gate}


def test_the_benchmark_calls_keep_their_shapes(monkeypatch):
    # the tracer reads each batch iterator through its __next__
    iterators = []
    original = data.batch_iterator

    def traced(*args, **kwargs):
        wait = original(*args, **kwargs).__next__
        iterators.append(wait)
        while True:
            try:
                item = wait()
            except StopIteration:
                return
            yield item

    monkeypatch.setattr(training, "batch_iterator", traced)
    # a train workload's step: one finetune call on one batch, again and again on one network
    batch = data.synthetic_two_cluster(10, 6, seed=0)
    net = layers.build_mlp((6, 5, 2), seed=0)
    config = training.TrainConfig(batch_size=10, seed=0)
    for _ in range(2):
        assert len(training.finetune_dbb(net, batch, config, epochs=1)) == 1
    assert len(iterators) == 2
    # the inference workload
    test = data.synthetic_two_cluster(30, 6, seed=1)
    assert 0.0 <= training.evaluate_error(net, test, batch_size=500) <= 100.0
    stats = analysis.runtime_prune_stats(net, test, 1e-3)
    assert stats.kept_per_input.shape == (30, 2)


def test_runtime_stats_count_alike_under_the_tracer():
    # the tracer's forward_eval wrapper names each call by len(x) and by its
    # caller's span, and passes the rest of the call through
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    net = layers.build_mlp((6, 5, 2), seed=0)
    net.set_gate_mode(gates.MODE_DBB)
    layers.forward_train(net, make_rng(1).normal(size=(40, 6)), make_rng(2))
    test = data.synthetic_two_cluster(501, 6, seed=1)  # batches of 500 and of 1
    # each call, read from the module the benchmark reads it from, and the
    # spans its traced call must record once each
    cases = [(lambda: analysis.runtime_prune_stats(net, test, 1e-3).kept_per_input,
              ["layers.forward_eval_other", "layers.forward_eval_b1"]),
             (lambda: training.evaluate_error(net, test, batch_size=500),
              ["training.evaluate_error", "layers.forward_eval_batched",
               "layers.forward_eval_b1"])]
    for call, names in cases:
        untraced = call()
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            traced = call()
        finally:
            tracer.uninstall()
        assert np.array_equal(traced, untraced)
        spans = [tracer.names[i] for i in tracer.sid]
        assert [spans.count(name) for name in names] == [1] * len(names), spans
