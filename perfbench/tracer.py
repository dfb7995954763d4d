"""Outside-in tracing of the betadrop package.

:class:`Tracer` wraps the public functions of each betadrop module at run
time (nothing under ``src/`` is edited), records one span per call -- name,
start, end, parent -- in memory, and turns the spans into per-layer metrics
when the traced phase ends.  Every autodiff op's returned backward closure is
wrapped too, so backward time is attributed per op.

Names imported into another module (``layers`` imports the gate builders,
``cli`` imports ``shrink``, ``save_checkpoint`` and friends) are patched
wherever the original object is bound, so the traced run sees every call.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

# autodiff names that are not ops: leaves, helpers, and the graph walk.
_NOT_OPS = {"Node", "as_tensor", "constant", "parameter", "backward", "zero_gradients"}
_BIG_OPS = {"conv2d", "maxpool2x2", "matmul"}

# Per-layer metrics: name -> (unit, how the value is derived).  Times are in
# ms per benchmark op (a training step, an inference pass or a pipeline pass).
#   ("self", spans)   sum of the spans' self times
#   ("incl", spans)   sum of the spans' inclusive times
#   ("count", key)    a counter kept by the tracer, per op
PER_LAYER = {
    "autodiff.conv2d_fwd_ms": ("ms", ("self", ["autodiff.conv2d"])),
    "autodiff.conv2d_bwd_ms": ("ms", ("self", ["autodiff.conv2d.bw"])),
    "autodiff.maxpool_fwd_ms": ("ms", ("self", ["autodiff.maxpool2x2"])),
    "autodiff.maxpool_bwd_ms": ("ms", ("self", ["autodiff.maxpool2x2.bw"])),
    "autodiff.matmul_fwd_ms": ("ms", ("self", ["autodiff.matmul"])),
    "autodiff.matmul_bwd_ms": ("ms", ("self", ["autodiff.matmul.bw"])),
    "autodiff.backward_ms": ("ms", ("incl", ["autodiff.backward"])),
    "autodiff.backward_self_ms": ("ms", ("self", ["autodiff.backward"])),
    "autodiff.other_ops_ms": ("ms", ("self", "other_ops")),
    "autodiff.nodes_per_step": ("count", ("count", "nodes")),
    "autodiff.grad_bytes_alloc": ("bytes", ("count", "grad_bytes")),
    "gates.mask_graph_ms": ("ms", ("incl", ["gates.mask_graph"])),
    "gates.kl_graph_ms": ("ms", ("incl", ["gates.kl_graph"])),
    "gates.nodes_per_step": ("count", ("count", "gate_nodes")),
    "gates.expected_mask_ms": ("ms", ("incl", ["gates.expected_mask"])),
    "gates.update_running_stats_ms": ("ms", ("incl", ["gates.update_running_stats"])),
    "layers.forward_train_ms": ("ms", ("self", ["layers.forward_train"])),
    "layers.forward_eval_batched_ms": ("ms", ("incl", ["layers.forward_eval_batched"])),
    "layers.forward_eval_b1_ms": ("ms", ("incl", ["layers.forward_eval_b1"])),
    "layers.shrink_ms": ("ms", ("incl", ["layers.shrink"])),
    "training.step_ms": ("ms", ("incl", ["bench.step"])),
    "training.forward_ms": ("ms", ("incl", ["training.elbo_loss"])),
    "training.adam_ms": ("ms", ("incl", ["training.adam_step"])),
    "training.step_other_ms": ("ms", ("step_other", None)),
    "training.evaluate_error_ms": ("ms", ("incl", ["training.evaluate_error"])),
    "data.batch_wait_ms": ("ms", ("incl", ["data.batch_wait"])),
    "data.generate_ms": ("ms", ("incl", ["data.generate"])),
    "analysis.runtime_prune_stats_ms": ("ms", ("incl", ["analysis.runtime_prune_stats"])),
    "analysis.accounting_ms": ("ms", ("incl", ["analysis.accounting"])),
    "checkpoint.save_ms": ("ms", ("incl", ["checkpoint.save"])),
    "checkpoint.load_ms": ("ms", ("incl", ["checkpoint.load"])),
    "checkpoint.bytes": ("bytes", ("count", "checkpoint_bytes")),
    "config.load_ms": ("ms", ("incl", ["config.load"])),
    **{
        f"cli.stage_ms.{stage}": ("ms", ("incl", [f"bench.stage.{stage}"]))
        for stage in ("pretrain", "train-bb", "prune", "train-dbb", "evaluate")
    },
}

# Spans whose sum is the step, for training.step_other_ms.
_STEP_PARTS = ["training.elbo_loss", "autodiff.backward", "training.adam_step"]


class Tracer:
    """Span recorder plus the runtime patches that feed it."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"nodes": 0, "gate_nodes": 0, "grad_bytes": 0, "checkpoint_bytes": 0}
        self._interior_bytes = 0
        self._gate_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""
        nid = self._name_id(name)
        sid, parent, start, end, stack = self.sid, self.parent, self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            i = len(sid)
            sid.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, original, wrapped) -> None:
        """Rebind ``original`` to ``wrapped`` in every betadrop module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "betadrop" or modname.startswith("betadrop.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap the public entry points of every betadrop module."""
        from betadrop import analysis, autodiff, checkpoint, config, data, gates, layers, training
        for name in autodiff.__all__:
            if name not in _NOT_OPS:
                self._patch(getattr(autodiff, name), self._op(f"autodiff.{name}", getattr(autodiff, name)))
        self._patch(autodiff.backward, self._backward(autodiff.backward))
        self._set(autodiff.Node, "__init__", self._node_init(autodiff.Node.__init__))
        self._set(autodiff.Node, "zero_grad", self._zero_grad(autodiff.Node.zero_grad))

        for fn in (gates.sample_pi_node, gates.beta_sample_node, gates.dbb_phi_node,
                   gates.concrete_mask_node):
            self._patch(fn, self._gate_graph("gates.mask_graph", fn))
        for fn in (gates.kl_bb_node, gates.kl_beta_gaussian_node):
            self._patch(fn, self._gate_graph("gates.kl_graph", fn))
        for attr in ("expected_mask", "update_running_stats"):
            self._set(gates.GateState, attr, self.timed(f"gates.{attr}", getattr(gates.GateState, attr)))

        self._patch(layers.forward_train, self.timed("layers.forward_train", layers.forward_train))
        self._patch(layers.forward_eval, self._forward_eval(layers.forward_eval))
        self._patch(layers.shrink, self.timed("layers.shrink", layers.shrink))

        self._patch(training.elbo_loss, self.timed("training.elbo_loss", training.elbo_loss))
        self._patch(training.adam_step, self.timed("training.adam_step", training.adam_step))
        self._patch(training.evaluate_error,
                    self.timed("training.evaluate_error", training.evaluate_error))

        self._patch(data.batch_iterator, self._batches(data.batch_iterator))
        for fn in (data.synthetic_two_cluster, data.synthetic_planted_sparsity, data.load_idx):
            self._patch(fn, self.timed("data.generate", fn))

        self._patch(analysis.runtime_prune_stats,
                    self.timed("analysis.runtime_prune_stats", analysis.runtime_prune_stats))
        for fn in (analysis.count_flops, analysis.count_memory, analysis.prune_by_threshold):
            self._patch(fn, self.timed("analysis.accounting", fn))

        self._patch(checkpoint.save_checkpoint, self._save(checkpoint.save_checkpoint))
        self._patch(checkpoint.load_checkpoint,
                    self.timed("checkpoint.load", checkpoint.load_checkpoint))
        self._patch(config.load_config, self.timed("config.load", config.load_config))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrapper factories -------------------------------------------------

    def _op(self, name: str, fn):
        forward = self.timed(name, fn)
        bw_name = name + ".bw"

        def op(*args, **kwargs):
            out = forward(*args, **kwargs)
            if out._backward_fn is not None:
                out._backward_fn = self.timed(bw_name, out._backward_fn)
            return out

        return op

    def _backward(self, fn):
        timed = self.timed("autodiff.backward", fn)

        def backward(loss):
            # Every interior node gets a fresh zeroed grad buffer in backward.
            self.counts["grad_bytes"] += self._interior_bytes
            self._interior_bytes = 0
            return timed(loss)

        return backward

    def _node_init(self, init):
        counts = self.counts

        def node_init(node, value, parents=(), backward_fn=None):
            init(node, value, parents, backward_fn)
            nbytes = node.grad.nbytes
            counts["nodes"] += 1
            counts["grad_bytes"] += nbytes
            if parents:
                self._interior_bytes += nbytes
            if self._gate_depth:
                counts["gate_nodes"] += 1

        return node_init

    def _zero_grad(self, fn):
        counts = self.counts

        def zero_grad(node):
            fn(node)
            counts["grad_bytes"] += node.grad.nbytes

        return zero_grad

    def _gate_graph(self, name: str, fn):
        timed = self.timed(name, fn)

        def gate_graph(*args, **kwargs):
            self._gate_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._gate_depth -= 1

        return gate_graph

    def _forward_eval(self, fn):
        """Batch-1 calls, batched calls made by ``evaluate_error``, and the
        rest (such as ``runtime_prune_stats``) each get their own span name."""
        b1 = self.timed("layers.forward_eval_b1", fn)
        batched = self.timed("layers.forward_eval_batched", fn)
        other = self.timed("layers.forward_eval_other", fn)
        evaluate_id = self._name_id("training.evaluate_error")
        sid, stack = self.sid, self._stack

        def forward_eval(net, x, *args, **kwargs):
            if len(x) == 1:
                timed = b1
            elif stack[-1] >= 0 and sid[stack[-1]] == evaluate_id:
                timed = batched
            else:
                timed = other
            return timed(net, x, *args, **kwargs)

        return forward_eval

    def _batches(self, fn):
        def batch_iterator(*args, **kwargs):
            wait = self.timed("data.batch_wait", fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = wait()
                except StopIteration:
                    return
                yield item

        return batch_iterator

    def _save(self, fn):
        timed = self.timed("checkpoint.save", fn)

        def save_checkpoint(net, path):
            timed(net, path)
            self.counts["checkpoint_bytes"] += os.path.getsize(path)

        return save_checkpoint

    def start_op(self) -> None:
        """Mark the start of one benchmark op (bytes pending a backward reset)."""
        self._interior_bytes = 0

    # -- results -----------------------------------------------------------

    def _durations(self):
        n = len(self.sid)
        sid = np.frombuffer(self.sid, dtype=np.int32, count=n).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).astype(np.intp)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        incl = np.bincount(sid, weights=dur, minlength=k)
        self_t = np.bincount(sid, weights=dur - child, minlength=k)
        return dict(zip(self.names, incl)), dict(zip(self.names, self_t))

    def per_layer(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, each per benchmark op (``ops`` ops were traced)."""
        incl, self_t = self._durations()
        other = [
            n for n in self.names
            if n.startswith("autodiff.") and n != "autodiff.backward"
            and n.split(".")[1] not in _BIG_OPS
        ]
        out = {}
        for metric, (_, (how, what)) in PER_LAYER.items():
            if how == "count":
                value = self.counts[what]
            elif how == "step_other":
                step = incl.get("bench.step", 0.0)
                value = 1e3 * (step - sum(incl.get(n, 0.0) for n in _STEP_PARTS)) if step else 0.0
            else:
                names = other if what == "other_ops" else what
                table = self_t if how == "self" else incl
                value = 1e3 * sum(table.get(n, 0.0) for n in names)
            out[metric] = value / max(ops, 1)
        return out

    def self_times_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms, largest first."""
        _, self_t = self._durations()
        return dict(sorted(((k, 1e3 * v) for k, v in self_t.items()), key=lambda kv: -kv[1]))

    def write(self, path: str) -> None:
        """Write every span to an ``.npz``: name id, start and end (seconds from
        the first span) and parent index (-1 for a root), plus the name table."""
        n = len(self.sid)
        start = np.frombuffer(self.start, count=n)
        t0 = start[0] if n else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.sid, dtype=np.int32, count=n),
                 start=start - t0, end=np.frombuffer(self.end, count=n) - t0,
                 parent=np.frombuffer(self.parent, dtype=np.int32, count=n))
