"""Threshold pruning, FLOPs/memory accounting, runtime gate statistics, and
class-level gate correlation analysis.

FLOPs are multiply-accumulates only (dense: in*out; conv:
C_out*C_in*k^2*H_out*W_out); biases and activations are excluded, and memory
counts weight entries under the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ContractError, PruneCollapseError
from .gates import MODE_DBB
from .layers import Network, conv_extents, forward_eval

DEFAULT_PRUNE_THRESHOLD = 1e-3

# Correlations that cannot be computed (a zero-variance class average) are
# recorded as this sentinel instead of propagating NaN.
UNDEFINED_CORR = -2.0


def prune_by_threshold(net: Network, threshold: float = DEFAULT_PRUNE_THRESHOLD):
    """Keep sets per gated layer: unit k survives iff E_q[pi_k] >= threshold.

    Uses the input-independent expected keep probability for both gate modes,
    so units pruned in stage 1 can never revive in stage 2.  A dense gate on
    the flattened output of a gated conv layer also drops the positions of
    the channels that layer prunes, so the keep sets count the units of the
    network :func:`~betadrop.layers.shrink` builds.
    """
    extents = conv_extents(net)
    keep_of: dict[int, np.ndarray] = {}
    for li, gate in net.gated_layers():
        keep = np.flatnonzero(gate.expected_pi() >= threshold)
        layer = net.layers[li]
        if layer.kind == "dense" and li - 1 in keep_of and net.layers[li - 1].kind == "conv":
            _, (hy, wx) = extents[li - 1]
            positions = keep if layer.input_select is None else layer.input_select[keep]
            keep = keep[np.isin(positions // (hy * wx), keep_of[li - 1])]
        if keep.size == 0:
            raise PruneCollapseError(
                f"threshold {threshold} prunes every unit of layer {li}"
            )
        keep_of[li] = keep
    return list(keep_of.values())


@dataclass
class LayerCost:
    kind: str
    in_units: int
    out_units: int
    in_gate: int | None
    out_gate: int | None
    mac_per_pair: int  # k^2 * H_out * W_out for conv, 1 for dense
    weights_per_pair: int  # k^2 for conv, 1 for dense


def layer_costs(net: Network) -> list[LayerCost]:
    """Cost descriptors linking each layer's in/out extents to gate indices."""
    gate_index = {li: gi for gi, (li, _) in enumerate(net.gated_layers())}
    extents = conv_extents(net)
    costs: list[LayerCost] = []
    prev_conv_gate: int | None = None
    for i, layer in enumerate(net.layers):
        if layer.kind == "conv":
            (ho, wo), _ = extents[i]
            costs.append(
                LayerCost(
                    "conv",
                    layer.in_channels,
                    layer.out_channels,
                    prev_conv_gate,
                    gate_index.get(i),
                    layer.kernel**2 * ho * wo,
                    layer.kernel**2,
                )
            )
            prev_conv_gate = gate_index.get(i)
        else:
            out_gate = None
            if i + 1 < len(net.layers):
                nxt = net.layers[i + 1]
                if nxt.kind == "dense":
                    out_gate = gate_index.get(i + 1)
            costs.append(
                LayerCost(
                    "dense", layer.in_dim, layer.out_dim,
                    gate_index.get(i), out_gate, 1, 1,
                )
            )
    return costs


def _accumulate(costs: list[LayerCost], counts, per_pair_attr: str) -> int:
    total = 0
    for c in costs:
        n_in = c.in_units if c.in_gate is None or counts is None else int(counts[c.in_gate])
        n_out = c.out_units if c.out_gate is None or counts is None else int(counts[c.out_gate])
        total += n_in * n_out * getattr(c, per_pair_attr)
    return total


def count_flops(net: Network, keep_counts=None) -> tuple[int, int, float]:
    """(original, pruned, speedup) multiply-accumulate counts.

    ``keep_counts`` holds one surviving-unit count per gated layer; omit it
    for the unpruned count (speedup 1.0).
    """
    costs = layer_costs(net)
    if keep_counts is not None and len(keep_counts) != len(net.gated_layers()):
        raise ContractError(
            f"{len(keep_counts)} keep counts for {len(net.gated_layers())} gates"
        )
    orig = _accumulate(costs, None, "mac_per_pair")
    pruned = _accumulate(costs, keep_counts, "mac_per_pair")
    return orig, pruned, orig / pruned


def count_memory(net: Network, keep_counts=None) -> float:
    """Surviving weight count as a percentage of the original (biases excluded)."""
    costs = layer_costs(net)
    orig = _accumulate(costs, None, "weights_per_pair")
    pruned = _accumulate(costs, keep_counts, "weights_per_pair")
    return 100.0 * pruned / orig


def _gate_info_batches(net: Network, dataset: Dataset, batch_size: int = 500):
    """Per batch of ``dataset``, the per-gate (input, expected mask) pairs."""
    if len(dataset) == 0:
        raise ContractError("gate statistics need a non-empty dataset")
    for start in range(0, len(dataset), batch_size):
        yield forward_eval(net, dataset.images[start : start + batch_size],
                           return_gate_info=True)[1]


@dataclass
class RuntimeStats:
    """Per-input runtime pruning statistics for an input-dependent network."""

    kept_per_input: np.ndarray  # (N, G) per-input surviving-unit counts
    mean_kept: np.ndarray  # (G,) running average over the inputs
    flops_per_input: np.ndarray  # (N,)
    mean_flops: float
    static_flops: int  # the network as-is, no runtime pruning


def runtime_prune_stats(net: Network, dataset: Dataset,
                        threshold: float = DEFAULT_PRUNE_THRESHOLD,
                        batch_size: int = 500) -> RuntimeStats:
    """Count, per test input, the units whose expected mask clears ``threshold``.

    Per-input FLOPs use the same accounting as :func:`count_flops` with that
    input's per-gate counts.
    """
    gates = net.gates()
    if not gates:
        raise ContractError("runtime statistics require gated layers")
    if any(g.mode != MODE_DBB for g in gates):
        raise ContractError("runtime statistics require DBB-mode gates")
    kept = np.concatenate([
        np.stack([(mask >= threshold).sum(axis=1) for _, mask in info], axis=1)
        for info in _gate_info_batches(net, dataset, batch_size)
    ])
    costs = layer_costs(net)
    flops = np.array(
        [_accumulate(costs, row, "mac_per_pair") for row in kept], dtype=np.float64
    )
    static = _accumulate(costs, None, "mac_per_pair")
    return RuntimeStats(
        kept_per_input=kept,
        mean_kept=kept.mean(axis=0),
        flops_per_input=flops,
        mean_flops=float(flops.mean()),
        static_flops=static,
    )


@dataclass
class CorrelationReport:
    """Per gated layer, Pearson correlations between class-average gate vectors."""

    layer_indices: list[int]
    matrices: list[np.ndarray]  # each (C, C); UNDEFINED_CORR marks undefined entries


def _gate_vectors(net: Network, dataset: Dataset) -> list[np.ndarray]:
    """Per gated layer, the (N, K) matrix of per-input expected masks."""
    masks = [[mask for _, mask in info] for info in _gate_info_batches(net, dataset)]
    return [np.concatenate(chunks) for chunks in zip(*masks)]


def class_average_gate_correlation(net: Network, dataset: Dataset) -> CorrelationReport:
    """Correlate the per-class averages of the gate activations phi(x)."""
    classes = np.unique(dataset.labels)
    if any((dataset.labels == c).sum() < 2 for c in classes):
        raise ContractError("correlation analysis needs >= 2 examples per class")
    vectors = _gate_vectors(net, dataset)
    layer_indices = [li for li, _ in net.gated_layers()]
    matrices = []
    for mat in vectors:
        class_mean = np.stack(
            [mat[dataset.labels == c].mean(axis=0) for c in classes]
        )
        c = len(classes)
        corr = np.full((c, c), UNDEFINED_CORR)
        centered = class_mean - class_mean.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1)
        for a in range(c):
            corr[a, a] = 1.0
            for b in range(a + 1, c):
                if norms[a] > 0.0 and norms[b] > 0.0:
                    r = float(centered[a] @ centered[b] / (norms[a] * norms[b]))
                    corr[a, b] = corr[b, a] = min(1.0, max(-1.0, r))
        matrices.append(corr)
    return CorrelationReport(layer_indices, matrices)


def within_cross_gate_correlation(net: Network, dataset: Dataset, layer: int = -1,
                                  max_pairs: int = 2000, seed: int = 0) -> tuple[float, float]:
    """Mean Pearson correlation of per-input gate vectors for same-class vs
    different-class input pairs at one gated layer (default: the last)."""
    from .distributions import make_rng

    mat = _gate_vectors(net, dataset)[layer]
    labels = dataset.labels
    centered = mat - mat.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    ok = norms > 0.0
    rng = make_rng(seed)
    n = mat.shape[0]
    within, cross = [], []
    for _ in range(max_pairs):
        i, j = rng.integers(0, n, size=2)
        if i == j or not (ok[i] and ok[j]):
            continue
        r = float(centered[i] @ centered[j] / (norms[i] * norms[j]))
        (within if labels[i] == labels[j] else cross).append(r)
    if not within or not cross:
        raise ContractError("not enough valid pairs to estimate correlations")
    return float(np.mean(within)), float(np.mean(cross))
