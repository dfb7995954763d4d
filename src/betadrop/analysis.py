"""Threshold pruning, FLOPs/memory accounting, runtime gate statistics, and
class-level gate correlation analysis.

FLOPs are multiply-accumulates only (dense: in*out; conv:
C_out*C_in*k^2*H_out*W_out); biases and activations are excluded, and memory
counts weight entries under the same convention.  Every count goes through
:func:`~betadrop.layers.unit_map`, on keep sets statically and per input at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .distributions import make_rng
from .errors import ContractError, DimensionError, PruneCollapseError
from .gates import MODE_BB
from .layers import LayerUnits, Network, forward_eval, unit_map

DEFAULT_PRUNE_THRESHOLD = 1e-3

# Examples per forward pass of every evaluation, and evaluate_error's default
EVAL_BATCH_SIZE = 500

# Correlations that cannot be computed (a gate vector whose entries are all
# equal) are recorded as this sentinel instead of propagating NaN.
UNDEFINED_CORR = -2.0


def _pearson(rows: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The Pearson correlations of the row pairs ``(i[n], j[n])``, NaN where
    either row's entries are all equal: such a row has no correlation, though
    centering it leaves rounding residue of about 1e-16."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    spread = rows.max(axis=1) > rows.min(axis=1)
    ok = spread[i] & spread[j]
    a, b = i[ok], j[ok]
    r = np.full(ok.shape, np.nan)
    # (1, K) @ (K, 1) per pair: the dot that ``centered[a[n]] @ centered[b[n]]`` takes
    r[ok] = (centered[a][:, None] @ centered[b][..., None])[:, 0, 0] / (norms[a] * norms[b])
    return r


def _kept_masks(units: list[LayerUnits], masks) -> list[np.ndarray]:
    """Per gate, its (..., K) boolean keep mask intersected with the kept sources.

    A dense gate after a conv keeps a row only while the same mask row (one
    per input, or one in all) keeps the conv channel that the row reads.
    """
    masks = list(masks)
    for u, prev in zip(units, [None, *units]):
        if u.source is not None and u.in_gate is not None and prev.out_gate is not None:
            masks[u.in_gate] = masks[u.in_gate] & masks[prev.out_gate][..., u.source]
    return masks


def prune_by_threshold(net: Network, threshold: float = DEFAULT_PRUNE_THRESHOLD):
    """Keep sets per gated layer: unit k survives iff E_q[pi_k] >= threshold.

    Uses the input-independent expected keep probability for both gate modes,
    so units pruned in stage 1 can never revive in stage 2.  A dense gate on
    the flattened output of a gated conv layer also drops the positions of
    the channels that layer prunes, so the keep sets count the units of the
    network :func:`~betadrop.layers.shrink` builds.
    """
    gated = net.gated_layers()
    masks = _kept_masks(unit_map(net), [g.expected_pi() >= threshold for _, g in gated])
    for (li, _), mask in zip(gated, masks):
        if not mask.any():
            raise PruneCollapseError(f"threshold {threshold} prunes every unit of layer {li}")
    return [np.flatnonzero(mask) for mask in masks]


def _pair_total(units: list[LayerUnits], counts, per_pair: str):
    """Sum over layers of kept inputs x kept outputs x the per-pair cost.

    ``counts`` is None (nothing pruned) or one count per gate: (G,) or (N, G).
    """
    total = 0
    for u in units:
        n_in = u.in_units if u.in_gate is None or counts is None else counts[..., u.in_gate]
        n_out = u.out_units if u.out_gate is None or counts is None else counts[..., u.out_gate]
        total = total + n_in * n_out * getattr(u, per_pair)
    return total


def _totals(net: Network, keep_counts, per_pair: str) -> tuple[int, int]:
    """The unpruned and the pruned :func:`_pair_total` of a static network."""
    widths = [g.k for g in net.gates()]
    if keep_counts is not None and (len(keep_counts) != len(widths) or
                                    not all(1 <= c <= k for c, k in zip(keep_counts, widths))):
        raise ContractError(
            f"keep counts must be one count in [1, K] per gate of widths K = {widths}, "
            f"got {list(keep_counts)}"
        )
    units = unit_map(net)
    # Python ints: a large input's per-pair MACs times a count can pass 2**63
    counts = None if keep_counts is None else np.array([int(c) for c in keep_counts], dtype=object)
    return int(_pair_total(units, None, per_pair)), int(_pair_total(units, counts, per_pair))


def count_flops(net: Network, keep_counts=None) -> tuple[int, int, float]:
    """(original, pruned, speedup) multiply-accumulate counts.

    ``keep_counts`` holds one surviving-unit count per gated layer; omit it
    for the unpruned count (speedup 1.0).
    """
    orig, pruned = _totals(net, keep_counts, "macs")
    return orig, pruned, orig / pruned


def count_memory(net: Network, keep_counts=None) -> float:
    """Surviving weight count as a percentage of the original (biases excluded)."""
    orig, pruned = _totals(net, keep_counts, "weights")
    return 100.0 * pruned / orig


def _eval_batches(net: Network, images: np.ndarray, batch_size=EVAL_BATCH_SIZE, masks=False):
    """The one evaluation loop: per batch of ``images``, its rows and its
    ``forward_eval`` output, which holds the batch's masks when ``masks``."""
    if masks and not net.gates():
        raise ContractError("gate statistics require gates")
    if len(images) == 0:
        raise ContractError("evaluation needs a non-empty dataset")
    for start in range(0, len(images), batch_size):
        rows = slice(start, start + batch_size)
        yield rows, forward_eval(net, images[rows], return_masks=masks)


def _misses(logits: np.ndarray, labels: np.ndarray) -> int:
    """How many of ``logits``' top-1 predictions differ from ``labels``."""
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise DimensionError(f"labels must lie in [0, {logits.shape[1]}) for "
                             f"{logits.shape[1]} outputs")
    return int((logits.argmax(axis=1) != labels).sum())


def evaluate_error(net: Network, dataset: Dataset, batch_size: int = EVAL_BATCH_SIZE) -> float:
    """Top-1 error percentage of the deterministic evaluation pass."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be positive, got {batch_size}")
    wrong = sum(_misses(logits, dataset.labels[rows])
                for rows, logits in _eval_batches(net, dataset.images, batch_size))
    return 100.0 * wrong / len(dataset)


def gate_masks(net: Network, images: np.ndarray) -> list[np.ndarray]:
    """Per gated layer, the (N, K) expected masks of the N ``images``, from one
    evaluation pass: the input of both gate correlation statistics."""
    return [np.concatenate(chunks) for chunks in
            zip(*(masks for _, (_, masks) in _eval_batches(net, images, masks=True)))]


@dataclass
class RuntimeStats:
    """Per-input runtime pruning statistics for an input-dependent network."""

    kept_per_input: np.ndarray  # (N, G) per-input surviving-unit counts
    mean_kept: np.ndarray  # (G,) running average over the inputs
    flops_per_input: np.ndarray  # (N,)
    mean_flops: float
    static_flops: int  # the network as-is, no runtime pruning
    error_pct: float  # top-1 error of the same pass, as evaluate_error gives it


def runtime_prune_stats(net: Network, dataset: Dataset,
                        threshold: float = DEFAULT_PRUNE_THRESHOLD) -> RuntimeStats:
    """Count, per test input, the units whose expected mask clears ``threshold``.

    Each input's masks go through the unit map, as keep sets do in
    :func:`prune_by_threshold`: a dense gate after a conv counts a position
    only when the same input's conv mask keeps its channel.  Per-input FLOPs
    are the :func:`count_flops` formula on those per-input counts.
    """
    if net.gate_mode == MODE_BB:
        raise ContractError("runtime statistics require DBB-mode gates")
    units = unit_map(net)
    kept, wrong = [], 0
    for rows, (logits, masks) in _eval_batches(net, dataset.images, masks=True):
        wrong += _misses(logits, dataset.labels[rows])
        kept.append(np.stack([m.sum(axis=1) for m in
                              _kept_masks(units, [mask >= threshold for mask in masks])], axis=1))
    kept = np.concatenate(kept)
    flops = _pair_total(units, kept, "macs").astype(np.float64)
    if not flops.any():
        raise PruneCollapseError(f"threshold {threshold} leaves no multiply-accumulate "
                                 "for any input")
    return RuntimeStats(kept_per_input=kept, mean_kept=kept.mean(axis=0), flops_per_input=flops,
                        mean_flops=float(flops.mean()),
                        static_flops=_pair_total(units, None, "macs"),
                        error_pct=100.0 * wrong / len(dataset))


def _check_rows(mask: np.ndarray, labels: np.ndarray) -> None:
    """A mask matrix must hold one row per label, and at least one row."""
    if len(mask) != len(labels):
        raise DimensionError(f"{len(labels)} labels for a mask matrix of {len(mask)} rows")
    if len(mask) == 0:
        raise ContractError("gate statistics need a non-empty dataset")


def class_average_gate_correlation(masks, labels) -> list[np.ndarray]:
    """Per (N, K) mask matrix of :func:`gate_masks`, the (C, C) Pearson
    correlations between the C classes' average masks, in label order, with
    UNDEFINED_CORR where a class average's entries are all equal."""
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if (counts < 2).any():
        raise ContractError("correlation analysis needs >= 2 examples per class")
    a, b = np.triu_indices(len(classes), k=1)
    matrices = []
    for mask in masks:
        _check_rows(mask, labels)
        class_mean = np.stack([mask[labels == c].mean(axis=0) for c in classes])
        r = _pearson(class_mean, a, b)
        corr = np.eye(len(classes))
        corr[a, b] = corr[b, a] = np.where(np.isnan(r), UNDEFINED_CORR, np.clip(r, -1.0, 1.0))
        matrices.append(corr)
    return matrices


def within_cross_gate_correlation(mask: np.ndarray, labels) -> tuple[float, float]:
    """Mean Pearson correlation of one (N, K) mask matrix's rows over same-class
    and over different-class pairs, of 2000 input pairs drawn with seed 0."""
    labels = np.asarray(labels)
    _check_rows(mask, labels)
    i, j = make_rng(0).integers(0, len(mask), size=(2000, 2)).T
    r = _pearson(mask, i, j)
    valid = (i != j) & ~np.isnan(r)
    same = labels[i] == labels[j]
    within, cross = r[valid & same], r[valid & ~same]
    if not within.size or not cross.size:
        raise ContractError("not enough valid pairs to estimate correlations")
    return float(np.mean(within)), float(np.mean(cross))
