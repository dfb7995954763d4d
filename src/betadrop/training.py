"""SGVB training: minibatched ELBO optimization with Adam and the two-stage
gate-then-refine scheme (input-independent stage, then input-dependent stage
with the keep-probability posterior frozen)."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .analysis import (DEFAULT_PRUNE_THRESHOLD, count_flops, count_memory, evaluate_error,
                       prune_by_threshold)
from .autodiff import Node
from .data import Dataset, batch_iterator, batches_per_epoch
from .distributions import make_rng
from .errors import ContractError, DimensionError, PruneCollapseError, TrainingDivergedError
from .gates import MODE_BB, MODE_DBB
from .layers import RHO_VAR_DEFAULT, Network, forward_train, shrink
from .reporting import SparsityReport

NOISE_SEED_OFFSET = 1_000_003  # decorrelates the noise stream from the shuffle stream
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# KL multipliers per architecture when the config sets none (else all 1): the
# conventional compensation for lenet5_caffe's small conv filter counts
DEFAULT_KL_MULTIPLIERS = {"lenet5_caffe": (20.0, 8.0, 1.0, 1.0)}


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters.

    ``lr_weights`` defaults to 0.1 * lr_variational (weights move slower than
    the variational parameters during fine-tuning; pretraining uses the base
    rate).  ``kl_scale`` >= 1 keeps the scaled objective a valid bound.  Every
    construction (``dataclasses.replace`` too) refuses a setting out of range,
    and a built config's fields cannot be assigned.
    """

    batch_size: int = 100
    lr_variational: float = 1e-3
    lr_weights: float | None = None
    kl_scale: float = 1.0
    per_layer_kl_multipliers: tuple | None = None
    tau: float = 0.1
    rho_var: float = RHO_VAR_DEFAULT
    weight_decay: float = 5e-4
    seed: int = 0

    def effective_lr_weights(self) -> float:
        return 0.1 * self.lr_variational if self.lr_weights is None else self.lr_weights

    def __post_init__(self):
        numbers = (self.lr_variational, self.effective_lr_weights(), self.kl_scale, self.tau,
                   self.rho_var, self.weight_decay, *(self.per_layer_kl_multipliers or ()))
        if not all(np.isfinite(v) for v in numbers):
            raise ContractError(f"training settings must be finite numbers, got {self}")
        if self.kl_scale < 1.0:
            raise ContractError(f"kl_scale must be >= 1, got {self.kl_scale}")
        if self.lr_variational <= 0.0 or self.effective_lr_weights() <= 0.0:
            raise ContractError("learning rates must be positive")
        if self.tau <= 0.0:
            raise ContractError(f"tau must be positive, got {self.tau}")
        if self.batch_size < 1:
            raise ContractError("batch_size must be positive")
        if any(m < 0.0 for m in self.per_layer_kl_multipliers or ()):
            raise ContractError(f"KL multipliers must be >= 0, got {self.per_layer_kl_multipliers}")
        if self.rho_var <= 0.0:
            raise ContractError(f"rho_var must be positive, got {self.rho_var}")
        if self.weight_decay < 0.0:
            raise ContractError(f"weight_decay must be non-negative, got {self.weight_decay}")

    def multipliers_for(self, net: Network) -> tuple:
        """One KL multiplier per gate: as configured, else the defaults of ``net``'s arch."""
        gates = net.gates()
        mult = self.per_layer_kl_multipliers
        if mult is None:
            mult = DEFAULT_KL_MULTIPLIERS.get(net.meta.get("arch"), (1.0,) * len(gates))
        mult = tuple(float(m) for m in mult)
        if len(mult) != len(gates):
            raise ContractError(
                f"{len(mult)} KL multipliers for {len(gates)} gated layers"
            )
        return mult


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one parameter group."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Node]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.value) for p in params],
            v=[np.zeros_like(p.value) for p in params],
        )


def adam_step(params: list[Node], grads: list[np.ndarray], state: AdamState,
              lr: float) -> list[Node]:
    """One in-place Adam update; reads ``grads``, writes ``param.value``.
    Each array is updated by :func:`~betadrop.autodiff.run_elementwise`, so a
    large one in two shares of its elements."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    update = functools.partial(_adam_update, c1, c2, lr)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter {p.value.shape}"
            )
        # the two scratch buffers are allocated here, not in a share
        ad.run_elementwise(update, p.value, g, m, v, np.empty(m.shape), np.empty(m.shape))
    return params


def _adam_update(c1: float, c2: float, lr: float, p: np.ndarray, g: np.ndarray, m: np.ndarray,
                 v: np.ndarray, step: np.ndarray, denom: np.ndarray) -> None:
    """Adam in place on a parameter (or a slice of one), its moments and two
    scratch buffers, from its gradient.  A ufunc's third argument is its
    output, given by position, which costs less than a keyword on the many
    small arrays of a dense network."""
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, step)
    v *= ADAM_BETA2
    v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, denom), denom)
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
    np.divide(m, c1, step)
    step *= lr
    np.divide(v, c2, denom)
    np.sqrt(denom, denom)
    denom += ADAM_EPS
    step /= denom
    p -= step


def elbo_loss(net: Network, batch: tuple[np.ndarray, np.ndarray], n_total: int,
              config: TrainConfig, rng) -> tuple[Node, dict]:
    """Negative-ELBO minibatch estimator (a quantity to *minimize*).

    loss = N * mean_batch NLL + kl_scale * sum_layers(mult * KL)
         + weight_decay * 0.5 * ||W||^2

    from one stochastic forward sample, as one node over the NLL node, the
    per-gate KL nodes and the weights, with gradients ``g * N``,
    ``(g * kl_scale) * mult`` and ``(g * weight_decay) * W``.
    """
    x, y = batch
    logits, kls = forward_train(net, x, rng, tau=config.tau, rho_var=config.rho_var)
    nll = ad.softmax_cross_entropy(logits, y)
    n, kl_scale, wd = float(n_total), config.kl_scale, config.weight_decay
    mult = config.multipliers_for(net) if kls else ()
    weights = net.weight_nodes() if wd > 0.0 else []
    kl = sum(term.value * m for m, term in zip(mult, kls))
    reg = sum((w.value * w.value).sum() for w in weights)
    value = nll.value * n + kl * kl_scale + reg * (0.5 * wd)

    def vjp(g):
        g_kl = g * kl_scale
        return [g * n, *(g_kl * m for m in mult), *((g * wd) * w.value for w in weights)]

    loss = ad.fused(value, [nll, *kls, *weights], vjp)
    return loss, {"nll": float(nll.value), "kl": float(kl)}


def _expected_flops(net: Network) -> float:
    """MACs of the network that pruning at the default threshold would leave."""
    try:
        counts = [k.size for k in prune_by_threshold(net)]
    except PruneCollapseError:  # a gate momentarily empty mid-training
        return float("nan")
    return float(count_flops(net, counts)[1])


class MetricsLog:
    """Per-epoch run log: CSV lines epoch,nll,kl,train_err,test_err,expected_flops,
    written from the first row on, so a run that ends before one epoch leaves no log."""

    HEADER = "epoch,nll,kl,train_err,test_err,expected_flops"

    def __init__(self, path):
        self.path = path
        self._head = self.HEADER + "\n"  # until the first row is written

    def append(self, epoch, nll, kl, train_err, test_err, flops):
        row = f"{epoch},{nll:.6f},{kl:.6f},{train_err:.4f},{test_err:.4f},{flops:.1f}"
        with open(self.path, "w" if self._head else "a", encoding="utf-8") as fh:
            fh.write(self._head + row + "\n")
        self._head = ""


def _train(net: Network, data: Dataset, config: TrainConfig, epochs: int,
           gate_mode: str | None, eval_data: Dataset | None,
           log: MetricsLog | None) -> list[float]:
    """The one training loop behind every stage; returns the loss sequence.

    It first calls ``net.set_gate_mode(gate_mode)``.  ``gate_mode`` None
    drops the gates and trains every parameter at ``lr_variational``.
    MODE_BB (default BB gates on a network without them) and MODE_DBB train
    the weights at ``effective_lr_weights()`` and the gates' trainable
    parameters at ``lr_variational``.  In MODE_DBB the Kumaraswamy raws
    (q(pi)) are read-only constants.
    """
    n_total = len(data)
    per_epoch = batches_per_epoch(n_total, config.batch_size)
    # built first: a dataset it cannot batch is refused before the network changes
    stream = batch_iterator(data, config.batch_size, seed=config.seed, epochs=epochs)
    net.set_gate_mode(gate_mode)
    if gate_mode is None:
        rates = [(net.parameters(), config.lr_variational)]
    else:
        rates = [(net.parameters(), config.effective_lr_weights()),
                 (net.variational_parameters(), config.lr_variational)]
    groups = [(params, AdamState.for_params(params), lr) for params, lr in rates]
    all_params = [p for params, _ in rates for p in params]
    noise_rng = make_rng(config.seed + NOISE_SEED_OFFSET)
    losses: list[float] = []
    step = 0
    for epoch in range(epochs):
        epoch_nll = 0.0
        epoch_kl = 0.0
        for x, y in (next(stream) for _ in range(per_epoch)):
            ad.zero_gradients(all_params)
            loss, parts = elbo_loss(net, (x, y), n_total, config, noise_rng)
            if not np.isfinite(loss.value):
                raise TrainingDivergedError(step)
            ad.backward(loss)
            for params, state, lr in groups:
                adam_step(params, [p.grad for p in params], state, lr)
            # relu maps a NaN pre-activation to 0, so a NaN weight can leave the loss finite
            if not all(np.isfinite(p.value).all() for p in all_params):
                raise TrainingDivergedError(step)
            losses.append(float(loss.value))
            epoch_nll += parts["nll"]
            epoch_kl += parts["kl"]
            step += 1
        if log is not None:
            train_err = evaluate_error(net, data) if len(data) <= 20000 else float("nan")
            test_err = evaluate_error(net, eval_data) if eval_data is not None else float("nan")
            log.append(
                epoch, epoch_nll / per_epoch, epoch_kl / per_epoch,
                train_err, test_err, _expected_flops(net),
            )
    net.meta["stage"] = gate_mode or "pretrained"  # a gated stage is named after its mode
    return losses


def pretrain(net: Network, data: Dataset, config: TrainConfig, epochs: int,
             eval_data: Dataset | None = None, log: MetricsLog | None = None) -> list[float]:
    """Plain NLL + weight-decay training; drops the network's gates first."""
    return _train(net, data, config, epochs, None, eval_data, log)


def finetune_bb(net: Network, data: Dataset, config: TrainConfig, epochs: int,
                eval_data: Dataset | None = None, log: MetricsLog | None = None) -> list[float]:
    """Stage 1: SGVB over weights (slow rate) and Kumaraswamy parameters."""
    return _train(net, data, config, epochs, MODE_BB, eval_data, log)


def finetune_dbb(net: Network, data: Dataset, config: TrainConfig, epochs: int,
                 eval_data: Dataset | None = None, log: MetricsLog | None = None) -> list[float]:
    """Stage 2: freeze q(pi), train the input-dependent gate (and weights).
    The network must come out of stage 1 (trained and threshold-pruned)."""
    return _train(net, data, config, epochs, MODE_DBB, eval_data, log)


def prune(net: Network, threshold: float = DEFAULT_PRUNE_THRESHOLD,
          fold_masks: bool = False) -> Network:
    """Threshold-prune and shrink ``net``.  The smaller network's meta holds
    the stage, the original FLOPs, the speedup, memory and the kept counts."""
    keeps = prune_by_threshold(net, threshold)
    counts = [int(k.size) for k in keeps]
    orig, _, speedup = count_flops(net, counts)
    memory = count_memory(net, counts)
    small = shrink(net, keeps, fold_masks=fold_masks)
    small.meta.update(stage="bb_pruned", flops_orig=orig, speedup=speedup, memory_pct=memory,
                      kept_counts=counts)
    return small


class Stages(NamedTuple):
    bb: Network  # BB-trained, pruned and shrunk
    dbb: Network | None  # None without DBB epochs
    report: SparsityReport  # the BB row, as ``sweep`` writes it


def run_stages(net: Network, train: Dataset, test: Dataset, config: TrainConfig,
               bb_epochs: int, dbb_epochs: int = 0,
               threshold: float = DEFAULT_PRUNE_THRESHOLD, fold_masks: bool = False) -> Stages:
    """The two stages from a pretrained ``net``: BB fine-tuning in place, then
    :func:`prune`; with ``dbb_epochs``, DBB fine-tuning of a second pruned copy,
    never folded, so the BB-pruned network stays as it was."""
    finetune_bb(net, train, config, epochs=bb_epochs)
    bb = prune(net, threshold, fold_masks)
    report = SparsityReport(
        method="bb", kl_scale=config.kl_scale, error_pct=evaluate_error(bb, test),
        speedup=bb.meta["speedup"], memory_pct=bb.meta["memory_pct"],
        kept_counts=bb.meta["kept_counts"],
    )
    dbb = None
    if dbb_epochs > 0:
        dbb = prune(net, threshold)
        finetune_dbb(dbb, train, config, epochs=dbb_epochs)
    return Stages(bb, dbb, report)


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic child seed for parallel sweep runs."""
    ss = np.random.SeedSequence([int(base_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])
