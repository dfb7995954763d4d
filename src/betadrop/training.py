"""SGVB training: minibatched ELBO optimization with Adam and the two-stage
gate-then-refine scheme (input-independent stage, then input-dependent stage
with the keep-probability posterior frozen)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .analysis import count_flops, prune_by_threshold
from .autodiff import Node
from .data import Dataset, batch_iterator, batches_per_epoch
from .distributions import LOGIT_EPS, make_rng
from .errors import (
    ContractError,
    DimensionError,
    InvariantViolationError,
    PruneCollapseError,
    TrainingDivergedError,
)
from .gates import MODE_BB, MODE_DBB
from .layers import RHO_VAR_DEFAULT, Network, forward_eval, forward_train

NOISE_SEED_OFFSET = 1_000_003  # decorrelates the noise stream from the shuffle stream
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """All training hyperparameters.

    ``lr_weights`` defaults to 0.1 * lr_variational (weights move slower than
    the variational parameters during fine-tuning; pretraining uses the base
    rate).  ``kl_scale`` >= 1 keeps the scaled objective a valid bound.
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
    logit_eps: float = LOGIT_EPS

    def effective_lr_weights(self) -> float:
        return 0.1 * self.lr_variational if self.lr_weights is None else self.lr_weights

    def validate(self) -> "TrainConfig":
        if self.kl_scale < 1.0:
            raise ContractError(f"kl_scale must be >= 1, got {self.kl_scale}")
        if self.lr_variational <= 0.0 or self.effective_lr_weights() <= 0.0:
            raise ContractError("learning rates must be positive")
        if self.tau <= 0.0:
            raise ContractError(f"tau must be positive, got {self.tau}")
        if self.batch_size < 1:
            raise ContractError("batch_size must be positive")
        if not 0.0 < self.logit_eps < 0.5:
            raise ContractError(f"logit_eps must lie in (0, 0.5), got {self.logit_eps}")
        return self

    def multipliers_for(self, net: Network) -> tuple:
        gates = net.gates()
        if self.per_layer_kl_multipliers is None:
            return tuple(1.0 for _ in gates)
        mult = tuple(float(m) for m in self.per_layer_kl_multipliers)
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
    """One in-place Adam update; reads ``grads``, writes ``param.value``."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter {p.value.shape}"
            )
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in two temporary buffers
        step = m / c1
        step *= lr
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p.value -= step
    return params


def elbo_loss(net: Network, batch: tuple[np.ndarray, np.ndarray], n_total: int,
              config: TrainConfig, rng, force_masks: dict | None = None) -> tuple[Node, dict]:
    """Negative-ELBO minibatch estimator (a quantity to *minimize*).

    loss = N * mean_batch NLL + kl_scale * sum_layers(mult * KL)
         + weight_decay * 0.5 * ||W||^2

    from one stochastic forward sample, as one node over the NLL node, the
    per-gate KL nodes and the weights, with gradients ``g * N``,
    ``(g * kl_scale) * mult`` and ``(g * weight_decay) * W``.
    """
    x, y = batch
    if x.shape[0] == 0:
        raise ContractError("empty minibatch")
    logits, kls = forward_train(
        net, x, rng, tau=config.tau, rho_var=config.rho_var,
        logit_eps=config.logit_eps, force_masks=force_masks,
    )
    _check_labels(y, logits.value)
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


def _check_labels(labels: np.ndarray, logits: np.ndarray) -> None:
    """Raise DimensionError unless every label names a column of the logits."""
    width = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= width):
        raise DimensionError(f"labels must lie in [0, {width}) for a network with {width} outputs")


def evaluate_error(net: Network, dataset: Dataset, batch_size: int = 500) -> float:
    """Top-1 error percentage of the deterministic evaluation pass."""
    if len(dataset) == 0:
        raise ContractError("cannot evaluate on an empty dataset")
    wrong = 0
    for start in range(0, len(dataset), batch_size):
        x = dataset.images[start : start + batch_size]
        y = dataset.labels[start : start + batch_size]
        logits = forward_eval(net, x)
        _check_labels(y, logits)
        wrong += int((logits.argmax(axis=1) != y).sum())
    return 100.0 * wrong / len(dataset)


def _expected_flops(net: Network) -> float:
    """MACs of the network that pruning at the default threshold would leave."""
    if not net.gates():
        return float(count_flops(net)[0])
    try:
        counts = [k.size for k in prune_by_threshold(net)]
    except PruneCollapseError:  # a gate momentarily empty mid-training
        return float("nan")
    return float(count_flops(net, counts)[1])


class MetricsLog:
    """Per-epoch run log: CSV lines epoch,nll,kl,train_err,test_err,expected_flops."""

    HEADER = "epoch,nll,kl,train_err,test_err,expected_flops"

    def __init__(self, path=None):
        self.path = path
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.HEADER + "\n")

    def append(self, epoch, nll, kl, train_err, test_err, flops):
        row = f"{epoch},{nll:.6f},{kl:.6f},{train_err:.4f},{test_err:.4f},{flops:.1f}"
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(row + "\n")


def _run_epochs(net: Network, data: Dataset, config: TrainConfig, epochs: int,
                groups: list[tuple[list[Node], AdamState, float]],
                eval_data: Dataset | None, log: MetricsLog | None,
                after_step=None) -> list[float]:
    noise_rng = make_rng(config.seed + NOISE_SEED_OFFSET)
    n_total = len(data)
    losses: list[float] = []
    step = 0
    per_epoch = batches_per_epoch(n_total, config.batch_size)
    stream = batch_iterator(data, config.batch_size, seed=config.seed, epochs=epochs)
    for epoch in range(epochs):
        epoch_nll = 0.0
        epoch_kl = 0.0
        nbatches = 0
        for x, y in (next(stream) for _ in range(per_epoch)):
            all_params = [p for params, _, _ in groups for p in params]
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
            if after_step is not None:
                after_step(step)
            losses.append(float(loss.value))
            epoch_nll += parts["nll"]
            epoch_kl += parts["kl"]
            nbatches += 1
            step += 1
        if log is not None:
            train_err = evaluate_error(net, data) if len(data) <= 20000 else float("nan")
            test_err = evaluate_error(net, eval_data) if eval_data is not None else float("nan")
            log.append(
                epoch, epoch_nll / nbatches, epoch_kl / nbatches,
                train_err, test_err, _expected_flops(net),
            )
    return losses


def pretrain(net: Network, data: Dataset, config: TrainConfig, epochs: int,
             eval_data: Dataset | None = None, log: MetricsLog | None = None) -> list[float]:
    """Plain NLL + weight-decay training with gates disabled; returns the loss
    sequence."""
    net.gates_enabled = False
    params = net.parameters()
    groups = [(params, AdamState.for_params(params), config.lr_variational)]
    losses = _run_epochs(net, data, config, epochs, groups, eval_data, log)
    net.meta["stage"] = "pretrained"
    return losses


def finetune_bb(net: Network, data: Dataset, config: TrainConfig, epochs: int,
                eval_data: Dataset | None = None, log: MetricsLog | None = None) -> list[float]:
    """Stage 1: SGVB over weights (slow rate) and Kumaraswamy parameters."""
    net.gates_enabled = True
    net.set_gate_mode(MODE_BB)
    weights = net.parameters()
    variational = net.variational_parameters()
    groups = [
        (weights, AdamState.for_params(weights), config.effective_lr_weights()),
        (variational, AdamState.for_params(variational), config.lr_variational),
    ]
    losses = _run_epochs(net, data, config, epochs, groups, eval_data, log)
    net.meta["stage"] = "bb"
    return losses


def finetune_dbb(net: Network, data: Dataset, config: TrainConfig, epochs: int,
                 eval_data: Dataset | None = None, log: MetricsLog | None = None) -> list[float]:
    """Stage 2: freeze q(pi), train the input-dependent gate (and weights).

    The network must come out of stage 1 (trained and threshold-pruned).
    Kumaraswamy raws are bit-checked after every step.
    """
    net.gates_enabled = True
    net.set_gate_mode(MODE_DBB)
    weights = net.parameters()
    variational = net.variational_parameters()  # gamma, eta, kappa_raw in DBB mode
    frozen = [(g.a_raw.value.copy(), g.b_raw.value.copy()) for g in net.gates()]

    def check_frozen(step):
        for g, (a0, b0) in zip(net.gates(), frozen):
            if not (
                np.array_equal(g.a_raw.value, a0) and np.array_equal(g.b_raw.value, b0)
            ):
                raise InvariantViolationError(
                    f"keep-probability posterior changed at step {step}"
                )

    groups = [
        (weights, AdamState.for_params(weights), config.effective_lr_weights()),
        (variational, AdamState.for_params(variational), config.lr_variational),
    ]
    losses = _run_epochs(net, data, config, epochs, groups,
                         eval_data, log, after_step=check_frozen)
    net.meta["stage"] = "dbb"
    return losses


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic child seed for parallel sweep runs."""
    ss = np.random.SeedSequence([int(base_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])
