"""Per-layer dropout gate state and its differentiable sampling rules.

A :class:`GateState` owns the variational parameters of one gated layer:
Kumaraswamy shapes (a_k, b_k) for the keep probabilities, and, for the
input-dependent mode, the scale/shift parameters of the standardized-input
gate together with running input statistics.

Trainable fields are stored as autodiff leaf :class:`~betadrop.autodiff.Node`
objects so the same state plugs directly into training graphs; the
evaluation-time mask :meth:`GateState.expected_mask` reads their ``.value``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .distributions import (
    EULER_GAMMA,
    LOGIT_EPS,
    kumaraswamy_mean,
    open_unit_uniform,
    softplus,
    softplus_inv,
)
from .errors import ContractError, DimensionError

MODE_BB = "bb"
MODE_DBB = "dbb"

# a=9, b=1 makes the initial expected keep probability exactly 0.9, so a
# pretrained network starts nearly unmasked.
INIT_A = 9.0
INIT_B = 1.0
INIT_GAMMA = 0.0
INIT_ETA = 1.0
INIT_KAPPA = 0.1


@dataclass
class GateState:
    """Variational state for one dropout gate over K units."""

    a_raw: Node
    b_raw: Node
    gamma: Node
    eta: Node
    kappa_raw: Node
    run_mean: np.ndarray
    run_std: np.ndarray
    alpha_over_k: float = 1e-4
    eps: float = 1e-3
    mode: str = MODE_BB
    momentum: float = 0.9
    sigma_floor: float = 1e-3
    stats_initialized: bool = False

    def __post_init__(self):
        if self.mode not in (MODE_BB, MODE_DBB):
            raise ContractError(f"unknown gate mode {self.mode!r}")
        if not 0.0 < self.eps < 0.5:
            raise ContractError(f"eps must lie in (0, 0.5), got {self.eps}")

    @classmethod
    def create(
        cls,
        k: int,
        alpha_over_k: float = 1e-4,
        eps: float = 1e-3,
        mode: str = MODE_BB,
        momentum: float = 0.9,
        sigma_floor: float = 1e-3,
    ) -> "GateState":
        ones = np.ones(k)
        return cls(
            a_raw=ad.parameter(np.full(k, float(softplus_inv(INIT_A)))),
            b_raw=ad.parameter(np.full(k, float(softplus_inv(INIT_B)))),
            gamma=ad.parameter(np.full(k, INIT_GAMMA)),
            eta=ad.parameter(np.full(k, INIT_ETA)),
            kappa_raw=ad.parameter(np.full(k, float(softplus_inv(INIT_KAPPA)))),
            run_mean=np.zeros(k),
            run_std=ones.copy(),
            alpha_over_k=alpha_over_k,
            eps=eps,
            mode=mode,
            momentum=momentum,
            sigma_floor=sigma_floor,
        )

    @property
    def k(self) -> int:
        return self.a_raw.value.shape[0]

    # numpy views of the constrained parameters
    def a(self) -> np.ndarray:
        return softplus(self.a_raw.value)

    def b(self) -> np.ndarray:
        return softplus(self.b_raw.value)

    def kappa(self) -> np.ndarray:
        return softplus(self.kappa_raw.value)

    def expected_pi(self) -> np.ndarray:
        """E_q[pi_k], the input-independent expected keep probability."""
        return kumaraswamy_mean(self.a(), self.b())

    def update_running_stats(self, batch: np.ndarray) -> None:
        """Fold one training batch into the running input statistics.

        The first batch initializes the statistics directly; later batches
        blend in with momentum m (mu <- m*mu + (1-m)*batch_mean).
        """
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.k:
            raise DimensionError(
                f"gate expects (B, {self.k}) inputs, got {batch.shape}"
            )
        if batch.shape[0] < 2:
            raise ContractError(
                "running statistics need a batch of at least 2 examples"
            )
        mean = batch.mean(axis=0)
        std = np.maximum(batch.std(axis=0), self.sigma_floor)
        if not self.stats_initialized:
            self.run_mean = mean
            self.run_std = std
            self.stats_initialized = True
        else:
            m = self.momentum
            self.run_mean = m * self.run_mean + (1.0 - m) * mean
            self.run_std = np.maximum(
                m * self.run_std + (1.0 - m) * std, self.sigma_floor
            )

    def expected_mask(self, x: np.ndarray | None = None) -> np.ndarray:
        """Deterministic evaluation-time mask.

        BB mode ignores ``x`` and returns E_q[pi] of shape (K,).  DBB mode
        standardizes ``x`` (shape (K,) or (B, K)) with the running statistics
        and returns E_q[pi] * clamp(gamma * xhat + eta, eps, 1 - eps).
        """
        e_pi = self.expected_pi()
        if self.mode == MODE_BB:
            return e_pi
        if x is None:
            raise ContractError("DBB expected_mask requires the gate input")
        if not self.stats_initialized:
            raise ContractError("DBB expected_mask requires initialized input statistics")
        x = np.asarray(x, dtype=np.float64)
        xhat = (x - self.run_mean) / self.run_std
        gate = np.clip(
            self.gamma.value * xhat + self.eta.value, self.eps, 1.0 - self.eps
        )
        return e_pi * gate

    def trainable_nodes(self) -> list[Node]:
        if self.mode == MODE_BB:
            return [self.a_raw, self.b_raw]
        return [self.gamma, self.eta, self.kappa_raw]

    def subset(self, keep: np.ndarray) -> "GateState":
        keep = np.asarray(keep, dtype=np.intp)
        return GateState(
            a_raw=ad.parameter(self.a_raw.value[keep]),
            b_raw=ad.parameter(self.b_raw.value[keep]),
            gamma=ad.parameter(self.gamma.value[keep]),
            eta=ad.parameter(self.eta.value[keep]),
            kappa_raw=ad.parameter(self.kappa_raw.value[keep]),
            run_mean=self.run_mean[keep].copy(),
            run_std=self.run_std[keep].copy(),
            alpha_over_k=self.alpha_over_k,
            eps=self.eps,
            mode=self.mode,
            momentum=self.momentum,
            sigma_floor=self.sigma_floor,
            stats_initialized=self.stats_initialized,
        )


# ---------------------------------------------------------------------------
# graph-building pieces used by the training forward pass
# ---------------------------------------------------------------------------


def sample_pi_node(gate: GateState, rng: np.random.Generator) -> Node:
    """Reparameterized Kumaraswamy sample of the keep probabilities, (K,)."""
    u = open_unit_uniform(rng, gate.k)
    a = ad.softplus(gate.a_raw)
    b = ad.softplus(gate.b_raw)
    inner = ad.power(ad.constant(u), ad.power_const(b, -1.0))
    base = ad.clamp(ad.sub(ad.constant(np.ones(gate.k)), inner), 1e-30, 1.0)
    return ad.power(base, ad.power_const(a, -1.0))


def concrete_mask_node(
    probs: Node, u: np.ndarray, tau: float, logit_eps: float = LOGIT_EPS
) -> Node:
    """Relaxed Bernoulli mask sigmoid((logit probs + logit u) / tau).

    ``probs`` has shape (K,) (shared across the batch) or (B, K); ``u`` has
    shape (B, K).
    """
    p = ad.clamp(probs, logit_eps, 1.0 - logit_eps)
    logit_p = ad.sub(ad.log(p), ad.log(ad.sub(ad.constant(np.ones(p.shape)), p)))
    logit_u = ad.constant(np.log(u) - np.log1p(-u))
    if logit_p.shape == logit_u.shape:
        pre = ad.add(logit_u, logit_p)
    else:
        pre = ad.add_rowwise(logit_u, logit_p)
    return ad.sigmoid(ad.scale(pre, 1.0 / tau))


def beta_sample_node(gate: GateState, rng: np.random.Generator) -> Node:
    """One reparameterized draw beta = eta + kappa * n per unit, (K,)."""
    noise = rng.standard_normal(gate.k)
    return ad.add(gate.eta, ad.mul(ad.softplus(gate.kappa_raw), ad.constant(noise)))


def dbb_phi_node(gate: GateState, x: Node, pi: Node, beta: Node) -> Node:
    """Input-dependent keep probabilities phi(x), shape (B, K).

    Standardizes with the differentiable batch statistics of ``x`` (training
    convention); the running statistics are updated separately.
    """
    if x.value.ndim != 2 or x.value.shape[1] != gate.k:
        raise DimensionError(f"gate expects (B, {gate.k}) inputs, got {x.value.shape}")
    if x.value.shape[0] < 2:
        raise ContractError("DBB training forward needs a batch of at least 2 examples")
    mu = ad.mean_axis0(x)
    centered = ad.add_rowwise(x, ad.neg(mu))
    var = ad.mean_axis0(ad.mul(centered, centered))
    sigma = ad.clamp(
        ad.sqrt(ad.add_const(var, 1e-12)), gate.sigma_floor, np.inf
    )
    xhat = ad.mul_rowwise(centered, ad.power_const(sigma, -1.0))
    pre = ad.add_rowwise(ad.mul_rowwise(xhat, gate.gamma), beta)
    gate_factor = ad.clamp(pre, gate.eps, 1.0 - gate.eps)
    return ad.mul_rowwise(gate_factor, pi)


def kl_bb_node(gate: GateState) -> Node:
    """Closed-form KL of the Kumaraswamy posterior against Beta(alpha/K, 1)."""
    a = ad.softplus(gate.a_raw)
    b = ad.softplus(gate.b_raw)
    ak = gate.alpha_over_k
    inv_b = ad.power_const(b, -1.0)
    inner = ad.neg(ad.add_const(ad.add(ad.digamma(b), inv_b), EULER_GAMMA))
    term1 = ad.mul(ad.div(ad.add_const(a, -ak), a), inner)
    term2 = ad.add_const(ad.add(ad.log(a), ad.log(b)), -float(np.log(ak)))
    term3 = ad.add_const(inv_b, -1.0)
    return ad.sum_all(ad.add(ad.add(term1, term2), term3))


def kl_beta_gaussian_node(gate: GateState, rho_var: float) -> Node:
    """KL( N(eta, kappa^2) || N(0, rho_var) ), summed over units."""
    kappa_sq = ad.power_const(ad.softplus(gate.kappa_raw), 2.0)
    quad = ad.scale(ad.add(kappa_sq, ad.power_const(gate.eta, 2.0)), 1.0 / rho_var)
    per_unit = ad.scale(
        ad.add_const(ad.add(ad.neg(ad.log(kappa_sq)), quad), float(np.log(rho_var)) - 1.0),
        0.5,
    )
    return ad.sum_all(per_unit)
