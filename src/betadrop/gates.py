"""Per-layer dropout gate state and its differentiable sampling rules.

A :class:`GateState` holds what its stage needs.  A BB gate holds trainable
Kumaraswamy shapes (a_k, b_k) for the keep probabilities.  Entering DBB
freezes them as constants and adds the scale/shift parameters of the
standardized-input gate, whose running input statistics start with the first
training batch.  The evaluation-time mask :meth:`GateState.expected_mask`
reads the autodiff leaves' ``.value``.  Only this module knows what each mode
holds (:data:`MODE_ARRAYS`) and which nodes a training pass builds for it.

Each gate quantity of a training pass (the Kumaraswamy sample, the concrete
mask, the DBB shift draw and keep probabilities, the two KL terms) is one
:func:`~betadrop.autodiff.fused` node: its value comes from the closed form
in :mod:`betadrop.distributions`, its backward is written out by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .distributions import (
    EULER_GAMMA,
    KUMARASWAMY_BASE_FLOOR,
    LOGIT_EPS,
    concrete_bernoulli_sample,
    digamma,
    gaussian_kl,
    kl_kumaraswamy_beta,
    kumaraswamy_mean,
    kumaraswamy_sample,
    open_unit_uniform,
    softplus,
    softplus_inv,
    softplus_slope,
    trigamma,
)
from .errors import CheckpointError, ContractError, DimensionError

MODE_BB = "bb"
MODE_DBB = "dbb"

# a=9, b=1 makes the initial expected keep probability exactly 0.9, so a
# pretrained network starts nearly unmasked.
INIT_A = 9.0
INIT_B = 1.0
INIT_GAMMA = 0.0
INIT_ETA = 1.0
INIT_KAPPA = 0.1

# Floor on every standard deviation that standardizes a DBB gate's input, so a
# constant input unit divides by a finite number.
SIGMA_FLOOR = 1e-3

# Added under the square root of a DBB gate's batch variance, so a constant input
# unit's raw standard deviation is not 0 and its gradient stays finite.
VARIANCE_EPS = 1e-12

# the arrays a gate holds in each mode, in checkpoint payload order, each with
# how the gate holds it: as a trainable leaf, a constant leaf or a plain array
MODE_ARRAYS = {
    MODE_BB: {"a_raw": ad.parameter, "b_raw": ad.parameter},
    MODE_DBB: {"a_raw": ad.constant, "b_raw": ad.constant, "gamma": ad.parameter,
               "eta": ad.parameter, "kappa_raw": ad.parameter,
               "run_mean": np.asarray, "run_std": np.asarray},
}
# the scalar fields of every gate
SCALARS = ("alpha_over_k", "eps", "momentum")


@dataclass
class GateState:
    """Variational state for one dropout gate over K units.  The five fields
    after ``momentum`` are None in a BB gate; entering DBB sets the first
    three, and the first DBB training batch the running statistics.  A DBB
    gate's q(pi) is frozen, so ``frozen`` holds its E[pi] and KL, computed
    once when it enters DBB or is built, and the two raw arrays they come
    from, all arrays read-only.  Every read of its q(pi) checks that the raws
    are still those.  ``frozen`` is None in a BB gate and no checkpoint array."""

    a_raw: Node
    b_raw: Node
    alpha_over_k: float = 1e-4
    eps: float = 1e-3
    momentum: float = 0.9
    gamma: Node | None = None
    eta: Node | None = None
    kappa_raw: Node | None = None
    run_mean: np.ndarray | None = None
    run_std: np.ndarray | None = None
    frozen: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.alpha_over_k < np.inf:
            raise ContractError(f"alpha_over_k must lie in (0, inf), got {self.alpha_over_k}")
        if not 0.0 < self.eps < 0.5:
            raise ContractError(f"eps must lie in (0, 0.5), got {self.eps}")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not (self.a() > 0.0).all() or not (self.b() > 0.0).all():
            raise ContractError("a_raw and b_raw must give positive Kumaraswamy shapes")
        self._freeze()

    def _freeze(self) -> None:
        if self.gamma is not None:
            a, b = self.a(), self.b()
            kl = kl_kumaraswamy_beta(a, b, self.alpha_over_k, digamma(b)).sum()
            pi, raws = kumaraswamy_mean(a, b), (self.a_raw.value, self.b_raw.value)
            for array in (pi, *raws):
                array.flags.writeable = False
            self.frozen = (pi, kl, raws)

    def _frozen(self) -> tuple:
        """A DBB gate's stored (E[pi], KL); ContractError if a raw was rebound since."""
        pi, kl, (a_raw, b_raw) = self.frozen
        if self.a_raw.value is not a_raw or self.b_raw.value is not b_raw:
            raise ContractError("a DBB gate's a_raw and b_raw are frozen: they cannot be rebound")
        return pi, kl

    @classmethod
    def create(cls, k: int, **options) -> "GateState":
        """A fresh BB gate over ``k`` units; ``options`` set the scalar fields."""
        a_raw, b_raw = (np.full(k, float(softplus_inv(v))) for v in (INIT_A, INIT_B))
        return cls.from_arrays(MODE_BB, {"a_raw": a_raw, "b_raw": b_raw}, **options)

    @classmethod
    def from_arrays(cls, mode: str, arrays: dict, **scalars) -> "GateState":
        """A gate of ``mode`` from its named arrays, as :meth:`arrays` gives them.
        A ``run_std`` below :data:`SIGMA_FLOOR`, which :meth:`update_running_stats`
        never writes, can only come from a file, so it raises CheckpointError."""
        gate = cls(**{name: MODE_ARRAYS[mode][name](v) for name, v in arrays.items()}, **scalars)
        if gate.run_std is not None and not (gate.run_std >= SIGMA_FLOOR).all():
            raise CheckpointError(f"a DBB gate's run_std must be at least the floor {SIGMA_FLOOR}, "
                                  f"got {gate.run_std.min()}")
        return gate

    def arrays(self) -> dict:
        """The gate's arrays by name in :data:`MODE_ARRAYS` order, less unset statistics."""
        if self.frozen is not None:
            self._frozen()
        values = ((name, getattr(self, name)) for name in MODE_ARRAYS[self.mode])
        return {name: getattr(v, "value", v) for name, v in values if v is not None}

    @property
    def mode(self) -> str:
        return MODE_BB if self.gamma is None else MODE_DBB

    def enter_dbb(self) -> None:
        """Freeze q(pi) as constants and add the input-dependent gate at its
        initial values; a DBB gate stays as it is."""
        if self.gamma is not None:
            return
        init = {"gamma": INIT_GAMMA, "eta": INIT_ETA, "kappa_raw": float(softplus_inv(INIT_KAPPA))}
        arrays = {**self.arrays(), **{name: np.full(self.k, v) for name, v in init.items()}}
        for name, value in arrays.items():
            setattr(self, name, MODE_ARRAYS[MODE_DBB][name](value))
        self._freeze()

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
        """E_q[pi_k]; a DBB gate's is the read-only array stored when q(pi) froze."""
        if self.frozen is not None:
            return self._frozen()[0]
        return kumaraswamy_mean(self.a(), self.b())

    def update_running_stats(self, batch: np.ndarray) -> None:
        """Fold one training batch into a DBB gate's running input statistics.

        The first batch initializes the statistics directly; later batches
        blend in with momentum m (mu <- m*mu + (1-m)*batch_mean).
        """
        if self.gamma is None:
            raise ContractError("a BB gate keeps no input statistics")
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.k:
            raise DimensionError(f"gate expects (B, {self.k}) inputs, got {batch.shape}")
        if batch.shape[0] < 2:
            raise ContractError("running statistics need a batch of at least 2 examples")
        mean = batch.mean(axis=0)
        std = np.maximum(batch.std(axis=0), SIGMA_FLOOR)
        if self.run_mean is None:
            self.run_mean = mean
            self.run_std = std
        else:
            m = self.momentum
            self.run_mean = m * self.run_mean + (1.0 - m) * mean
            self.run_std = np.maximum(m * self.run_std + (1.0 - m) * std, SIGMA_FLOOR)

    def expected_mask(self, x: np.ndarray | None = None) -> np.ndarray:
        """Deterministic evaluation-time mask.

        BB mode ignores ``x`` and returns E_q[pi] of shape (K,).  DBB mode
        standardizes ``x`` (shape (K,) or (B, K)) with the running statistics
        and returns E_q[pi] * clamp(gamma * xhat + eta, eps, 1 - eps).
        """
        if self.gamma is None:
            return self.expected_pi()
        if x is None:
            raise ContractError("DBB expected_mask requires the gate input")
        if self.run_mean is None:
            raise ContractError("DBB expected_mask requires initialized input statistics")
        x = np.asarray(x, dtype=np.float64)
        xhat = (x - self.run_mean) / self.run_std
        return self.expected_pi() * self.gate_factor(xhat, self.eta.value)

    def gate_factor(self, xhat: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """clamp(gamma * xhat + shift, eps, 1 - eps) for standardized inputs."""
        return np.clip(self.gamma.value * xhat + shift, self.eps, 1.0 - self.eps)

    def trainable_nodes(self) -> list[Node]:
        holds = MODE_ARRAYS[self.mode].items()
        return [getattr(self, name) for name, hold in holds if hold is ad.parameter]

    def subset(self, keep: np.ndarray) -> "GateState":
        """The gate of the same mode over units ``keep``."""
        keep = np.asarray(keep, dtype=np.intp)
        cut = {name: v[keep] for name, v in self.arrays().items()}
        return self.from_arrays(self.mode, cut, **{key: getattr(self, key) for key in SCALARS})


# ---------------------------------------------------------------------------
# the training forward pass's gate quantities, one fused node each
# ---------------------------------------------------------------------------


def training_mask(gate: GateState, rng: np.random.Generator, bsz: int, gate_input, tau: float,
                  rho_var: float) -> tuple[Node, Node]:
    """One training pass's relaxed (bsz, K) mask node of ``gate`` and its KL node.
    Only a DBB gate calls ``gate_input()`` for its input node and folds that batch into
    its statistics.  ``rng`` draws the Kumaraswamy u (K), in DBB the shift noise (K),
    then the concrete u (bsz, K)."""
    pi = sample_pi_node(gate, rng)
    kl = kl_bb_node(gate)
    if gate.gamma is None:
        probs = pi
    else:
        beta = beta_sample_node(gate, rng)
        x_in = gate_input()
        probs = dbb_phi_node(gate, x_in, pi, beta)
        gate.update_running_stats(x_in.value)
        kl = ad.add(kl, kl_beta_gaussian_node(gate, rho_var))
    u = open_unit_uniform(rng, (bsz, gate.k))
    return concrete_mask_node(probs, u, tau), kl


def sample_pi_node(gate: GateState, rng: np.random.Generator) -> Node:
    """Reparameterized Kumaraswamy sample of the keep probabilities, (K,)."""
    u = open_unit_uniform(rng, gate.k)
    a, b = gate.a(), gate.b()
    pi = kumaraswamy_sample(u, a, b)

    def vjp(g):
        inner = u ** (1.0 / b)
        base = np.maximum(1.0 - inner, KUMARASWAMY_BASE_FLOOR)
        live = base > KUMARASWAMY_BASE_FLOOR  # the floor passes no gradient to b
        g_a = -g * pi * np.log(base) / (a * a)
        g_b = g * pi / (a * base) * inner * np.log(u) / (b * b) * live
        return g_a * softplus_slope(a), g_b * softplus_slope(b)

    return ad.fused(pi, (gate.a_raw, gate.b_raw), vjp)


def concrete_mask_node(probs: Node, u: np.ndarray, tau: float) -> Node:
    """Relaxed Bernoulli mask sigmoid((logit probs + logit u) / tau).

    ``probs`` has shape (K,) (shared across the batch) or (B, K); ``u`` has
    shape (B, K).
    """
    p = probs.value
    z = concrete_bernoulli_sample(p, tau, u)

    def vjp(g):
        g_logit = g * z * (1.0 - z) / tau
        if p.ndim == 1:
            g_logit = g_logit.sum(axis=0)
        live = (p > LOGIT_EPS) & (p < 1.0 - LOGIT_EPS)
        pc = np.clip(p, LOGIT_EPS, 1.0 - LOGIT_EPS)
        return (g_logit * live / (pc * (1.0 - pc)),)

    return ad.fused(z, (probs,), vjp)


def beta_sample_node(gate: GateState, rng: np.random.Generator) -> Node:
    """One reparameterized draw beta = eta + kappa * n per unit, (K,)."""
    noise = rng.standard_normal(gate.k)
    kappa = gate.kappa()
    return ad.fused(gate.eta.value + kappa * noise, (gate.eta, gate.kappa_raw),
                    lambda g: (g.copy(), g * noise * softplus_slope(kappa)))


def dbb_phi_node(gate: GateState, x: Node, pi: Node, beta: Node) -> Node:
    """Input-dependent keep probabilities phi(x), shape (B, K).

    Standardizes with the differentiable batch statistics of ``x`` (training
    convention); the running statistics are updated separately.
    """
    if x.value.ndim != 2 or x.value.shape[1] != gate.k:
        raise DimensionError(f"gate expects (B, {gate.k}) inputs, got {x.value.shape}")
    n = len(x.value)
    if n < 2:
        raise ContractError("DBB training forward needs a batch of at least 2 examples")
    centered = x.value - x.value.mean(axis=0)
    sigma_raw = np.sqrt((centered * centered).mean(axis=0) + VARIANCE_EPS)
    sigma = np.maximum(sigma_raw, SIGMA_FLOOR)
    xhat = centered * (1.0 / sigma)
    factor = gate.gate_factor(xhat, beta.value)

    def vjp(g):
        live = (factor > gate.eps) & (factor < 1.0 - gate.eps)
        g_pre = g * pi.value * live
        g_x = None
        if x.needs_grad:
            g_xhat = g_pre * gate.gamma.value
            g_sigma = -(g_xhat * centered).sum(axis=0) / (sigma * sigma)
            g_var = 0.5 * g_sigma / sigma_raw * (sigma_raw > SIGMA_FLOOR)
            g_centered = g_xhat / sigma + (2.0 / n) * g_var * centered
            g_x = g_centered - g_centered.mean(axis=0)
        g_pi = (g * factor).sum(axis=0) if pi.needs_grad else None
        return g_x, g_pi, (g_pre * xhat).sum(axis=0), g_pre.sum(axis=0)

    return ad.fused(factor * pi.value, (x, pi, gate.gamma, beta), vjp)


def kl_bb_node(gate: GateState) -> Node:
    """Closed-form KL of the Kumaraswamy posterior against Beta(alpha/K, 1).
    psi(b) serves the value and the backward; psi'(b) only the backward.  A
    DBB gate's frozen posterior gives the constant stored in ``gate.frozen``."""
    if gate.frozen is not None:
        return ad.constant(gate._frozen()[1])
    a, b, ak = gate.a(), gate.b(), gate.alpha_over_k
    psi_b = digamma(b)
    kl = kl_kumaraswamy_beta(a, b, ak, psi_b).sum()

    def vjp(g):
        inner = -(EULER_GAMMA + psi_b + 1.0 / b)
        g_a = ak / (a * a) * inner + 1.0 / a
        g_b = (a - ak) / a * (1.0 / (b * b) - trigamma(b)) + 1.0 / b - 1.0 / (b * b)
        return g * g_a * softplus_slope(a), g * g_b * softplus_slope(b)

    return ad.fused(kl, (gate.a_raw, gate.b_raw), vjp)


def kl_beta_gaussian_node(gate: GateState, rho_var: float) -> Node:
    """KL( N(eta, kappa^2) || N(0, rho_var) ), summed over units."""
    eta, kappa = gate.eta.value, gate.kappa()
    g_kappa = (kappa / rho_var - 1.0 / kappa) * softplus_slope(kappa)
    return ad.fused(gaussian_kl(eta, kappa * kappa, rho_var), (gate.eta, gate.kappa_raw),
                    lambda g: (g * eta / rho_var, g * g_kappa))
