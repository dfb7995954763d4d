"""Distributional machinery for the beta-Bernoulli dropout gates.

Numpy implementations of the Kumaraswamy distribution, the relaxed
(concrete) Bernoulli sampler, and the closed-form KL terms.  They are the
values of the fused gate ops in :mod:`betadrop.gates` and of the expected
masks; their independent oracles (quadrature, Monte Carlo, the analytic CDF)
are in the tests.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)

# Keep probabilities clear of the logit's poles.  Config-exposed via
# TrainConfig.logit_eps; this is the documented default.
LOGIT_EPS = 1e-6

# Floor on the Kumaraswamy sampler's base 1 - u^(1/b).  The base rounds to 0
# once u^(1/b) rounds to 1 (large b, or u next to 1); the floor keeps the
# sample positive and the log of the base finite.
KUMARASWAMY_BASE_FLOOR = 1e-30


def make_rng(seed: int) -> np.random.Generator:
    """Seedable generator with a platform-stable stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def open_unit_uniform(rng: np.random.Generator, shape=()) -> np.ndarray:
    """Uniform draws confined to the open interval (0, 1)."""
    tiny = 1e-12
    return rng.random(shape) * (1.0 - 2.0 * tiny) + tiny


def softplus(x):
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def softplus_inv(y):
    """Inverse of softplus; y must be positive."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0.0):
        raise DomainError("softplus_inv requires positive input")
    return y + np.log1p(-np.exp(-y))


def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


def kumaraswamy_sample(u, a, b):
    """Inverse-CDF sample (1 - u^(1/b))^(1/a); u must lie strictly in (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _require(bool(np.all((u > 0.0) & (u < 1.0))), "u must lie in the open interval (0, 1)")
    _require(bool(np.all(a > 0.0) and np.all(b > 0.0)), "a and b must be positive")
    return np.maximum(1.0 - u ** (1.0 / b), KUMARASWAMY_BASE_FLOOR) ** (1.0 / a)


def kumaraswamy_mean(a, b):
    """b * Gamma(1 + 1/a) * Gamma(b) / Gamma(1 + 1/a + b), via log-gamma."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _require(bool(np.all(a > 0.0) and np.all(b > 0.0)), "a and b must be positive")
    inv_a = 1.0 / a
    return np.exp(
        np.log(b)
        + special.gammaln(1.0 + inv_a)
        + special.gammaln(b)
        - special.gammaln(1.0 + inv_a + b)
    )


def kl_kumaraswamy_beta(a, b, alpha_over_k):
    """KL( Kumaraswamy(a, b) || Beta(alpha/K, 1) ), closed form.

    The series term of the general Kumaraswamy-vs-Beta divergence vanishes
    because the prior's second shape parameter is 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ak = np.asarray(alpha_over_k, dtype=np.float64)
    _require(
        bool(np.all(a > 0.0) and np.all(b > 0.0) and np.all(ak > 0.0)),
        "a, b and alpha/K must be positive",
    )
    term1 = (a - ak) / a * (-EULER_GAMMA - special.digamma(b) - 1.0 / b)
    term2 = np.log(a * b / ak)
    term3 = -(b - 1.0) / b
    return term1 + term2 + term3


def gaussian_kl(eta, kappa_sq, rho_var):
    """KL( N(eta, kappa^2) || N(0, rho_var) ), summed over units."""
    eta = np.asarray(eta, dtype=np.float64)
    kappa_sq = np.asarray(kappa_sq, dtype=np.float64)
    _require(
        bool(np.all(kappa_sq > 0.0) and rho_var > 0.0),
        "variances must be positive",
    )
    per_unit = 0.5 * (
        np.log(rho_var / kappa_sq) + (kappa_sq + eta * eta) / rho_var - 1.0
    )
    return float(np.sum(per_unit))


def concrete_bernoulli_sample(pi, tau, u, logit_eps: float = LOGIT_EPS):
    """Relaxed Bernoulli draw sigmoid((logit pi + logit u) / tau) in (0, 1)."""
    if tau <= 0.0:
        raise DomainError(f"temperature must be positive, got {tau}")
    pi = np.clip(np.asarray(pi, dtype=np.float64), logit_eps, 1.0 - logit_eps)
    u = np.asarray(u, dtype=np.float64)
    _require(bool(np.all((u > 0.0) & (u < 1.0))), "u must lie in the open interval (0, 1)")
    logits = (np.log(pi) - np.log1p(-pi) + np.log(u) - np.log1p(-u)) / tau
    return special.expit(logits)
