"""Distributional machinery for the beta-Bernoulli dropout gates.

Numpy implementations of the Kumaraswamy distribution, the relaxed
(concrete) Bernoulli sampler, the closed-form KL terms, and the special
functions they need (:func:`expit`, :func:`digamma`, :func:`trigamma`,
:func:`gammaln`).  They are the values of the fused gate ops in
:mod:`betadrop.gates` and of the expected masks; their independent oracles
(quadrature, Monte Carlo, the analytic CDF, scipy.special) are in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)

# Keep probabilities clear of the logit's poles.
LOGIT_EPS = 1e-6

# Floor on the Kumaraswamy sampler's base 1 - u^(1/b).  The base rounds to 0
# once u^(1/b) rounds to 1 (large b, or u next to 1); the floor keeps the
# sample positive and the log of the base finite.
KUMARASWAMY_BASE_FLOOR = 1e-30

# e^-x overflows for x below -_LOG_MAX, where expit(x) < 6e-309; expit gives 0 there.
_LOG_MAX = float(np.log(np.finfo(np.float64).max))

# digamma, trigamma and gammaln take x > 0 up to w = x + _SHIFT by their
# recurrences, psi(x) = psi(x + 1) - 1/x, psi'(x) = psi'(x + 1) + 1/x^2 and
# lgamma(x) = lgamma(x + 1) - log x, then sum their asymptotic series in 1/w.
# At w >= 10 the first term cut, in 1/w^16 or 1/w^17, is below 1e-16.
_SHIFT = 10
_STEPS = np.arange(_SHIFT, dtype=np.float64)[:, None]  # the k of each x + k
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6])  # B_2..B_14
_N = np.arange(1, 8)
_HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))


def _terms(powers, coefs):
    """The series sum_j c_j / w^k_j as columns (-k_j, c_j)."""
    return -np.asarray(powers, dtype=np.float64)[:, None], np.asarray(coefs)[:, None]


# psi(w) = log w - 1/(2w) - sum_n B_2n / (2n w^2n)
_DIGAMMA_SERIES = _terms(np.r_[1, 2 * _N], np.r_[-0.5, -_BERNOULLI / (2 * _N)])
# psi'(w) = 1/w + 1/(2w^2) + sum_n B_2n / w^(2n+1)
_TRIGAMMA_SERIES = _terms(np.r_[1, 2, 2 * _N + 1], np.r_[1.0, 0.5, _BERNOULLI])
# lgamma(w) = (w - 1/2) log w - w + log(2 pi)/2 + sum_n B_2n / (2n (2n-1) w^(2n-1))
_GAMMALN_SERIES = _terms(2 * _N - 1, _BERNOULLI / (2 * _N * (2 * _N - 1)))


def expit(x):
    """The logistic sigmoid 1 / (1 + e^-x), as scipy.special.expit forms it;
    0 below -log(DBL_MAX), where e^-x would overflow."""
    x = np.asarray(x, dtype=np.float64)
    return (x > -_LOG_MAX) / (1.0 + np.exp(np.minimum(-x, _LOG_MAX)))


def _shifted(x, series):
    """x as a row, log w and the sum of ``series`` at w = x + _SHIFT.

    Each power 1/w^k is exp(-k log w), so the series costs a few array
    operations whatever its length: on a gate of a few units, the number of
    operations is the cost.  Every sum runs down axis 0 of a (terms, entries)
    array, the same additions for every entry, so equal arguments give equal
    results wherever they sit.
    """
    x = np.asarray(x, dtype=np.float64)
    row = x.ravel()
    log_w = np.log(row + _SHIFT)
    neg_powers, coefs = series
    return row, log_w, np.add.reduce(coefs * np.exp(neg_powers * log_w))


def digamma(x):
    """psi(x) = d/dx log Gamma(x), for x > 0."""
    row, log_w, tail = _shifted(x, _DIGAMMA_SERIES)
    return (log_w + tail - np.add.reduce(np.reciprocal(_STEPS + row))).reshape(np.shape(x))


def trigamma(x):
    """psi'(x), for x > 0."""
    row, _, tail = _shifted(x, _TRIGAMMA_SERIES)
    z = _STEPS + row
    return (tail + np.add.reduce(np.reciprocal(z * z))).reshape(np.shape(x))


def gammaln(x):
    """log Gamma(x), for x > 0."""
    row, log_w, tail = _shifted(x, _GAMMALN_SERIES)
    w = row + _SHIFT
    stirling = (w - 0.5) * log_w - w + _HALF_LOG_2PI + tail
    return (stirling - np.add.reduce(np.log(_STEPS + row))).reshape(np.shape(x))


def make_rng(seed: int) -> np.random.Generator:
    """Seedable generator with a platform-stable stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def open_unit_uniform(rng: np.random.Generator, shape=()) -> np.ndarray:
    """Uniform draws confined to the open interval (0, 1)."""
    tiny = 1e-12
    return rng.random(shape) * (1.0 - 2.0 * tiny) + tiny


def softplus(x):
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def softplus_slope(y):
    """d softplus(r)/dr = expit(r), from the value y = softplus(r): 1 - e^-y."""
    return -np.expm1(-y)


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
    _require(bool(((u > 0.0) & (u < 1.0)).all()), "u must lie in the open interval (0, 1)")
    _require(bool((a > 0.0).all() and (b > 0.0).all()), "a and b must be positive")
    return np.maximum(1.0 - u ** (1.0 / b), KUMARASWAMY_BASE_FLOOR) ** (1.0 / a)


def kumaraswamy_mean(a, b):
    """b * Gamma(1 + 1/a) * Gamma(b) / Gamma(1 + 1/a + b), via log-gamma."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _require(bool((a > 0.0).all() and (b > 0.0).all()), "a and b must be positive")
    p = 1.0 + 1.0 / a
    lg_p, lg_b, lg_pb = gammaln(np.array(np.broadcast_arrays(p, b, p + b)))  # one call
    return np.exp(np.log(b) + lg_p + lg_b - lg_pb)


def kl_kumaraswamy_beta(a, b, alpha_over_k, digamma_b=None):
    """KL( Kumaraswamy(a, b) || Beta(alpha/K, 1) ), closed form.

    The series term of the general Kumaraswamy-vs-Beta divergence vanishes
    because the prior's second shape parameter is 1.  A caller that holds
    psi(b) passes it as ``digamma_b``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ak = np.asarray(alpha_over_k, dtype=np.float64)
    _require(
        bool((a > 0.0).all() and (b > 0.0).all() and (ak > 0.0).all()),
        "a, b and alpha/K must be positive",
    )
    if digamma_b is None:
        digamma_b = digamma(b)
    term1 = (a - ak) / a * (-EULER_GAMMA - digamma_b - 1.0 / b)
    term2 = np.log(a * b / ak)
    term3 = -(b - 1.0) / b
    return term1 + term2 + term3


def gaussian_kl(eta, kappa_sq, rho_var):
    """KL( N(eta, kappa^2) || N(0, rho_var) ), summed over units."""
    eta = np.asarray(eta, dtype=np.float64)
    kappa_sq = np.asarray(kappa_sq, dtype=np.float64)
    _require(
        bool((kappa_sq > 0.0).all() and rho_var > 0.0),
        "variances must be positive",
    )
    per_unit = 0.5 * (
        np.log(rho_var / kappa_sq) + (kappa_sq + eta * eta) / rho_var - 1.0
    )
    return float(per_unit.sum())


def concrete_bernoulli_sample(pi, tau, u):
    """Relaxed Bernoulli draw sigmoid((logit pi + logit u) / tau) in (0, 1)."""
    if tau <= 0.0:
        raise DomainError(f"temperature must be positive, got {tau}")
    pi = np.clip(np.asarray(pi, dtype=np.float64), LOGIT_EPS, 1.0 - LOGIT_EPS)
    u = np.asarray(u, dtype=np.float64)
    _require(bool(((u > 0.0) & (u < 1.0)).all()), "u must lie in the open interval (0, 1)")
    logits = (np.log(pi) - np.log1p(-pi) + np.log(u) - np.log1p(-u)) / tau
    return expit(logits)
