"""Oracle tests for the distributional machinery.

The closed forms are checked against independent oracles: adaptive
quadrature for means and normalization, Monte-Carlo estimates for the KL
terms, and the analytic CDF for the sampler.  The special functions they use
are checked against scipy.special.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from betadrop import distributions as d
from betadrop.errors import DomainError

from helpers import kumaraswamy_log_pdf

RNG = d.make_rng(777)


class TestKumaraswamySample:
    def test_uniform_case(self):
        assert d.kumaraswamy_sample(0.3, 1.0, 1.0) == pytest.approx(0.7)

    def test_sqrt_case(self):
        assert d.kumaraswamy_sample(0.19, 2.0, 1.0) == pytest.approx(0.9)

    def test_closed_interval_rejected(self):
        with pytest.raises(DomainError):
            d.kumaraswamy_sample(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            d.kumaraswamy_sample(1.0, 1.0, 1.0)

    def test_base_floor_keeps_large_b_samples_positive(self):
        # u^(1/b) rounds to 1 at b = 1e20, so the base 1 - u^(1/b) is floored
        x = d.kumaraswamy_sample(0.5, np.array([1.0, 2.0]), 1e20)
        assert x == pytest.approx([d.KUMARASWAMY_BASE_FLOOR, 1e-15], rel=1e-12, abs=0)

    def test_ks_statistic_against_closed_form_cdf(self):
        a, b = 2.0, 3.0
        u = d.open_unit_uniform(d.make_rng(42), 100_000)
        samples = np.sort(d.kumaraswamy_sample(u, a, b))
        n = samples.size
        cdf = 1.0 - (1.0 - samples**a) ** b
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(ecdf_lo - cdf).max())
        assert ks < 0.01

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.floats(0.01, 0.99),
        a=st.floats(0.5, 5.0),
        b=st.floats(0.5, 5.0),
    )
    def test_is_inverse_cdf_at_one_minus_u(self, u, a, b):
        # the identity is algebraic; float round trips through the double
        # power stay inside 1e-12 on this shape range (they degrade for
        # extreme exponents, where x^a cancels catastrophically)
        x = d.kumaraswamy_sample(u, a, b)
        assert 0.0 <= x <= 1.0
        # F(x) = 1 - (1 - x^a)^b must equal 1 - u
        assert abs((1.0 - x**a) ** b - u) < 1e-12


class TestKumaraswamyLogPdf:
    def test_uniform_density(self):
        assert kumaraswamy_log_pdf(0.5, 1.0, 1.0) == pytest.approx(0.0)

    def test_linear_density(self):
        assert kumaraswamy_log_pdf(0.5, 2.0, 1.0) == pytest.approx(0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            kumaraswamy_log_pdf(1.5, 2.0, 1.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
    def test_pdf_normalizes_by_trapezoid(self, a, b):
        # endpoint-clustered substitution x = (1 - cos(pi t))/2 keeps the
        # trapezoid accurate despite the a<1 / b<1 endpoint singularities
        t = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        x = 0.5 * (1.0 - np.cos(np.pi * t))
        dx = 0.5 * np.pi * np.sin(np.pi * t)
        pdf = np.exp(kumaraswamy_log_pdf(x, a, b))
        integral = np.trapezoid(pdf * dx, t)
        assert integral == pytest.approx(1.0, abs=1e-4)


class TestKumaraswamyMean:
    def test_uniform_mean(self):
        assert d.kumaraswamy_mean(1.0, 1.0) == pytest.approx(0.5)

    def test_b_one_reduces_to_a_over_a_plus_one(self):
        assert d.kumaraswamy_mean(9.0, 1.0) == pytest.approx(0.9, abs=1e-12)

    def test_2_2_is_8_over_15(self):
        assert d.kumaraswamy_mean(2.0, 2.0) == pytest.approx(8.0 / 15.0, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
    def test_against_quadrature(self, a, b):
        oracle, _ = integrate.quad(
            lambda x: x * np.exp(kumaraswamy_log_pdf(x, a, b)), 0.0, 1.0,
            points=[0.0, 1.0], limit=200,
        )
        assert d.kumaraswamy_mean(a, b) == pytest.approx(oracle, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            d.kumaraswamy_mean(-1.0, 2.0)


def mc_kl_kumaraswamy_beta(a, b, alpha_over_k, n, seed):
    """Monte-Carlo oracle: E_q[log q(pi) - log p(pi)] with its standard error."""
    u = d.open_unit_uniform(d.make_rng(seed), n)
    pi = np.clip(d.kumaraswamy_sample(u, a, b), 1e-300, 1.0 - 1e-16)
    log_q = kumaraswamy_log_pdf(pi, a, b)
    log_p = np.log(alpha_over_k) + (alpha_over_k - 1.0) * np.log(pi)
    diff = log_q - log_p
    return diff.mean(), diff.std() / np.sqrt(n)


class TestKlKumaraswamyBeta:
    def test_zero_at_prior(self):
        for ak in (1e-4, 1e-2, 1.0):
            assert abs(d.kl_kumaraswamy_beta(ak, 1.0, ak)) < 1e-9

    def test_uniform_both(self):
        assert d.kl_kumaraswamy_beta(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_worked_value(self):
        # digamma(3) = 1.5 - euler_gamma makes this row hand-checkable
        expected = (
            (2.0 - 1e-4) / 2.0 * (-d.EULER_GAMMA - (1.5 - d.EULER_GAMMA) - 1.0 / 3.0)
            + np.log(2.0 * 3.0 / 1e-4)
            - 2.0 / 3.0
        )
        got = d.kl_kumaraswamy_beta(2.0, 3.0, 1e-4)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(8.5022, abs=5e-4)

    def test_matches_monte_carlo_on_random_triples(self):
        rng = d.make_rng(7)
        failures = 0
        for trial in range(20):
            a = rng.uniform(0.3, 8.0)
            b = rng.uniform(0.3, 8.0)
            ak = 10.0 ** rng.uniform(-4, 0)
            closed = d.kl_kumaraswamy_beta(a, b, ak)
            mc, se = mc_kl_kumaraswamy_beta(a, b, ak, 200_000, seed=100 + trial)
            if abs(closed - mc) > 3.0 * se:
                failures += 1
        # 3 sigma two-sided: expect ~0.3% of trials outside; tolerate one
        assert failures <= 1

    def test_nonnegative_on_grid(self):
        grid = np.concatenate([[0.05], np.linspace(0.25, 20.0, 40)])
        for ak in (1e-4, 1e-2, 1.0):
            a, b = np.meshgrid(grid, grid)
            kl = d.kl_kumaraswamy_beta(a.ravel(), b.ravel(), ak)
            assert kl.min() >= -1e-9

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.floats(0.05, 20.0),
        b=st.floats(0.05, 20.0),
        ak=st.floats(1e-4, 1.0),
    )
    def test_nonnegativity_property(self, a, b, ak):
        assert d.kl_kumaraswamy_beta(a, b, ak) >= -1e-9


class TestGaussianKl:
    def test_equal_distributions(self):
        assert d.gaussian_kl(0.0, 2.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift_only(self):
        assert d.gaussian_kl(1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_worked_value_against_monte_carlo(self):
        eta, kappa_sq, rho_var = 0.3, 0.25, np.sqrt(5.0)
        closed = d.gaussian_kl(eta, kappa_sq, rho_var)
        n = 2_000_000
        x = eta + np.sqrt(kappa_sq) * d.make_rng(5).standard_normal(n)
        log_q = -0.5 * (np.log(2 * np.pi * kappa_sq) + (x - eta) ** 2 / kappa_sq)
        log_p = -0.5 * (np.log(2 * np.pi * rho_var) + x**2 / rho_var)
        diff = log_q - log_p
        assert abs(closed - diff.mean()) < 3.0 * diff.std() / np.sqrt(n)
        assert closed == pytest.approx(0.67155, abs=1e-4)

    def test_sums_over_units(self):
        total = d.gaussian_kl(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1.0)
        assert total == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            d.gaussian_kl(0.0, -1.0, 1.0)


class TestConcreteBernoulli:
    def test_both_logits_zero(self):
        for tau in (0.1, 1.0, 3.0):
            assert d.concrete_bernoulli_sample(0.5, tau, 0.5) == pytest.approx(0.5)

    def test_u_half_recovers_pi(self):
        assert d.concrete_bernoulli_sample(0.9, 1.0, 0.5) == pytest.approx(0.9, rel=1e-9)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            d.concrete_bernoulli_sample(0.5, 0.0, 0.5)

    @pytest.mark.parametrize("tau", [0.1, 1.0])
    @pytest.mark.parametrize("pi", [0.1, 0.5, 0.9])
    def test_exceedance_probability_is_pi(self, tau, pi):
        # monotonicity in u gives P(z > 1/2) = P(u > 1 - pi) = pi exactly
        n = 100_000
        u = d.open_unit_uniform(d.make_rng(int(pi * 1000) + int(tau * 10)), n)
        z = d.concrete_bernoulli_sample(pi, tau, u)
        phat = (z > 0.5).mean()
        half_width = 2.576 * np.sqrt(pi * (1.0 - pi) / n)  # 99% binomial CI
        assert abs(phat - pi) <= half_width

    @settings(max_examples=100, deadline=None)
    @given(
        pi=st.floats(0.01, 0.99),
        tau=st.floats(0.05, 5.0),
        u=st.floats(1e-6, 1 - 1e-6),
    )
    def test_output_in_unit_interval(self, pi, tau, u):
        # mathematically z is in (0, 1); in float64 the sigmoid saturates to
        # an endpoint once the scaled logit passes ~36
        z = d.concrete_bernoulli_sample(pi, tau, u)
        assert 0.0 <= z <= 1.0
        scaled = (np.log(pi / (1 - pi)) + np.log(u / (1 - u))) / tau
        if abs(scaled) < 30.0:
            assert 0.0 < z < 1.0


class TestDigammaContract:
    def test_at_one(self):
        assert d.digamma(1.0) == pytest.approx(-d.EULER_GAMMA, abs=1e-15)

    def test_recurrence(self):
        for x in (0.3, 1.0, 2.5, 7.0):
            assert d.digamma(x + 1.0) == pytest.approx(d.digamma(x) + 1.0 / x, abs=1e-14)


# The package's own special functions against scipy.special, the oracle.
SPECIAL = {
    "digamma": (d.digamma, special.digamma),
    "trigamma": (d.trigamma, lambda x: special.polygamma(1, x)),
    "gammaln": (d.gammaln, special.gammaln),
}
# each function's recurrence f(x + 1) = f(x) + step(x)
RECURRENCE_STEP = {
    "digamma": lambda x: 1.0 / x,
    "trigamma": lambda x: -1.0 / (x * x),
    "gammaln": np.log,
}
GRID = np.logspace(-8, 8, 4001)


class TestSpecialFunctions:
    @pytest.mark.parametrize("name", SPECIAL)
    def test_matches_scipy_from_1e_minus_8_to_1e8(self, name):
        ours, ref = SPECIAL[name]
        want = ref(GRID)
        assert (np.abs(ours(GRID) - want) <= 1e-13 * np.maximum(1.0, np.abs(want))).all()

    @pytest.mark.parametrize("name", SPECIAL)
    def test_recurrence(self, name):
        f, step = SPECIAL[name][0], RECURRENCE_STEP[name]
        lhs, prev, inc = f(GRID + 1.0), f(GRID), step(GRID)
        # relative to the largest term: the sum may cancel to far below it
        scale = np.maximum.reduce([np.ones_like(GRID), np.abs(lhs), np.abs(prev), np.abs(inc)])
        assert (np.abs(lhs - (prev + inc)) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("name", SPECIAL)
    def test_keeps_the_argument_shape(self, name):
        f = SPECIAL[name][0]
        x = np.linspace(0.5, 40.0, 12).reshape(3, 4)
        assert f(x).shape == (3, 4) and np.shape(f(2.5)) == ()
        assert np.array_equal(f(x).ravel(), f(x.ravel()))

    @pytest.mark.parametrize("name", SPECIAL)
    def test_equal_arguments_give_equal_values(self, name):
        # E[pi] of identical units must be identical wherever the unit sits
        for x in (0.37, 2.11, 1234.5):
            out = SPECIAL[name][0](np.full(801, x))
            assert (out == out[0]).all()

    def test_expit_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = d.expit(np.array([-800.0, 800.0]))
        assert out.tolist() == [0.0, 1.0]

    def test_expit_matches_scipy(self):
        # both compute 1 / (1 + e^-x) with their own e^-x, so the two may fall on
        # either side of the exact value: at x = -37.03 they differ by 4.5e-16
        # relative, each within 2.4e-16 of it
        x = np.concatenate([np.linspace(-700.0, 700.0, 100_001), RNG.normal(0.0, 10.0, 10_000)])
        want = special.expit(x)
        assert (np.abs(d.expit(x) - want) <= 5e-16 * want).all()

    def test_softplus_slope_is_expit_of_the_argument(self):
        r = np.concatenate([np.linspace(-700.0, 700.0, 10_001), RNG.normal(0.0, 10.0, 1000)])
        want = special.expit(r)
        assert (np.abs(d.softplus_slope(d.softplus(r)) - want) <= 1e-15 * want).all()


class TestRng:
    def test_same_seed_same_stream(self):
        a = d.make_rng(99).random(1000)
        b = d.make_rng(99).random(1000)
        assert np.array_equal(a, b)

    def test_open_uniform_excludes_endpoints(self):
        u = d.open_unit_uniform(d.make_rng(1), 100_000)
        assert u.min() > 0.0 and u.max() < 1.0
