"""Tests for the conjugate update and predictive t density."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from fabcp.working_model import (
    PosteriorPredictive,
    WorkingModelParams,
    log_predictive_density,
    posterior_mean_theta,
    posterior_params,
    predictive_density,
)


def _numeric_predictive(y_new, sample, params):
    """Predictive density by direct double integration of the joint.

    Integrates N(y_new | theta, sigma2) against the (unnormalized) joint
    posterior of (theta, sigma2) given the sample, then normalizes;
    independent of the closed-form update. Integration variables are
    u = log(sigma2) and the prior-standardized s with
    theta = mu + sqrt(tau2 * sigma2) * s, so bounded ranges capture the
    heavy inverse-gamma tail.
    """
    y = np.asarray(sample, dtype=float)

    def log_joint(s, u):
        sigma2 = math.exp(u)
        theta = params.mu + math.sqrt(params.tau2 * sigma2) * s
        ll = -0.5 * np.sum((y - theta) ** 2) / sigma2 - y.size / 2.0 * math.log(2 * math.pi * sigma2)
        lp_theta = -0.5 * s * s - 0.5 * math.log(2 * math.pi)
        # inverse-gamma density of sigma2 times the Jacobian sigma2 of u = log sigma2
        lp_sigma = (
            (params.a / 2.0) * math.log(params.b / 2.0)
            - math.lgamma(params.a / 2.0)
            - (params.a / 2.0 + 1.0) * math.log(sigma2)
            - params.b / (2.0 * sigma2)
            + u
        )
        return ll + lp_theta + lp_sigma

    def numer(s, u):
        sigma2 = math.exp(u)
        theta = params.mu + math.sqrt(params.tau2 * sigma2) * s
        ll_new = -0.5 * (y_new - theta) ** 2 / sigma2 - 0.5 * math.log(2 * math.pi * sigma2)
        return math.exp(log_joint(s, u) + ll_new)

    def denom(s, u):
        return math.exp(log_joint(s, u))

    top, _ = dblquad(numer, -24.0, 24.0, -14.0, 14.0, epsabs=1e-13, epsrel=1e-11)
    bot, _ = dblquad(denom, -24.0, 24.0, -14.0, 14.0, epsabs=1e-13, epsrel=1e-11)
    return top / bot


class TestPosteriorParams:
    def test_single_zero_observation(self):
        """Unit sample {0} with unit hyperparameters, solved by hand."""
        pp = posterior_params([0.0], WorkingModelParams(mu=0.0, tau2=1.0, a=1.0, b=1.0))
        assert pp.tau2_theta == 0.5
        assert pp.mu_theta == 0.0
        assert pp.a_sigma == 2.0
        assert pp.b_sigma == 1.0
        assert pp.scale == 0.75

    def test_matches_numeric_double_integral(self):
        params = WorkingModelParams(mu=0.3, tau2=0.8, a=1.5, b=2.0)
        sample = [0.5, -1.2, 2.0]
        pp = posterior_params(sample, params)
        for y_new in (-1.0, 0.4, 2.5):
            want = _numeric_predictive(y_new, sample, params)
            got = predictive_density(y_new, pp)
            assert got == pytest.approx(want, rel=1e-6)

    def test_location_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(size=rng.integers(1, 9))
            mu, tau2 = rng.normal(), float(rng.uniform(0.1, 5.0))
            a, b = float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5))
            c = rng.normal() * 3
            p0 = posterior_params(y, WorkingModelParams(mu, tau2, a, b))
            p1 = posterior_params(y + c, WorkingModelParams(mu + c, tau2, a, b))
            assert p1.mu_theta == pytest.approx(p0.mu_theta + c, rel=1e-12, abs=1e-12)
            assert p1.tau2_theta == p0.tau2_theta
            assert p1.a_sigma == p0.a_sigma
            assert p1.b_sigma == pytest.approx(p0.b_sigma, rel=1e-12)

    def test_symmetric_sample_symmetric_prior(self):
        pp = posterior_params([1.0, -1.0], WorkingModelParams(mu=0.0, tau2=1.0, a=1.0, b=1.0))
        assert pp.mu_theta == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            posterior_params([], WorkingModelParams(0.0, 1.0, 1.0, 1.0))

    def test_invalid_hyperparameters_rejected(self):
        for kwargs in ({"tau2": 0.0}, {"tau2": -1.0}, {"a": 0.0}, {"b": -2.0}):
            full = {"mu": 0.0, "tau2": 1.0, "a": 1.0, "b": 1.0, **kwargs}
            with pytest.raises(ValueError):
                WorkingModelParams(**full)

    def test_nonfinite_sample_rejected(self):
        with pytest.raises(ValueError):
            posterior_params([1.0, math.nan], WorkingModelParams(0.0, 1.0, 1.0, 1.0))

    def test_two_dimensional_sample_rejected(self):
        with pytest.raises(ValueError, match=r"^sample must be one-dimensional, got shape \(2, 1\)$"):
            posterior_params(np.ones((2, 1)), WorkingModelParams(0.0, 1.0, 1.0, 1.0))


class TestPredictiveDensity:
    def _random_pp(self, rng):
        y = rng.normal(size=rng.integers(1, 9))
        params = WorkingModelParams(
            mu=float(rng.normal()),
            tau2=float(rng.uniform(0.1, 4)),
            a=float(rng.uniform(0.5, 6)),
            b=float(rng.uniform(0.5, 6)),
        )
        return posterior_params(y, params)

    def test_mode_at_posterior_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pp = self._random_pp(rng)
            peak = predictive_density(pp.mu_theta, pp)
            for d in (0.01, 0.5, 3.0):
                assert peak > predictive_density(pp.mu_theta + d, pp)
                assert peak > predictive_density(pp.mu_theta - d, pp)

    def test_symmetry_about_center(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pp = self._random_pp(rng)
            for d in (0.3, 1.7, 8.0):
                left = predictive_density(pp.mu_theta - d, pp)
                right = predictive_density(pp.mu_theta + d, pp)
                assert left == pytest.approx(right, rel=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pp = self._random_pp(rng)
            half = 50.0 * math.sqrt(pp.scale)
            total, _ = quad(
                lambda x: predictive_density(x, pp),
                pp.mu_theta - half,
                pp.mu_theta + half,
                limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_log_and_linear_scales_agree(self):
        pp = posterior_params([0.2, -0.4], WorkingModelParams(0.0, 1.0, 2.0, 2.0))
        for x in (-3.0, 0.0, 4.5):
            assert predictive_density(x, pp) == pytest.approx(
                math.exp(log_predictive_density(x, pp)), rel=1e-15
            )

    def test_large_degrees_of_freedom_stable(self):
        # the gamma prefactor must not overflow when a_sigma is huge
        pp = PosteriorPredictive(a_sigma=1e8, mu_theta=0.0, tau2_theta=0.5, b_sigma=1e8, scale=1.0)
        val = predictive_density(0.0, pp)
        assert math.isfinite(val) and val > 0.3


class TestPosteriorMeanTheta:
    def test_zero_sample(self):
        assert posterior_mean_theta([0.0, 0.0, 0.0], WorkingModelParams(0.0, 1.0, 1.0, 1.0)) == 0.0

    def test_hand_example(self):
        got = posterior_mean_theta([1.0, 2.0, 3.0], WorkingModelParams(0.0, 1.0, 1.0, 1.0))
        assert got == pytest.approx(1.5, rel=1e-15)

    def test_diffuse_limit_is_sample_mean(self):
        y = [0.7, -2.0, 1.4, 0.1]
        got = posterior_mean_theta(y, WorkingModelParams(5.0, 1e15, 1.0, 1.0))
        assert got == pytest.approx(np.mean(y), rel=1e-12)

    def test_convex_between_prior_and_sample_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            y = rng.normal(size=rng.integers(1, 12))
            mu = float(rng.normal() * 2)
            tau2 = float(rng.uniform(0.05, 10))
            t = posterior_mean_theta(y, WorkingModelParams(mu, tau2, 1.0, 1.0))
            ybar = float(np.mean(y))
            assert min(mu, ybar) - 1e-12 <= t <= max(mu, ybar) + 1e-12
