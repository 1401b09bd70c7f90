"""Tests for the comparator interval methods and quantile routines."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erfinv, ndtri, stdtrit
from scipy.stats import t as student_t

from fabcp.baselines import (
    dta_g,
    dta_interval,
    eb_bounds,
    eb_interval,
    normal_quantile,
    pivot_bounds,
    pivot_interval,
    student_t_quantile,
)
from fabcp.conformal import DTAMeasure, default_grid, grid_region


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.4, 0.49, 0.875, 0.999):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-13)

    def test_against_inverse_erf_oracle(self):
        # the oracle itself forms 2p - 1, so keep p where that is exact enough
        for p in np.linspace(1e-5, 1 - 1e-5, 201):
            want = math.sqrt(2.0) * float(erfinv(2.0 * p - 1.0))
            assert normal_quantile(float(p)) == pytest.approx(want, abs=1e-10)

    def test_against_scipy_including_far_tails(self):
        for p in np.concatenate([np.linspace(0.001, 0.999, 97), [1e-12, 1e-8, 1 - 1e-8, 1 - 1e-12]]):
            assert normal_quantile(float(p)) == pytest.approx(float(ndtri(p)), abs=1e-12)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(p)


class TestStudentTQuantile:
    def test_against_scipy(self):
        for df in (1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 121.0):
            for p in np.linspace(0.001, 0.999, 29):
                want = float(student_t.ppf(p, df))
                assert student_t_quantile(float(p), df) == pytest.approx(want, abs=1e-10, rel=1e-10)

    def test_median_zero_and_symmetry(self):
        assert student_t_quantile(0.5, 7) == 0.0
        for p in (0.05, 0.3, 0.9):
            assert student_t_quantile(p, 4) == pytest.approx(-student_t_quantile(1 - p, 4), abs=1e-12)

    def test_far_tail_is_warning_free(self):
        """The Newton step divided a numpy residual by an underflowed t density: an overflow warning."""
        p = 1.0 - 4.62e-12 / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = student_t_quantile(p, 28)
            pivot_interval(np.arange(29.0), 4.62e-12)
        assert q == pytest.approx(float(stdtrit(28, p)), rel=1e-12)

    def test_large_df_approaches_normal(self):
        for p in (0.025, 0.3, 0.875, 0.99):
            assert abs(student_t_quantile(p, 1e6) - normal_quantile(p)) < 1e-5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            student_t_quantile(0.4, 0.5)


class TestDtaG:
    def test_pair_of_zeros(self):
        assert dta_g(0.0, 0.0, 2) == 0.0

    def test_hand_example_and_tie(self):
        # y = {1,2,3}: reflecting y_1 = 1 gives (12 - 4)/2 = 4, where the
        # augmented-bag distances to the mean tie.
        g = dta_g(1.0, 6.0, 3)
        assert g == 4.0
        measure = DTAMeasure(augmented=True)
        bag = np.array([1.0, 2.0, 3.0, g])
        assert measure.score(bag, 1.0) == pytest.approx(measure.score(bag, g), abs=1e-15)

    def test_n_one_rejected(self):
        with pytest.raises(ValueError):
            dta_g(1.0, 1.0, 1)


class TestDtaInterval:
    def test_all_equal_sample_degenerates(self):
        iv = dta_interval([3.0, 3.0, 3.0], 0.25)
        assert (iv.lower, iv.upper) == (3.0, 3.0)

    def test_symmetric_sample_symmetric_interval(self):
        iv = dta_interval([-2.0, -1.0, 1.0, 2.0], 0.25)
        assert iv.lower == pytest.approx(-iv.upper, abs=1e-14)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            y = rng.normal(size=5)
            alpha = float(rng.choice([0.25, 0.4]))
            iv = dta_interval(y, alpha)
            grid = default_grid(y)
            region = grid_region(y, DTAMeasure(), alpha, grid)
            assert len(region.intervals) == 1
            lo, hi = region.intervals[0]
            assert abs(lo - iv.lower) <= grid.resolution + 1e-12
            assert abs(hi - iv.upper) <= grid.resolution + 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(43)
        y = rng.normal(size=5)
        base = dta_interval(y, 0.25)
        moved = dta_interval(y + 4.0, 0.25)
        assert moved.lower == pytest.approx(base.lower + 4.0, rel=1e-12)
        assert moved.upper == pytest.approx(base.upper + 4.0, rel=1e-12)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            dta_interval([1.0], 0.25)


class TestPivotInterval:
    def test_known_variance_hand_value(self):
        z = normal_quantile(0.875)
        iv = pivot_interval([0.0, 0.0, 0.0], 0.25, sigma2=1.0)
        want = z * math.sqrt(4.0 / 3.0)
        assert iv.upper == pytest.approx(want, rel=1e-12)
        assert iv.lower == pytest.approx(-want, rel=1e-12)
        # repo quantile agrees with the high-precision oracle
        assert z == pytest.approx(math.sqrt(2) * float(erfinv(0.75)), abs=1e-12)

    def test_alpha_near_one_collapses(self):
        iv = pivot_interval([1.0, 2.0], 1 - 1e-12, sigma2=1.0)
        assert iv.width < 1e-10

    def test_width_independent_of_values_when_variance_known(self):
        w1 = pivot_interval([0.0, 1.0, 2.0], 0.2, sigma2=2.0).width
        w2 = pivot_interval([-5.0, 5.0, 20.0], 0.2, sigma2=2.0).width
        assert w1 == pytest.approx(w2, rel=1e-15)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(41)
        y = rng.normal(size=6)
        for sigma2 in (1.0, None):
            base = pivot_interval(y, 0.25, sigma2)
            moved = pivot_interval(y + 3.5, 0.25, sigma2)
            assert moved.lower == pytest.approx(base.lower + 3.5, rel=1e-12)
            assert moved.upper == pytest.approx(base.upper + 3.5, rel=1e-12)

    def test_estimated_mode_needs_two(self):
        with pytest.raises(ValueError):
            pivot_interval([1.0], 0.25)


class TestEBInterval:
    def test_diffuse_limit_matches_pivot(self):
        y = [0.3, -1.0, 2.2]
        pivot = pivot_interval(y, 0.25, sigma2=1.0)
        eb = eb_interval(y, 0.25, mu=9.0, tau2=1e15, sigma2=1.0)
        assert eb.lower == pytest.approx(pivot.lower, abs=1e-6)
        assert eb.upper == pytest.approx(pivot.upper, abs=1e-6)

    def test_tight_prior_centers_at_mu(self):
        eb = eb_interval([5.0, 6.0], 0.25, mu=-2.0, tau2=1e-14, sigma2=1.0)
        assert 0.5 * (eb.lower + eb.upper) == pytest.approx(-2.0, abs=1e-9)

    def test_hand_example(self):
        # mu=0, tau2=1/2, sigma2=1, n=3, ybar=1: center 0.6, half-width z*sqrt(1.2)
        eb = eb_interval([0.0, 1.0, 2.0], 0.25, mu=0.0, tau2=0.5, sigma2=1.0)
        z = normal_quantile(0.875)
        assert 0.5 * (eb.lower + eb.upper) == pytest.approx(0.6, rel=1e-12)
        assert 0.5 * eb.width == pytest.approx(z * math.sqrt(1.2), rel=1e-12)

    def test_strictly_narrower_than_pivot(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            y = rng.normal(size=rng.integers(1, 10))
            alpha = float(rng.uniform(0.05, 0.9))
            tau2 = float(rng.uniform(0.01, 50))
            mu = float(rng.normal() * 3)
            sigma2 = float(rng.uniform(0.2, 5))
            w_eb = eb_interval(y, alpha, mu, tau2, sigma2).width
            w_piv = pivot_interval(y, alpha, sigma2).width
            assert w_eb < w_piv

    def test_location_equivariance(self):
        y = np.array([0.5, -0.7, 1.1])
        base = eb_interval(y, 0.25, mu=0.4, tau2=0.5, sigma2=1.0)
        moved = eb_interval(y + 2.0, 0.25, mu=2.4, tau2=0.5, sigma2=1.0)
        assert moved.lower == pytest.approx(base.lower + 2.0, rel=1e-12)
        assert moved.upper == pytest.approx(base.upper + 2.0, rel=1e-12)

    def test_estimated_variance_uses_t(self):
        y = [0.0, 1.0, 2.0, 3.0]
        eb = eb_interval(y, 0.25, mu=0.0, tau2=1.0)
        s2 = float(np.var(y, ddof=1))
        prec = 1.0 + 4.0 / s2
        want_half = student_t_quantile(0.875, 3) * math.sqrt(1.0 / prec + s2)
        assert 0.5 * eb.width == pytest.approx(want_half, rel=1e-12)

    def test_constant_sample_with_estimated_variance_degenerates(self):
        # The s2 -> 0 limit, as the t-mode pivot interval gives for the same sample.
        eb = eb_interval([1.0, 1.0, 1.0], 0.25, mu=0.0, tau2=1.0)
        assert (eb.lower, eb.upper) == (1.0, 1.0)
        pivot = pivot_interval([1.0, 1.0, 1.0], 0.25)
        assert (pivot.lower, pivot.upper) == (1.0, 1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_parametric_intervals_reject_non_finite_samples(bad):
    y = [1.0, bad, 2.0]
    for sigma2 in (1.0, None):
        with pytest.raises(ValueError, match="non-finite"):
            pivot_interval(y, 0.25, sigma2)
        with pytest.raises(ValueError, match="non-finite"):
            eb_interval(y, 0.25, 0.0, 1.0, sigma2)


_ROWS = np.array([[0.0, 1.0, 2.0], [0.5, -0.3, 1.1]])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda s: pivot_bounds(s, 1.5, None), "alpha"),
        (lambda s: pivot_bounds(s, math.nan, 1.0), "alpha"),
        (lambda s: pivot_bounds(s, 0.25, 0.0), "sigma2"),
        (lambda s: pivot_bounds(s, 0.25, math.inf), "sigma2"),
        (lambda s: eb_bounds(s, 0.25, 0.0, -1.0, 1.0), "tau2"),
        (lambda s: eb_bounds(s, 0.25, 0.0, math.nan, None), "tau2"),
        (lambda s: eb_bounds(s, 0.25, math.inf, 1.0, 1.0), "mu"),
        (lambda s: eb_bounds(s, 0.0, 0.0, 1.0, 1.0), "alpha"),
        (lambda s: eb_interval(s[0], 0.25, math.nan, 1.0), "mu"),
        (lambda s: pivot_interval(s[0], 0.25, math.nan), "sigma2"),
    ],
    ids=["pivot_alpha_above_one", "pivot_alpha_nan", "pivot_sigma2_zero", "pivot_sigma2_inf",
         "eb_tau2_negative", "eb_tau2_nan", "eb_mu_inf", "eb_alpha_zero", "eb_interval_mu_nan",
         "pivot_interval_sigma2_nan"],
)
def test_row_kernels_check_parameters(call, name):
    """The rules live in the kernels, so the simulator's batched calls get them too."""
    with pytest.raises(ValueError, match=rf"^(known )?{name} must"):
        call(_ROWS)


@pytest.mark.parametrize("sigma2", [1.0, None])
def test_eb_bounds_with_infinite_tau2_are_the_pivot_bounds(sigma2):
    eb = eb_bounds(_ROWS, 0.25, 3.0, math.inf, sigma2)
    np.testing.assert_allclose(eb, pivot_bounds(_ROWS, 0.25, sigma2), rtol=1e-14)
