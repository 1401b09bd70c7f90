"""Tests for the exact FAB interval and its reflection geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabcp.baselines import dta_interval
from fabcp.conformal import FABMeasure, default_grid, grid_region
from fabcp.fab import (
    _reflect,
    fab_interval,
    fab_interval_from_precision,
    g_map,
    reflect_bounds,
    sub_regions,
)
from fabcp.working_model import (
    WorkingModelParams,
    posterior_mean_theta,
    posterior_params,
    predictive_density,
)


def random_params(rng, a=None, b=None):
    return WorkingModelParams(
        mu=float(rng.uniform(-3, 3)),
        tau2=float(rng.choice([0.1, 0.5, 2.0, 10.0])),
        a=a if a is not None else float(rng.uniform(0.5, 5)),
        b=b if b is not None else float(rng.uniform(0.5, 5)),
    )


class TestGMap:
    def test_zero_sample_fixed_at_zero(self):
        assert g_map(0.0, 0.0, 3, mu=0.0, tau2=1.0) == 0.0

    def test_posterior_mean_is_fixed_point(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            y = rng.normal(size=rng.integers(1, 10))
            params = random_params(rng)
            theta = posterior_mean_theta(y, params)
            got = g_map(theta, math.fsum(y), y.size, params.mu, params.tau2)
            assert got == pytest.approx(theta, rel=1e-12, abs=1e-12)

    def test_diffuse_limit_matches_distance_to_average_reflection(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=5)
        s = math.fsum(y)
        for y_i in y:
            near_diffuse = g_map(float(y_i), s, 5, mu=123.0, tau2=1e14)
            dta = (2.0 * s - 6.0 * y_i) / 4.0
            assert near_diffuse == pytest.approx(dta, rel=1e-9, abs=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            g_map(0.0, 0.0, 0, mu=0.0, tau2=1.0)
        with pytest.raises(ValueError):
            g_map(0.0, 0.0, 3, mu=0.0, tau2=0.0)


class TestFabInterval:
    def test_all_zero_sample_degenerates_to_point(self):
        iv = fab_interval([0.0, 0.0, 0.0], WorkingModelParams(0.0, 1.0, 1.0, 1.0), 0.25)
        assert iv.k == 1
        assert (iv.lower, iv.upper) == (0.0, 0.0)
        assert iv.degenerate

    def test_order_statistic_positions(self):
        # n = 4, alpha = 0.2: k = 1, the interval spans the extreme candidates
        rng = np.random.default_rng(22)
        y = rng.normal(size=4)
        params = random_params(rng)
        iv = fab_interval(y, params, 0.2)
        v = np.sort(np.concatenate([y, [g_map(float(v), math.fsum(y), 4, params.mu, params.tau2) for v in y]]))
        assert iv.k == 1
        assert (iv.lower, iv.upper) == (v[0], v[-1])

    def test_k_zero_returns_real_line(self):
        iv = fab_interval([1.0, 2.0, 3.0], WorkingModelParams(0.0, 1.0, 1.0, 1.0), 0.1)
        assert (iv.lower, iv.upper) == (-math.inf, math.inf)
        assert iv.k == 0
        assert iv.achieved_level == 1.0

    def test_achieved_level_at_least_nominal(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            alpha = float(rng.uniform(0.05, 0.9))
            iv = fab_interval(rng.normal(size=n), random_params(rng), alpha)
            assert iv.achieved_level >= 1 - alpha - 1e-15

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            y = rng.normal(size=n)
            params = random_params(rng)
            alpha = float(rng.choice([0.2, 0.25, 0.5]))
            iv = fab_interval(y, params, alpha)
            grid = default_grid(y, anchors=(params.mu,))
            region = grid_region(y, FABMeasure(params), alpha, grid)
            assert len(region.intervals) == 1
            if iv.k == 0:
                assert region.accepted.all()
                continue
            lo, hi = region.intervals[0]
            assert abs(lo - iv.lower) <= grid.resolution + 1e-12
            assert abs(hi - iv.upper) <= grid.resolution + 1e-12

    def test_contains_posterior_mean(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            y = rng.normal(size=n)
            params = random_params(rng)
            iv = fab_interval(y, params, 0.25)
            theta = posterior_mean_theta(y, params)
            assert iv.lower <= theta <= iv.upper

    def test_independent_of_inverse_gamma_hyperparameters(self):
        rng = np.random.default_rng(26)
        y = rng.normal(size=6)
        base = fab_interval(y, WorkingModelParams(0.4, 0.8, 1.0, 1.0), 0.25)
        for a, b in ((0.1, 7.0), (42.0, 0.3), (5.0, 5.0)):
            other = fab_interval(y, WorkingModelParams(0.4, 0.8, a, b), 0.25)
            assert (other.lower, other.upper) == (base.lower, base.upper)

    def test_location_equivariance(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            y = rng.normal(size=5)
            params = random_params(rng)
            c = float(rng.uniform(-5, 5))
            base = fab_interval(y, params, 0.25)
            shifted = fab_interval(
                y + c,
                WorkingModelParams(params.mu + c, params.tau2, params.a, params.b),
                0.25,
            )
            assert shifted.lower == pytest.approx(base.lower + c, rel=1e-12, abs=1e-12)
            assert shifted.upper == pytest.approx(base.upper + c, rel=1e-12, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            y = rng.normal(size=5)
            params = random_params(rng)
            lam = float(rng.uniform(0.1, 10))
            base = fab_interval(y, params, 0.25)
            scaled = fab_interval(
                lam * y,
                WorkingModelParams(lam * params.mu, params.tau2, params.a, params.b),
                0.25,
            )
            assert scaled.lower == pytest.approx(lam * base.lower, rel=1e-12, abs=1e-12)
            assert scaled.upper == pytest.approx(lam * base.upper, rel=1e-12, abs=1e-12)

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(29)
        y = rng.normal(size=7)
        params = random_params(rng)
        base = fab_interval(y, params, 0.25)
        for _ in range(10):
            perm = rng.permutation(y)
            iv = fab_interval(perm, params, 0.25)
            assert (iv.lower, iv.upper) == (base.lower, base.upper)

    def test_diffuse_precision_equals_dta_exactly(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            y = rng.normal(size=n)
            alpha = float(rng.uniform(0.05, 0.9))
            fab = fab_interval_from_precision(y, float(rng.normal()), 0.0, alpha)
            dta = dta_interval(y, alpha)
            assert (fab.lower, fab.upper) == (dta.lower, dta.upper)

    def test_input_validation(self):
        params = WorkingModelParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            fab_interval([1.0, 2.0], params, 0.0)
        with pytest.raises(ValueError):
            fab_interval([1.0, 2.0], params, 1.0)
        with pytest.raises(ValueError):
            fab_interval([1.0, math.nan], params, 0.25)
        with pytest.raises(ValueError):
            fab_interval([], params, 0.25)
        with pytest.raises(ValueError):
            fab_interval_from_precision([1.0], 0.0, 0.0, 0.25)  # diffuse needs n >= 2

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("precision", [0.0, 2.0])
    def test_non_finite_mu_rejected(self, mu, precision):
        # At precision 0 mu does not enter the interval, but it must still be a number.
        with pytest.raises(ValueError, match="mu must be finite"):
            fab_interval_from_precision(np.arange(1.0, 8.0), mu, precision, 0.25)


def _bits(lower: float, upper: float) -> tuple[str, str]:
    return float(lower).hex(), float(upper).hex()


def _assert_kernel_matches_scalar(samples, mu, precision, alpha):
    """Row by row, the kernel on fsum row sums gives the scalar APIs' bits."""
    n = samples.shape[1]
    k = int(math.floor(alpha * (n + 1)))
    sums = np.array([[math.fsum(row)] for row in samples])
    bounds = reflect_bounds(samples, sums, mu, precision, k)
    for row, (lo, hi) in zip(samples, bounds):
        iv = fab_interval_from_precision(row, mu, precision, alpha)
        assert iv.k == k
        assert _bits(lo, hi) == _bits(iv.lower, iv.upper)
        if precision == 0.0:
            dta = dta_interval(row, alpha)
            assert _bits(lo, hi) == _bits(dta.lower, dta.upper)


def _exact_bounds(y, mu, precision, k):
    """The k-th and (2n-k+1)-th order statistics of the exact pooled reflections of the float
    inputs, and the size max(|A|, |c*y|)/(c - 2) of the terms that cancel in them."""
    ys = [Fraction(v) for v in y]
    n, p = len(ys), Fraction(precision)
    c = p + n + 1
    a = 2 * (Fraction(mu) * p + sum(ys))
    pool = sorted(ys + [(a - c * v) / (c - 2) for v in ys])
    return pool[k - 1], pool[2 * n - k], max([abs(a)] + [abs(c * v) for v in ys]) / (c - 2)


@st.composite
def _kernel_cases(draw):
    """A sample, a prior and a rank k >= 1: scales 1e-3 to 1e6, shifts to 1e8, rounded ties,
    signed zeros, huge |mu| under tight priors, and n = 1 with a precision near 0. A nonzero
    value is at least 2**-20 of its scale, so no product underflows into subnormals."""
    units = st.integers(-2**20, 2**20).map(lambda i: i / 2**20)
    n = draw(st.integers(1, 12))
    scale = 10.0 ** draw(st.integers(-3, 6))
    shift = draw(st.sampled_from([0.0, -0.0, 1.0, -2.5e3, 1e8]))
    us = draw(st.lists(units, min_size=n, max_size=n))
    if draw(st.booleans()):
        us = [round(u, 1) for u in us]  # ties
    if draw(st.booleans()):
        us = [-0.0 if u == 0.0 else u for u in us]
    y = [shift + scale * u if shift else scale * u for u in us]
    precision = draw(st.one_of(
        st.sampled_from([0.0, 1e-12, 1e4]), st.floats(1e-12, 1e-6), st.floats(1e-6, 1e4),
    ))
    if n == 1 and precision < 1e-12:
        precision = 1e-12  # the diffuse prior needs n >= 2
    mu = draw(st.one_of(
        st.sampled_from([0.0, -0.0, -1e8, 1e8]),
        st.builds(lambda u, e: u * 10.0 ** e, units, st.integers(-3, 8)),
    ))
    return y, mu, precision, draw(st.integers(1, n))


class TestExactArithmetic:
    """Each endpoint is within 32 ulp of the size of the terms that cancel in it."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_kernel_cases())
    def test_endpoints_match_exact_order_statistics(self, case):
        y, mu, precision, k = case
        n = len(y)
        alpha = (k + 0.5) / (n + 1)  # floor(alpha * (n + 1)) = k
        fab = fab_interval_from_precision(y, mu, precision, alpha)
        assert fab.k == k
        checks = [
            ("reflect_bounds", reflect_bounds(np.array([y]), math.fsum(y), mu, precision, k)[0].tolist(),
             mu, precision),
            ("fab_interval_from_precision", (fab.lower, fab.upper), mu, precision),
        ]
        if n >= 2:  # the diffuse prior needs n >= 2
            dta = dta_interval(y, alpha)
            checks.append(("dta_interval", (dta.lower, dta.upper), 0.0, 0.0))
        for name, got, m, p in checks:
            lo, hi, size = _exact_bounds(y, m, p, k)
            tol = 32 * Fraction(math.ulp(float(size)))
            for end, want in zip(got, (lo, hi)):
                assert abs(Fraction(end) - want) <= tol, (name, float(want), end)


class TestReflectBounds:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        n=st.integers(1, 40),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 0.9]),
        mu=st.floats(-5.0, 5.0),
        precision=st.sampled_from([0.0, 0.1, 1.0, 7.5]),
        ties=st.booleans(),
    )
    def test_rows_match_scalar_bits(self, seed, rows, n, alpha, mu, precision, ties):
        if precision == 0.0 and n < 2:
            n = 2
        samples = np.random.default_rng(seed).normal(size=(rows, n)) * 3.0
        if ties:
            samples = np.round(samples)
        _assert_kernel_matches_scalar(samples, mu, precision, alpha)

    def test_large_row_matches_scalar_bits(self):
        samples = np.random.default_rng(33).normal(size=(1, 10**4))
        for precision in (0.0, 2.0):
            _assert_kernel_matches_scalar(samples, 0.3, precision, 0.1)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_selection_oracle(self, rows):
        """Every (n, k): columns k-1 and 2n-k of the sorted pool, in a compact (rows, 2) array."""
        rng = np.random.default_rng(rows)
        mu, precision = 0.3, 1.5
        for n in range(1, 41):
            samples = np.round(rng.normal(size=(rows, n)) * 3.0, 1)  # ties included
            sums = samples.sum(axis=1, keepdims=True)
            pool = np.sort(np.concatenate([samples, _reflect(samples, sums, n, mu, precision)],
                                          axis=1), axis=1)
            for k in range(n + 1):
                b = reflect_bounds(samples, sums, mu, precision, k)
                assert b.shape == (rows, 2)
                # A view of the sorted pool would keep all 2n columns alive.
                assert (b.base if b.base is not None else b).size == 2 * rows
                expected = [(-math.inf, math.inf) if k == 0 else (p[k - 1], p[2 * n - k])
                            for p in pool.tolist()]
                assert [_bits(lo, hi) for lo, hi in b.tolist()] == [
                    _bits(lo, hi) for lo, hi in expected]

    @pytest.mark.parametrize("sums_dtype", [np.float64], ids=["float64_sums"])
    def test_pool_keeps_the_promoted_dtype(self, sums_dtype):
        """float32 samples with float64 sums give the bits of concatenating them with their reflection."""
        n, mu, precision = 9, 0.3, 1.5
        samples = np.round(np.random.default_rng(4).normal(size=(3, n)) * 3.0, 1).astype(np.float32)
        s = samples.sum(axis=1, keepdims=True, dtype=sums_dtype)
        c = precision + (n + 1.0)
        reflection = (2.0 * (mu * precision + s) - c * samples) / (c - 2.0)
        pool = np.sort(np.concatenate([samples, reflection], axis=1), axis=1)
        assert pool.dtype == np.float64
        for k in (1, 4, n):
            b = reflect_bounds(samples, s, mu, precision, k)
            assert b.dtype == np.float64
            assert b.tobytes() == pool[:, [k - 1, 2 * n - k]].tobytes()

    def test_pool_is_the_only_large_allocation(self, traced_peak):
        """A reflection built out of place and then concatenated peaked at 3.0 x the samples."""
        samples = np.random.default_rng(5).normal(size=(1, 10**5))
        sums = samples.sum(axis=1, keepdims=True)
        _, peak = traced_peak(lambda: reflect_bounds(samples, sums, 0.3, 2.0, 10))
        assert peak <= 2.2 * samples.nbytes


@pytest.mark.parametrize("sample, precision, alpha, message", [
    ([1.0, 2.0, 3.5], 1.7e308, 0.5, "mu = 0.0, precision = 1.7e+308, largest |y| = 3.5"),
    ([1e308, -1e308, 0.5], 0.0, 0.25, "mu = 0.0, precision = 0.0, largest |y| = 1e+308"),
], ids=["tight_prior", "diffuse_large_values"])
def test_overflowing_endpoint_raises(sample, precision, alpha, message):
    """The reflection overflowed, and the interval came back with an infinite endpoint."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as err:
        fab_interval_from_precision(sample, 0.0, precision, alpha)
    assert str(err.value) == "the interval endpoints overflow: " + message


_ROW = np.array([[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("call, name", [
    (lambda: reflect_bounds(_ROW, 6.0, math.nan, 1.0, 1), "mu"),
    (lambda: reflect_bounds(_ROW, 6.0, 0.0, math.inf, 1), "precision"),
    (lambda: reflect_bounds(_ROW, 6.0, 0.0, -1.0, 1), "precision"),
    (lambda: reflect_bounds(_ROW, 6.0, 0.0, math.nan, 0), "precision"),
    (lambda: reflect_bounds(_ROW, 6.0, 0.0, 1.0, 4), "k"),
    (lambda: reflect_bounds(_ROW, 6.0, 0.0, 1.0, -1), "k"),
    (lambda: fab_interval_from_precision([1.0], 0.0, 1e-20, 0.6), "precision"),
    (lambda: sub_regions([1.0], WorkingModelParams(0.0, 1e17, 1.0, 1.0)), "precision"),
    (lambda: fab_interval_from_precision([1.0, 2.0, 3.5], 1e300, 1e10, 0.25),
     r"^the prior term 2 \* mu \* precision overflows: mu = 1e\+300, "),
], ids=["mu_nan", "precision_inf", "precision_negative", "precision_nan_k0", "k_above_n",
        "k_negative", "n1_precision_vanishes", "sub_regions_n1_tau2_1e17", "prior_term_overflows"])
def test_reflection_rules(call, name):
    """These gave NaN, wrong or reversed bounds, the whole line, an IndexError, a numpy warning
    or (the prior term) an infinite upper bound."""
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("container", [list, np.array])
@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_rejected_on_every_path(bad, position, container):
    values = [0.5, -1.0, 2.0, 0.25, 1.5]
    values[position] = bad
    sample = container(values)
    params = WorkingModelParams(0.3, 0.5, 1.0, 1.0)
    for call in (lambda: fab_interval_from_precision(sample, 0.3, 2.0, 0.25),
                 lambda: dta_interval(sample, 0.25),
                 lambda: posterior_mean_theta(sample, params)):
        with pytest.raises(ValueError, match="^sample contains non-finite values$"):
            call()


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
def test_endpoints_are_python_floats(alpha):
    """Including the unbounded interval at k = 0 (n = 5, alpha = 0.1)."""
    sample = np.array([0.5, -1.0, 2.0, 0.25, 1.5])
    for iv in (fab_interval_from_precision(sample, 0.3, 2.0, alpha),
               fab_interval_from_precision(sample.tolist(), 0.3, 0.0, alpha),
               dta_interval(sample, alpha)):
        assert type(iv.lower) is float and type(iv.upper) is float
        assert type(iv.achieved_level) is float and type(iv.k) is int
    assert type(posterior_mean_theta(sample, WorkingModelParams(0.3, 0.5, 1.0, 1.0))) is float


class TestSubRegions:
    def test_symmetric_sample_gives_mirrored_regions(self):
        regions = sub_regions([-1.0, 1.0], WorkingModelParams(0.0, 1.0, 1.0, 1.0))
        assert regions[0].lo == -regions[1].hi
        assert regions[0].hi == -regions[1].lo

    def test_each_contains_posterior_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            y = rng.normal(size=rng.integers(1, 9))
            params = random_params(rng)
            theta = posterior_mean_theta(y, params)
            for region in sub_regions(y, params):
                assert region.lo <= theta + 1e-12
                assert region.hi >= theta - 1e-12

    def test_boundaries_match_augmented_score_comparison(self):
        """Inside S_i the observation scores no better than the candidate."""
        rng = np.random.default_rng(32)
        y = rng.normal(size=4)
        params = random_params(rng)

        def scores(x, i):
            bag = np.append(y, x)
            pp = posterior_params(bag, params)
            return predictive_density(float(y[i]), pp), predictive_density(x, pp)

        for region in sub_regions(y, params):
            width = region.hi - region.lo
            if width == 0:
                continue
            for frac in (0.1, 0.5, 0.9):
                x = region.lo + frac * width
                c_i, c_cand = scores(x, region.index)
                assert c_i <= c_cand + 1e-12
            for x in (region.lo - 0.05 * (1 + width), region.hi + 0.05 * (1 + width)):
                c_i, c_cand = scores(x, region.index)
                assert c_i > c_cand

    def test_all_equal_sample_with_matching_prior_degenerates(self):
        # with mu at the common value the reflection fixes every point
        regions = sub_regions([2.0, 2.0, 2.0], WorkingModelParams(2.0, 0.7, 1.0, 1.0))
        for region in regions:
            assert region.lo == region.hi == 2.0
