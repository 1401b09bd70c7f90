"""Tests for the spatial working model and leave-one-area-out pipeline."""

import logging
import math
import multiprocessing
import os
import pickle
import re
import threading
import traceback
from collections import Counter

import numpy as np
import pytest

from fabcp import small_area
from fabcp.small_area import (
    AreaConformalParams,
    AreaTable,
    EstimationError,
    ab_marginal_loglik,
    area_pipeline,
    conditional_params,
    eb_variances,
    estimate_ab,
    exact_alpha,
    fit_mean_model,
    generate_table,
    loo_conformal_params,
    mean_model_loglik,
    sar_covariance,
    sq_exp_weights,
    _RhoProfile,
    _SarParts,
)
from fabcp.baselines import dta_interval
from fabcp.fab import fab_interval_from_precision, g_map, reflect_bounds
from fabcp.working_model import PosteriorPredictive, WorkingModelParams


def _random_weights(rng, J):
    return sq_exp_weights(rng.uniform(0, 3, size=(J, 2)))


class TestSqExpWeights:
    def test_two_areas(self):
        W = sq_exp_weights([(0.0, 0.0), (5.0, 1.0)])
        np.testing.assert_array_equal(W, [[0.0, 1.0], [1.0, 0.0]])

    def test_three_collinear_equally_spaced(self):
        W = sq_exp_weights([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        np.testing.assert_allclose(W[1], [0.5, 0.0, 0.5], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(50)
        W = _random_weights(rng, 17)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(W) == 0.0)

    def test_isolated_area_rejected(self):
        with pytest.raises(ValueError, match="isolated area"):
            sq_exp_weights([(0.0, 0.0), (1e4, 0.0)])

    def test_matches_broadcast_sum(self):
        """The two difference arrays give the bits of the broadcast sum over a length-2 axis."""
        def oracle(c):
            W = np.exp(-np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=2))
            np.fill_diagonal(W, 0.0)
            W[W < 1e-12] = 0.0
            W = W / W.sum(axis=1)[:, None]
            W[W < 1e-12] = 0.0
            return W / W.sum(axis=1)[:, None]

        rng = np.random.default_rng(88)
        for J in (2, 7, 50, 151):
            c = rng.uniform(-4.0, 8.0, size=(J, 2))
            c[J // 2] = c[0]  # coincident centroids
            assert np.array_equal(sq_exp_weights(c), oracle(c)), J

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_centroid_rejected(self, bad):
        """A NaN centroid gave an all-NaN W, and an infinite one an "isolated area"."""
        with pytest.raises(ValueError, match="centroids must be finite"):
            sq_exp_weights([(0.0, 0.0), (1.0, bad), (2.0, 0.5)])


class TestSarCovariance:
    def test_identity_at_rho_zero(self):
        rng = np.random.default_rng(51)
        W = _random_weights(rng, 6)
        np.testing.assert_array_equal(sar_covariance(0.0, W), np.eye(6))

    def test_hand_two_by_two(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        G = sar_covariance(0.5, W)
        want = np.array([[20.0 / 9.0, 16.0 / 9.0], [16.0 / 9.0, 20.0 / 9.0]])
        np.testing.assert_allclose(G, want, rtol=1e-12)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            J = int(rng.integers(3, 12))
            W = _random_weights(rng, J)
            rho = float(rng.uniform(-0.95, 0.95))
            G = sar_covariance(rho, W)
            np.testing.assert_allclose(G, G.T, atol=1e-10)
            np.linalg.cholesky(G)  # raises if not positive definite

    def test_rho_bounds(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        for rho in (-1.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                sar_covariance(rho, W)


def _simulate_s2(rng, J, n, a, b):
    sigma2 = (b / 2.0) / rng.gamma(a / 2.0, 1.0, size=J)
    s2 = sigma2 * rng.chisquare(n - 1, size=J)
    return s2, sigma2


class TestEstimateAB:
    def test_recovers_generating_values(self):
        rng = np.random.default_rng(60)
        s2, _ = _simulate_s2(rng, J=500, n=20, a=4.0, b=2.0)
        a_hat, b_hat = estimate_ab(s2, np.full(s2.size, 20))
        assert a_hat == pytest.approx(4.0, rel=0.15)
        assert b_hat == pytest.approx(2.0, rel=0.15)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(61)
        s2, _ = _simulate_s2(rng, J=80, n=8, a=3.0, b=1.5)
        n = np.full(s2.size, 8)
        a_hat, b_hat = estimate_ab(s2, n)
        best = max(
            ab_marginal_loglik(math.exp(la), math.exp(lb), s2, n)
            for la in np.linspace(-3, 3, 50)
            for lb in np.linspace(-3, 3, 50)
        )
        assert ab_marginal_loglik(a_hat, b_hat, s2, n) >= best - 1e-9

    def test_scale_family(self):
        rng = np.random.default_rng(60)
        s2, _ = _simulate_s2(rng, J=500, n=20, a=4.0, b=2.0)
        n = np.full(s2.size, 20)
        a_hat, b_hat = estimate_ab(s2, n)
        lam = 3.7
        a_scaled, b_scaled = estimate_ab(s2 * lam, n)
        assert a_scaled == pytest.approx(a_hat, rel=0.05)
        assert b_scaled == pytest.approx(lam * b_hat, rel=0.05)

    def test_needs_two_informative_areas(self):
        with pytest.raises(ValueError):
            estimate_ab([1.0, 0.0], [5, 1])

    @pytest.mark.parametrize("best_point", [(0.1 + 0.2, 3.0e-300), None])
    def test_estimation_error_survives_pickle(self, best_point):
        """Errors cross a process boundary when the pipeline fits areas in workers."""
        err = pickle.loads(pickle.dumps(EstimationError("fit did not converge", best_point=best_point)))
        assert type(err) is EstimationError and str(err) == "fit did not converge"
        assert err.best_point == best_point


def _scipy_ab(s2, n):
    """``estimate_ab`` as one scipy Nelder-Mead search per problem: the oracle.

    Returns the clamped best point as (a, b), scipy's success flag, its
    evaluation count and its message.
    """
    from scipy.optimize import minimize
    from scipy.special import gammaln

    v = s2 / (n - 1.0)
    m = float(np.mean(v))
    if m <= 0.0:
        m = 1e-8
    var = float(np.var(v))
    alpha0 = m * m / var + 2.0 if var > 0.0 else 10.0
    alpha0 = min(max(alpha0, 2.2), 100.0)
    beta0 = m * (alpha0 - 1.0)
    x0 = np.log([2.0 * alpha0, 2.0 * beta0])
    half_n1 = (n - 1.0) / 2.0

    def clamp(x):
        return min(max(float(x[0]), -6.0), 7.0), min(max(float(x[1]), -12.0), 12.0)

    def neg_ll(x):
        la, lb = clamp(x)
        a, b = math.exp(la), math.exp(lb)
        half_post = a / 2.0 + half_n1
        return -float(
            np.sum(gammaln(half_post))
            - s2.size * gammaln(a / 2.0)
            + s2.size * (a / 2.0) * math.log(b / 2.0)
            - np.sum(half_post * np.log((b + s2) / 2.0))
        )

    res = minimize(neg_ll, x0, method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-11, "maxiter": 2000, "maxfev": 4000})
    la, lb = clamp(res.x)
    return (math.exp(la), math.exp(lb)), bool(res.success), int(res.nfev), res.message


def _criterion_11_table(J, seed):
    table, _ = generate_table(J=J, n_range=(3, 10), beta=[1.0, 1.0], eta2=0.5, rho=0.7, a=6.0,
                              b=4.0, rng=np.random.default_rng(seed), extent=8.0)
    return table


def _singles_table():
    """A criterion-11 map where every fourth area has one observation."""
    t = _criterion_11_table(30, 5)
    return AreaTable(ids=t.ids, X=t.X, centroids=t.centroids,
                     samples=[s[:1] if j % 4 == 1 else s for j, s in enumerate(t.samples)])


def _seed902_table(beta):
    """A flat map on which some areas' (a, b) searches spend all 4000 evaluations."""
    table, _ = generate_table(J=40, n_range=(3, 10), beta=beta, eta2=1e-8, rho=0.0, a=6.0, b=4.0,
                              rng=np.random.default_rng(902), extent=6.0)
    return table


def _loo_problem(table, j):
    rest = [i for i in range(table.J) if i != j and table.n[i] >= 2]
    return table.s2[rest], table.n[rest]


_ORACLE_TABLES = {
    **{f"criterion11-seed{s}": (lambda s=s: _criterion_11_table(50, s)) for s in range(4)},
    "singles": _singles_table,
    "seed902": lambda: _seed902_table([1.0, 1.0]),
    "seed902-beta0.5": lambda: _seed902_table([1.0, 0.5]),
}


# Objectives for the kernel alone, written so that a row of the batched call
# and scipy's scalar call do the same arithmetic: a curved valley, four wells
# (a shrunk vertex can beat the best one) and a plateau in x0 beyond
# |x0| = 1 (tied vertex values).
_KERNEL_OBJECTIVES = {
    "rosenbrock": lambda x: 100.0 * (x[..., 1] - x[..., 0] * x[..., 0]) ** 2 + (1.0 - x[..., 0]) ** 2,
    "wells": lambda x: ((x[..., 0] * x[..., 0] - 1.0) ** 2 + (x[..., 1] * x[..., 1] - 1.0) ** 2
                        + 0.3 * x[..., 0]),
    "plateau": lambda x: (np.minimum(np.maximum(x[..., 0], -1.0), 1.0) - 2.0) ** 2 + x[..., 1] * x[..., 1],
}

class TestLockstepNelderMead:
    """The batched (a, b) stage against scipy's Nelder-Mead, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_OBJECTIVES))
    def test_every_stopping_point_matches_scipy(self, monkeypatch, name):
        """Small budgets and iteration limits stop the search at each step of an iteration.

        Every status is scipy's, and so are the point and evaluation count of
        every row that converges or reaches the iteration limit. A row whose
        budget runs out finishes its iteration, where scipy stops at once: it
        overruns by at most N + 1 evaluations and ends no worse than scipy.
        """
        from scipy.optimize import minimize

        fun = _KERNEL_OBJECTIVES[name]
        x0 = np.array([[-1.2, 1.0], [0.0, 0.0], [3.0, -2.0], [0.5, 0.25], [0.1, -0.3], [-2.0, 0.7]])
        N = x0.shape[1]
        limits = [(maxfev, 2000) for maxfev in range(3, 150)] + [(4000, it) for it in range(1, 40)]
        for maxfev, maxiter in limits:
            monkeypatch.setattr(small_area, "_NM_MAXFEV", maxfev)
            monkeypatch.setattr(small_area, "_NM_MAXITER", maxiter)
            best, status, nfev = small_area._nelder_mead(lambda x, rows: fun(x), x0)
            for r, start in enumerate(x0):
                res = minimize(fun, start, method="Nelder-Mead", options={
                    "xatol": 1e-9, "fatol": 1e-11, "maxiter": maxiter, "maxfev": maxfev})
                case = (maxfev, maxiter, r)
                assert int(status[r]) == res.status, case
                if res.status == 1:
                    assert maxfev <= nfev[r] <= maxfev + N + 1, case
                    assert fun(best[r]) <= res.fun, case
                else:
                    assert [v.hex() for v in best[r]] == [v.hex() for v in res.x], case
                    assert int(nfev[r]) == res.nfev, case

    @pytest.mark.parametrize("name", sorted(_ORACLE_TABLES))
    def test_every_loo_problem_matches_scipy(self, monkeypatch, name):
        table = _ORACLE_TABLES[name]()
        runs = []
        kernel = small_area._nelder_mead

        def recorded(f, x0):
            runs.append(kernel(f, x0))
            return runs[-1]

        monkeypatch.setattr(small_area, "_nelder_mead", recorded)
        fits = small_area._loo_ab_fits(table)
        ((_, status, nfev),) = runs
        areas = np.flatnonzero(table.n >= 2)
        assert sorted(fits) == areas.tolist() and status.size == areas.size
        for r, j in enumerate(areas.tolist()):
            (a, b), success, scipy_nfev, message = _scipy_ab(*_loo_problem(table, j))
            fit = fits[j]
            if success:
                assert [v.hex() for v in fit] == [a.hex(), b.hex()], table.ids[j]
            else:
                assert isinstance(fit, EstimationError) and str(fit).endswith(message)
                assert [v.hex() for v in fit.best_point] == [a.hex(), b.hex()], table.ids[j]
            assert (status[r] == 0) == success, table.ids[j]
            if status[r] == 1:
                # A search out of budget finishes its iteration (N = 2).
                assert 4000 <= nfev[r] <= 4000 + 3, table.ids[j]
            else:
                assert int(nfev[r]) == scipy_nfev, table.ids[j]

    @pytest.mark.parametrize("beta, stalled", [
        ([1.0, 1.0], ["area007"]),
        ([1.0, 0.5], ["area007", "area022"]),
    ])
    def test_stalled_fits_fall_back_as_scipy_did(self, beta, stalled, caplog):
        """Stalled searches stop at exactly 4000 evaluations, with scipy's reason and best point."""
        table = _seed902_table(beta)
        with caplog.at_level(logging.WARNING, logger="fabcp.small_area"):
            records = area_pipeline(table, "exact", ("fab",))
        assert [r.area_id for r in records if r.fallback] == stalled
        reason = ("variance hyperparameter fit did not converge: "
                  "Maximum number of function evaluations has been exceeded.")
        assert [m.getMessage() for m in caplog.records] == [
            f"area {area}: falling back to DTA ({reason})" for area in stalled
        ]
        fits = small_area._loo_ab_fits(table)
        for area in stalled:
            j = table.ids.index(area)
            best, success, nfev, _ = _scipy_ab(*_loo_problem(table, j))
            assert (success, nfev) == (False, 4000)
            assert str(fits[j]) == reason
            assert [v.hex() for v in fits[j].best_point] == [v.hex() for v in best]

    def test_stalled_search_raises_with_its_best_point(self):
        """``estimate_ab`` raises the row's error; this one stalls on the log a = 7 edge."""
        table = _seed902_table([1.0, 1.0])
        with pytest.raises(EstimationError, match="Maximum number of function evaluations") as exc:
            estimate_ab(*_loo_problem(table, table.ids.index("area007")))
        a_hat, b_hat = exc.value.best_point
        assert a_hat == math.exp(7.0)
        assert b_hat == pytest.approx(940.0260787170208, rel=1e-12)

    def test_rows_equal_estimate_ab(self):
        """Row j of the batched fit is ``estimate_ab`` over the other areas."""
        table = _singles_table()
        fits = small_area._loo_ab_fits(table)
        assert sorted(fits) == np.flatnonzero(table.n >= 2).tolist()
        assert len(fits) < table.J
        for j, fit in fits.items():
            s2, n = _loo_problem(table, j)
            assert [v.hex() for v in fit] == [v.hex() for v in estimate_ab(s2, n)]

    def test_failures_keep_estimate_ab_errors(self):
        """Too few informative areas, or a non-finite sum of squares, fail as estimate_ab does."""
        table = _criterion_11_table(6, 7)
        few = AreaTable(ids=table.ids, X=table.X, centroids=table.centroids,
                        samples=[s if j < 2 else s[:1] for j, s in enumerate(table.samples)])
        for j, err in small_area._loo_ab_fits(few).items():
            with pytest.raises(ValueError, match="at least two areas") as exc:
                estimate_ab(*_loo_problem(few, j))
            assert isinstance(err, ValueError) and str(err) == str(exc.value)

        # An overflowing sum of squares in area 2 (the table is frozen).
        object.__setattr__(table, "s2", np.where(np.arange(6) == 2, np.inf, table.s2))
        fits = small_area._loo_ab_fits(table)
        assert isinstance(fits[2], tuple)
        for j in (0, 1, 3, 4, 5):
            assert str(fits[j]) == "sums of squares must be finite and nonnegative"

    def test_one_row_likelihood_matches_rows(self):
        """``ab_marginal_loglik`` is one row of the batched likelihood."""
        table = _criterion_11_table(12, 9)
        s2, n = table.s2, table.n
        a = np.array([0.5, 3.0, 40.0])
        b = np.array([0.1, 2.0, 9.0])
        rows = small_area._ab_loglik(a, b, np.tile(s2, (3, 1)), np.tile((n - 1.0) / 2.0, (3, 1)))
        assert [v.hex() for v in rows] == [
            ab_marginal_loglik(x, y, s2, n).hex() for x, y in zip(a.tolist(), b.tolist())
        ]


class TestEBVariances:
    def test_zero_sum_of_squares(self):
        sigma2_k, _ = eb_variances(3.0, 2.0, [0.0], [2])
        assert sigma2_k[0] == pytest.approx(2.0 / 6.0, rel=1e-15)

    def test_held_out_prior_mode(self):
        _, held = eb_variances(3.0, 2.0, [1.0], [5])
        assert held == pytest.approx(2.0 / 5.0, rel=1e-15)

    def test_large_b_dominated_by_prior(self):
        sigma2_k, _ = eb_variances(3.0, 1e8, [4.0], [6])
        assert sigma2_k[0] == pytest.approx(1e8 / 10.0, rel=1e-6)

    def test_tracks_true_variances(self):
        rng = np.random.default_rng(60)
        s2, sigma2 = _simulate_s2(rng, J=500, n=20, a=4.0, b=2.0)
        n = np.full(s2.size, 20)
        a_hat, b_hat = estimate_ab(s2, n)
        sigma2_hat, _ = eb_variances(a_hat, b_hat, s2, n)
        assert np.corrcoef(sigma2_hat, sigma2)[0, 1] > 0.8

    def test_single_observation_area_has_prior_only_estimate(self):
        """An area with n = 1 has no sum of squares: its NaN entry is not read."""
        a, b = 3.0, 2.0
        sigma2_k, _ = eb_variances(a, b, [math.nan, 4.0], [1, 6])
        assert [v.hex() for v in sigma2_k] == [(b / (a + 2.0)).hex(), ((b + 4.0) / (a + 7.0)).hex()]

    def test_lists_and_arrays_give_the_same_bits(self):
        """The variance stage reads any 1-D array-like ``(s2, n)``; lists and arrays agree bit for bit."""
        table = _criterion_11_table(12, 9)
        s2, n = table.s2.copy(), table.n.copy()
        as_lists = s2.tolist(), n.tolist()
        assert [v.hex() for v in estimate_ab(*as_lists)] == [v.hex() for v in estimate_ab(s2, n)]
        assert ab_marginal_loglik(3.0, 2.0, *as_lists).hex() == ab_marginal_loglik(3.0, 2.0, s2, n).hex()
        s2[0], n[0] = math.nan, 1  # an n = 1 area, as AreaTable.s2 holds it
        from_lists, held_lists = eb_variances(3.0, 2.0, s2.tolist(), n.tolist())
        from_arrays, held_arrays = eb_variances(3.0, 2.0, s2, n)
        assert [v.hex() for v in from_lists] == [v.hex() for v in from_arrays]
        assert held_lists.hex() == held_arrays.hex()

    @pytest.mark.parametrize("call", [
        lambda s2, n: estimate_ab(s2, n),
        lambda s2, n: ab_marginal_loglik(3.0, 2.0, s2, n),
        lambda s2, n: eb_variances(3.0, 2.0, s2, n),
    ], ids=["estimate_ab", "ab_marginal_loglik", "eb_variances"])
    def test_s2_and_n_of_different_lengths_rejected(self, call):
        """``eb_variances`` would otherwise broadcast one sum of squares over three areas."""
        with pytest.raises(ValueError, match="s2 and n must have the same shape"):
            call([1.0], [5, 6, 7])

    @pytest.mark.parametrize("bad", [-5.0, math.inf, math.nan])
    def test_bad_sum_of_squares_rejected(self, bad):
        """The rule ``estimate_ab`` applies: this gave a negative, infinite or NaN variance."""
        with pytest.raises(ValueError, match="sums of squares must be finite and nonnegative"):
            eb_variances(3.0, 2.0, [bad, 4.0], [4, 4])


class TestFitMeanModel:
    def test_every_rho_failing_is_a_fallback_reason(self, monkeypatch, caplog, one_cpu):
        """No candidate rho gives a profile: the fit raises, and the pipeline names why it fell back."""
        def no_profile(rho, parts):
            raise ValueError(f"(I - rho W) is numerically singular at rho={rho}")

        monkeypatch.setattr(small_area, "_RhoProfile", no_profile)
        reason = "no candidate rho admits a positive-definite covariance"
        W = sq_exp_weights([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(EstimationError, match=f"^{reason}$"):
            fit_mean_model(np.arange(4.0), np.ones(4), np.ones((4, 1)), W)
        table, _ = TestAreaPipeline._table()
        with caplog.at_level(logging.WARNING, logger="fabcp.small_area"):
            records = area_pipeline(table, "exact", ("fab",))
        assert [r.fallback for r in records] == [True] * table.J
        assert [m.getMessage() for m in caplog.records] == [
            f"area {area}: falling back to DTA ({reason})" for area in table.ids]

    def test_no_heterogeneity_limit(self):
        rng = np.random.default_rng(42)
        table, _ = generate_table(J=100, n_range=(10, 20), beta=[1.0, 0.5],
                                  eta2=1e-12, rho=0.0, a=6.0, b=4.0, rng=rng, extent=10.0)
        a_hat, b_hat = estimate_ab(table.s2, table.n)
        sigma2_hat, _ = eb_variances(a_hat, b_hat, table.s2, table.n)
        fit = fit_mean_model(table.ybar, sigma2_hat / table.n, table.X,
                             sq_exp_weights(table.centroids))
        assert fit.eta2 < 0.05
        assert np.max(np.abs(fit.theta - table.X @ fit.beta)) < 0.3

    def test_rho_recovery_at_zero(self):
        rng = np.random.default_rng(503)
        table, _ = generate_table(J=200, n_range=(10, 30), beta=[1.0, 0.5],
                                  eta2=1.0, rho=0.0, a=6.0, b=4.0, rng=rng, extent=12.0)
        a_hat, b_hat = estimate_ab(table.s2, table.n)
        sigma2_hat, _ = eb_variances(a_hat, b_hat, table.s2, table.n)
        fit = fit_mean_model(table.ybar, sigma2_hat / table.n, table.X,
                             sq_exp_weights(table.centroids))
        assert abs(fit.rho) <= 0.2

    def test_likelihood_at_fit_beats_truth(self):
        rng = np.random.default_rng(70)
        beta_true = np.array([1.0, 0.5])
        table, truth = generate_table(J=120, n_range=(8, 20), beta=beta_true,
                                      eta2=0.8, rho=0.4, a=6.0, b=4.0, rng=rng, extent=10.0)
        d = np.array(truth["sigma2"]) / table.n
        W = sq_exp_weights(table.centroids)
        fit = fit_mean_model(table.ybar, d, table.X, W)
        ll_fit = mean_model_loglik(table.ybar, d, table.X, W, fit.beta, fit.eta2, fit.rho)
        ll_true = mean_model_loglik(table.ybar, d, table.X, W, beta_true, 0.8, 0.4)
        assert ll_fit >= ll_true - 1e-6
        assert fit.loglik == pytest.approx(ll_fit, abs=1e-8)

    @staticmethod
    def _map(seed, J=120, extent=8.0):
        rng = np.random.default_rng(seed)
        table, truth = generate_table(J=J, n_range=(3, 12), beta=[1.0, 0.5],
                                      eta2=0.6, rho=0.6, a=6.0, b=4.0, rng=rng, extent=extent)
        d = np.array(truth["sigma2"]) / table.n
        return table, d, sq_exp_weights(table.centroids)

    def test_profile_matches_covariance_form_loglik(self):
        """The precision-form profile against the covariance-form oracle.

        The second map has J = p + 2 = 4 areas, the smallest a fit admits,
        where the Householder reflectors leave a 3 x 3 block.
        """
        eta2s = np.array([math.exp(-14.0), 0.3, 50.0])
        for table, d, W in (self._map(75), self._map(77, J=4, extent=1.5)):
            parts = _SarParts(W, d, table.ybar, table.X)
            for rho in (-0.99, -0.5, 0.0, 0.7, 0.99):
                lls, betas = _RhoProfile(rho, parts).loglik_batch(eta2s)
                for eta2, ll, beta in zip(eta2s, lls, betas):
                    want = mean_model_loglik(table.ybar, d, table.X, W, beta, float(eta2), rho)
                    assert ll == pytest.approx(want, rel=1e-10), (table.J, rho, eta2)

    def test_blup_matches_covariance_form(self):
        for table, d, W in (self._map(76), self._map(77, J=4, extent=1.5)):
            fit = fit_mean_model(table.ybar, d, table.X, W)
            G = sar_covariance(fit.rho, W)
            M = fit.eta2 * G + np.diag(d)
            r = table.ybar - table.X @ fit.beta
            want = table.X @ fit.beta + fit.eta2 * (G @ np.linalg.solve(M, r))
            np.testing.assert_allclose(fit.theta, want, rtol=1e-10, atol=1e-12)
            assert fit.loglik == pytest.approx(
                mean_model_loglik(table.ybar, d, table.X, W, fit.beta, fit.eta2, fit.rho),
                rel=1e-10,
            )

    @pytest.mark.parametrize("rho", [-0.99, 0.0, 0.99])
    def test_tridiagonal_profile_eigenvalues_and_rotation(self, rho):
        """The profile's spectrum and rotated data against direct computations.

        Eigenvalues are compared on the scale of the spectrum: both solvers
        are accurate to a few ulps of ``max(mu)``, which at rho = 0.99 is
        about 1e-11 relative to the smallest eigenvalue.
        """
        table, d, W = self._map(75)
        parts = _SarParts(W, d, table.ybar, table.X)
        profile = _RhoProfile(rho, parts)
        want = np.linalg.eigvalsh(parts.S(rho))
        np.testing.assert_allclose(profile.mu, want, rtol=0.0, atol=1e-12 * want[-1])
        # U is orthogonal, so the rotation keeps every inner product of the
        # whitened data: Xt^T Xt = X^T D^-1 X and |yt|^2 = sum ybar^2 / d.
        np.testing.assert_allclose(
            profile.Xt.T @ profile.Xt, table.X.T @ (table.X / d[:, None]), rtol=1e-12
        )
        assert profile.yt @ profile.yt == pytest.approx(np.sum(table.ybar**2 / d), rel=1e-12)

    def test_rank_deficient_covariates_rejected(self):
        rng = np.random.default_rng(71)
        J = 20
        X = np.column_stack([np.ones(J), 2.0 * np.ones(J)])
        with pytest.raises(ValueError, match="rank deficient"):
            fit_mean_model(rng.normal(size=J), np.full(J, 0.1), X, _random_weights(rng, J))


def _loglik_batch_oracle(profile, eta2s):
    """``_RhoProfile.loglik_batch`` as plain expressions, in the operation order it must keep."""
    p = profile.Xt.shape[1]
    t = eta2s[:, None] * profile.lam[None, :] + 1.0
    w = 1.0 / t
    XwX = (w @ profile.XtXt).reshape(-1, p, p)
    beta = np.linalg.solve(XwX, (w @ profile.Xtyt)[:, :, None])[:, :, 0]
    z = profile.yt[None, :] - beta @ profile.Xt.T
    quad = np.sum(w * z * z, axis=1)
    logdet = profile.logdet_d + np.sum(np.log(t), axis=1)
    return -0.5 * (profile.J * math.log(2.0 * math.pi) + logdet + quad), beta


def _criterion_11_loo_parts(seed, j):
    """Area j's leave-one-out mean-model inputs on a criterion-11 table, as a fit sees them."""
    table = _criterion_11_table(50, seed)
    (a_hat, b_hat), = small_area._loo_ab_fits(table, [j]).values()
    rest = np.arange(table.J) != j
    sigma2, _ = eb_variances(a_hat, b_hat, table.s2[rest], table.n[rest])
    return _SarParts(sq_exp_weights(table.centroids[rest]), sigma2 / table.n[rest],
                     table.ybar[rest], table.X[rest])


class TestScanBits:
    """The eta2 scan keeps the bits of its plain expressions (see ``_RhoProfile``)."""

    @pytest.mark.usefixtures("one_cpu")  # brackets zoomed in a forked worker would not be seen
    def test_zoom_grid_is_linspace_on_every_criterion_11_bracket(self, monkeypatch):
        brackets = []

        def recorded(lo, hi):
            brackets.append((lo, hi))
            return zoom_grid(lo, hi)

        zoom_grid = small_area._zoom_grid
        monkeypatch.setattr(small_area, "_zoom_grid", recorded)
        for seed in (7000, 7001):
            area_pipeline(_criterion_11_table(50, seed), "exact", methods=("fab",))
        # At each of 15 rho, two of its three rounds zoom; two more zoom at rho_hat.
        assert len(brackets) == 2 * 50 * (15 * 2 + 2)
        for lo, hi in brackets:
            assert np.array_equal(zoom_grid(lo, hi), np.linspace(lo, hi, 41)), (lo.hex(), hi.hex())

    def test_zoom_grid_is_linspace_on_random_brackets(self):
        rng = np.random.default_rng(89)
        lo = rng.uniform(-16.0, 8.0, size=2000)
        width = 10.0 ** rng.uniform(-9.0, 1.5, size=lo.size)
        for a, b in zip(lo, lo + width):
            assert np.array_equal(small_area._zoom_grid(a, b), np.linspace(a, b, 41)), (a.hex(), b.hex())

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.95])
    def test_loglik_batch_matches_plain_expressions(self, rho):
        profile = _RhoProfile(rho, _criterion_11_loo_parts(7000, 3))
        grids = [small_area._FIRST_LOG_ETA2S, np.linspace(-3.0, -2.0, 41), np.linspace(1.0, 1.05, 41)]
        for eta2s in map(np.exp, grids):
            got, want = profile.loglik_batch(eta2s), _loglik_batch_oracle(profile, eta2s)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("rho", [-0.9, 0.5])
    def test_resumed_zoom_ends_where_one_call_would(self, rho):
        parts = _criterion_11_loo_parts(7001, 10)
        resumed = _RhoProfile(rho, parts)
        resumed.max_eta2(3)
        eta2, ll, beta = resumed.max_eta2(2)
        fresh = _RhoProfile(rho, parts)
        eta2_5, ll_5, beta_5 = fresh.max_eta2(5)
        assert (eta2.hex(), ll.hex()) == (eta2_5.hex(), ll_5.hex())
        assert np.array_equal(beta, beta_5)
        assert resumed._log_eta2_bracket == fresh._log_eta2_bracket


class TestConditionalParams:
    def test_rho_zero_reduces_to_marginal(self):
        rng = np.random.default_rng(72)
        J, p = 8, 2
        W = _random_weights(rng, J)
        X = np.column_stack([np.ones(J), rng.normal(size=J)])
        beta = np.array([0.5, -1.0])
        theta_rest = rng.normal(size=J - 1)
        out = conditional_params(3, beta, 0.7, 0.0, theta_rest, W, X, 0.9)
        assert out.mu_j == pytest.approx(float(X[3] @ beta), rel=1e-12)
        assert out.tau2_j == pytest.approx(0.7 / 0.9, rel=1e-12)

    def test_matches_precision_matrix_oracle(self):
        """Conditioning via the full precision matrix, an independent route."""
        rng = np.random.default_rng(73)
        for _ in range(20):
            J = int(rng.integers(3, 13))
            W = _random_weights(rng, J)
            X = np.column_stack([np.ones(J), rng.normal(size=J)])
            beta = rng.normal(size=2)
            eta2 = float(rng.uniform(0.2, 3.0))
            rho = float(rng.uniform(-0.9, 0.9))
            j = int(rng.integers(0, J))
            theta_rest = rng.normal(size=J - 1)
            sigma2_j = float(rng.uniform(0.3, 2.0))

            got = conditional_params(j, beta, eta2, rho, theta_rest, W, X, sigma2_j)

            V = eta2 * sar_covariance(rho, W)
            P = np.linalg.inv(V)
            rest = [i for i in range(J) if i != j]
            var_j = 1.0 / P[j, j]
            mu_j = float(X[j] @ beta) - var_j * float(
                P[j, rest] @ (theta_rest - X[rest] @ beta)
            )
            assert got.mu_j == pytest.approx(mu_j, rel=1e-8, abs=1e-10)
            assert got.tau2_j == pytest.approx(var_j / sigma2_j, rel=1e-8)

    def test_two_area_hand_schur(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        eta2, rho = 1.0, 0.5
        # V = eta2 * [[20/9, 16/9], [16/9, 20/9]]
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        beta = np.array([2.0, 1.0])
        theta_rest = np.array([3.5])
        out = conditional_params(0, beta, eta2, rho, theta_rest, W, X, 1.0)
        v11, v12 = 20.0 / 9.0, 16.0 / 9.0
        want_mu = 2.0 + (v12 / v11) * (3.5 - 3.0)
        want_var = v11 - v12**2 / v11
        assert out.mu_j == pytest.approx(want_mu, rel=1e-12)
        assert out.tau2_j == pytest.approx(want_var, rel=1e-12)

    def test_spatial_information_shrinks_conditional_variance(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            J = int(rng.integers(4, 10))
            W = _random_weights(rng, J)
            X = np.ones((J, 1))
            beta = np.zeros(1)
            theta_rest = rng.normal(size=J - 1)
            j = int(rng.integers(0, J))
            rho = float(rng.choice([-0.8, -0.4, 0.3, 0.7, 0.95]))
            base = conditional_params(j, beta, 1.3, 0.0, theta_rest, W, X, 1.0)
            spatial = conditional_params(j, beta, 1.3, rho, theta_rest, W, X, 1.0)
            assert spatial.tau2_j < base.tau2_j


class TestAreaPipeline:
    @staticmethod
    def _table(seed=80, J=12):
        rng = np.random.default_rng(seed)
        table, truth = generate_table(J=J, n_range=(3, 9), beta=[1.0, 1.0],
                                      eta2=0.5, rho=0.7, a=6.0, b=4.0, rng=rng, extent=8.0)
        return table, truth

    def test_exact_alpha_rule(self):
        assert exact_alpha(3) == pytest.approx(0.25)
        assert exact_alpha(5) == pytest.approx(2.0 / 6.0)
        assert exact_alpha(8) == pytest.approx(3.0 / 9.0)
        assert exact_alpha(10) == pytest.approx(3.0 / 11.0)

    def test_smoke_both_methods(self):
        table, _ = self._table()
        records = area_pipeline(table, "exact", methods=("fab", "dta"))
        assert len(records) == 2 * sum(table.n >= 2)
        for rec in records:
            assert rec.interval.lower <= rec.interval.upper
            assert rec.alpha_j == pytest.approx(exact_alpha(rec.n))
            assert not rec.fallback
        fab = [r for r in records if r.method == "fab"]
        assert all(math.isfinite(r.mu_j) and r.tau2_j > 0 for r in fab)

    def test_fixed_alpha_mode(self):
        table, _ = self._table()
        records = area_pipeline(table, 0.25, methods=("dta",))
        assert all(r.alpha_j == 0.25 for r in records)

    def test_leave_one_out_independence(self):
        """Perturbing an area's own samples must not move its conformal prior."""
        table, _ = self._table(seed=81)
        j = 4
        base = loo_conformal_params(table, j)
        mutated = AreaTable(
            ids=table.ids,
            samples=[s if i != j else s + 100.0 for i, s in enumerate(table.samples)],
            X=table.X,
            centroids=table.centroids,
        )
        other = loo_conformal_params(mutated, j)
        assert (other.mu_j, other.tau2_j, other.sigma2_hat_j) == (
            base.mu_j, base.tau2_j, base.sigma2_hat_j,
        )

    def test_pipeline_leave_one_out_independence(self):
        """Shifting an area's values and changing its size must not move its prior."""
        table, _ = self._table(seed=81, J=10)
        base = {r.area_id: r for r in area_pipeline(table, "exact") if not r.fallback}
        assert len(base) == table.J
        for j, y in enumerate(table.samples):
            own = (np.append(y, y[0]) if y.size == 2 else y[:-1]) + 100.0
            mutated = AreaTable(
                ids=table.ids,
                samples=[own if i == j else s for i, s in enumerate(table.samples)],
                X=table.X,
                centroids=table.centroids,
            )
            rec = next(r for r in area_pipeline(mutated, "exact") if r.area_id == table.ids[j])
            assert rec.n != y.size and not rec.fallback
            assert (rec.mu_j, rec.tau2_j) == (base[rec.area_id].mu_j, base[rec.area_id].tau2_j)

    def test_matched_neighbors_make_fab_narrower(self):
        """An area whose mean its neighbors share should usually win."""
        rng = np.random.default_rng(2001)
        J, n_j, theta0 = 10, 4, 2.0
        centroids = rng.uniform(0, 3, size=(J, 2))
        X = np.column_stack([np.ones(J), rng.normal(size=J)])
        wins, mu_err = 0, []
        reps = 100
        for _ in range(reps):
            sigma2 = (4.0 / 2.0) / rng.gamma(3.0, 1.0, size=J)
            samples = [theta0 + math.sqrt(sigma2[j]) * rng.normal(size=n_j) for j in range(J)]
            table = AreaTable(ids=[f"a{j}" for j in range(J)], samples=samples,
                              X=X, centroids=centroids)
            params = loo_conformal_params(table, 0)
            mu_err.append(abs(params.mu_j - theta0))
            fab = fab_interval_from_precision(samples[0], params.mu_j, 1.0 / params.tau2_j, 0.25)
            wins += fab.width < dta_interval(samples[0], 0.25).width
        assert wins >= 65
        assert float(np.median(mu_err)) < 0.3

    def test_misspecified_population_keeps_coverage(self):
        """Shifted-exponential data: coverage still meets the nominal level."""
        table, truth = self._table(seed=31, J=10)
        theta = np.array(truth["theta"])
        reps = 20000
        for j in range(table.J):
            params = loo_conformal_params(table, j)
            n_j = int(table.n[j])
            alpha_j = exact_alpha(n_j)
            k = int(math.floor(alpha_j * (n_j + 1)))
            rng_j = np.random.default_rng(77_000 + j)
            draws = theta[j] + rng_j.exponential(size=(reps, n_j + 1)) - 1.0
            samples = draws[:, :n_j]
            bounds = reflect_bounds(samples, samples.sum(axis=1, keepdims=True),
                                    params.mu_j, 1.0 / params.tau2_j, k)
            hit = (bounds[:, 0] <= draws[:, n_j]) & (draws[:, n_j] <= bounds[:, 1])
            level = 1.0 - alpha_j
            assert hit.mean() >= level - 3.0 * math.sqrt(level * alpha_j / reps)

    @pytest.mark.parametrize("field, value", [
        ("X", math.nan), ("X", math.inf), ("centroids", math.nan), ("centroids", -math.inf),
        ("X", "1-D"), ("centroids", "1-D"),
    ])
    def test_table_rejects_non_finite_covariates_and_centroids(self, field, value):
        """Otherwise a NaN centroid sends every area to DTA ("W must have a zero diagonal"), as does a 1-D X."""
        table, _ = self._table()
        fields = {"ids": table.ids, "samples": table.samples, "X": table.X.copy(),
                  "centroids": table.centroids.copy()}
        if value == "1-D":
            fields[field] = fields[field][:, 1]
            match = {"X": r"X must be a \(J, p\) matrix", "centroids": r"centroids must be \(J, 2\)"}[field]
        else:
            fields[field][3, 1] = value
            match = "covariates and centroids must be finite"
        with pytest.raises(ValueError, match=match):
            AreaTable(**fields)

    def test_table_rejects_duplicate_ids(self):
        """Otherwise the pipeline's records could not be told apart by their area ids."""
        table, _ = self._table()
        with pytest.raises(ValueError, match="area ids must be distinct"):
            AreaTable(ids=["a"] * table.J, samples=table.samples, X=table.X, centroids=table.centroids)

    @pytest.mark.parametrize("j", [-1, "J"])
    def test_loo_index_out_of_range_raises_before_any_fit(self, monkeypatch, j):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted for an area index outside the table")

        monkeypatch.setattr(small_area, "_loo_ab_fits", no_fit)
        monkeypatch.setattr(small_area, "fit_mean_model", no_fit)
        table, _ = self._table()
        with pytest.raises(ValueError, match="out of range"):
            loo_conformal_params(table, table.J if j == "J" else j)

    def test_one_path_from_table_to_prior(self):
        """``loo_conformal_params`` is the pipeline's prior, and estimate_ab's for n_j = 1 areas."""
        table = _singles_table()
        records = {r.area_id: r for r in area_pipeline(table, "exact", ("fab",))}
        assert not any(r.fallback for r in records.values())
        for j, area in enumerate(table.ids):
            params = loo_conformal_params(table, j)
            if table.n[j] >= 2:
                want = records[area].mu_j, records[area].tau2_j
            else:
                assert area not in records
                s2, n = _loo_problem(table, j)
                prior = small_area._prior_given_ab(table, j, *estimate_ab(s2, n))
                want = prior.mu_j, prior.tau2_j
            assert (params.mu_j.hex(), params.tau2_j.hex()) == (want[0].hex(), want[1].hex()), area

    def test_needs_three_areas(self):
        rng = np.random.default_rng(83)
        table, _ = generate_table(J=2, n_range=(3, 5), beta=[0.0, 0.0],
                                  eta2=0.5, rho=0.0, a=6.0, b=4.0, rng=rng)
        with pytest.raises(ValueError):
            area_pipeline(table, 0.25)

    @pytest.mark.parametrize("alpha_mode, methods, match", [
        pytest.param(0.25, (), "methods", id="methods0"),
        pytest.param(0.25, ("bogus",), "methods", id="methods1"),
        pytest.param(0.25, ("fab", "bogus"), "methods", id="methods2"),
        pytest.param(0.25, ("dta", "FAB"), "methods", id="methods3"),
        pytest.param(1.5, ("fab",), "alpha_mode", id="alpha1.5"),
        pytest.param(0.0, ("fab",), "alpha_mode", id="alpha0"),
        pytest.param(math.nan, ("fab", "dta"), "alpha_mode", id="alpha-nan"),
        pytest.param(-0.25, ("dta",), "alpha_mode", id="alpha-negative"),
    ])
    def test_arguments_checked_before_any_fit(self, monkeypatch, alpha_mode, methods, match):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted an area before checking the arguments")

        monkeypatch.setattr(small_area, "loo_conformal_params", no_fit)
        monkeypatch.setattr(small_area, "_loo_ab_fits", no_fit)
        table, _ = self._table()
        with pytest.raises(ValueError, match=match):
            area_pipeline(table, alpha_mode, methods=methods)
        # With no area of n_j >= 2 there is nothing to fit; bad arguments still raise.
        single = AreaTable(ids=table.ids, samples=[s[:1] for s in table.samples],
                           X=table.X, centroids=table.centroids)
        with pytest.raises(ValueError, match=match):
            area_pipeline(single, alpha_mode, methods=methods)

    def _isolated_table(self):
        """A table whose area 3 lies so far off that the full weights reject the map."""
        table, _ = self._table()
        far = table.centroids.copy()
        far[3] += 1e4
        return AreaTable(ids=table.ids, samples=table.samples, X=table.X, centroids=far)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_rejected_map_falls_back_without_any_fit(self, monkeypatch, pin_cpus, cpus):
        """One far centroid: the full weights reject the map before any fit, in every process."""
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted an area on a map the weights reject")

        monkeypatch.setattr(small_area, "estimate_ab", no_fit)
        monkeypatch.setattr(small_area, "_loo_ab_fits", no_fit)
        pin_cpus(cpus)
        table = self._isolated_table()
        records = area_pipeline(table, "exact", methods=("fab", "dta"))
        assert multiprocessing.active_children() == []
        fab = [r for r in records if r.method == "fab"]
        dta = {r.area_id: r.interval for r in records if r.method == "dta"}
        assert len(fab) == len(dta) == table.J
        for r in fab:
            assert r.fallback and math.isnan(r.mu_j) and math.isnan(r.tau2_j)
            assert r.interval == dta[r.area_id]

    def test_loo_on_rejected_map_raises_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted an area on a map the weights reject")

        monkeypatch.setattr(small_area, "_loo_ab_fits", no_fit)
        monkeypatch.setattr(small_area, "fit_mean_model", no_fit)
        with pytest.raises(ValueError, match="isolated area"):
            loo_conformal_params(self._isolated_table(), 0)

    def test_failed_fit_falls_back_to_dta(self):
        # a rank-deficient covariate matrix breaks the mean-model fit; the
        # pipeline must still return coverage-valid intervals, flagged
        table, _ = self._table(seed=82)
        broken = AreaTable(
            ids=table.ids,
            samples=table.samples,
            X=np.column_stack([np.ones(table.J), 2.0 * np.ones(table.J)]),
            centroids=table.centroids,
        )
        records = area_pipeline(broken, 0.25, methods=("fab", "dta"))
        fab = [r for r in records if r.method == "fab"]
        dta = {r.area_id: r for r in records if r.method == "dta"}
        assert fab and all(r.fallback for r in fab)
        for r in fab:
            twin = dta[r.area_id].interval
            assert (r.interval.lower, r.interval.upper) == (twin.lower, twin.upper)
            assert math.isnan(r.mu_j)

    @pytest.mark.usefixtures("one_cpu")  # calls in a forked worker would not be counted
    def test_pipeline_call_counts(self, monkeypatch):
        """Each fit makes one tridiagonal reduction per rho evaluation and no eigh."""
        table, _ = self._table(seed=86, J=8)
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(small_area, "dsytrd", counted("dsytrd", small_area.dsytrd))
        monkeypatch.setattr(small_area, "fit_mean_model", counted("fit", small_area.fit_mean_model))
        records = area_pipeline(table, "exact", methods=("fab", "dta"))
        assert not any(r.fallback for r in records)
        assert counts["fit"] == int(np.sum(table.n >= 2)) > 0
        assert counts["eigh"] == 0
        assert counts["dsytrd"] == 15 * counts["fit"]


def _record_bits(records) -> list[tuple]:
    return [(r.area_id, r.n, r.alpha_j.hex(), r.method, r.interval.lower.hex(), r.interval.upper.hex(),
             r.interval.achieved_level.hex(), r.interval.k, r.mu_j.hex(), r.tau2_j.hex(), r.fallback)
            for r in records]


def _pipeline_bits(table) -> list[tuple]:
    return _record_bits(area_pipeline(table, "exact", ("fab", "dta")))


def _singles_rank_deficient_table():
    """J = 12 with three n_j = 1 areas and a rank-deficient X: every mean-model fit fails."""
    t = _criterion_11_table(12, 4)
    return AreaTable(ids=t.ids, centroids=t.centroids,
                     samples=[s[:1] if j in (2, 5, 9) else s for j, s in enumerate(t.samples)],
                     X=np.column_stack([np.ones(t.J), 2.0 * np.ones(t.J)]))


def _degenerate_map(seed: int, case: str) -> AreaTable:
    t, _ = TestAreaPipeline._table(seed=seed, J=10)
    samples, X, centroids = list(t.samples), t.X, t.centroids.copy()
    if case == "zero-variance-one-area":
        samples[2] = np.full(samples[2].size, samples[2][0])
    elif case == "zero-variance-every-area":
        samples = [np.full(y.size, y[0]) for y in samples]
    elif case == "coincident-pairs":
        centroids[1], centroids[5] = centroids[0], centroids[4]
    elif case == "coincident-all":
        centroids[:] = centroids[0]
    elif case == "singles":
        samples[1], samples[4] = samples[1][:1], samples[4][:1]
    elif case == "rank-deficient-without-area3":
        # The second covariate is nonzero only at area 3.
        X = np.column_stack([np.ones(t.J), np.eye(t.J)[3]])
    return AreaTable(ids=t.ids, samples=samples, X=X, centroids=centroids)


_needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                 reason="areas are shared out only where the process can fork")


class TestSharedAreas:
    """The per-area fits, shared out over the caller and forked workers."""

    @_needs_fork
    @pytest.mark.parametrize("make_table", [
        pytest.param(lambda: _criterion_11_table(50, 3), id="criterion11-seed3"),
        pytest.param(_singles_rank_deficient_table, id="singles-rank-deficient"),
        # Two (a, b) rows stall, in whichever process holds them.
        pytest.param(lambda: _seed902_table([1.0, 0.5]), id="seed902-beta0.5"),
    ])
    def test_records_do_not_depend_on_cpu_count(self, pin_cpus, monkeypatch, caplog, make_table):
        table = make_table()
        dealt = np.flatnonzero(table.n >= 2).tolist()
        fitted = {j for j, fit in small_area._loo_ab_fits(table).items() if not isinstance(fit, Exception)}
        prior_given_ab = small_area._prior_given_ab
        runs, logs = {}, {}
        for cpus in (1, 3):
            pin_cpus(cpus)
            in_caller = []

            def counted(table, j, *ab):
                in_caller.append(j)  # a forked worker appends to its own copy
                return prior_given_ab(table, j, *ab)

            monkeypatch.setattr(small_area, "_prior_given_ab", counted)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="fabcp.small_area"):
                runs[cpus] = _pipeline_bits(table)
            logs[cpus] = [m.getMessage() for m in caplog.records]
            assert multiprocessing.active_children() == []
            # The caller's share is every k-th area with n_j >= 2, whatever its (a, b) outcome.
            assert in_caller == [j for j in dealt[::cpus] if j in fitted]
        assert runs[3] == runs[1]
        assert logs[3] == logs[1]

    @pytest.mark.parametrize("area", [0, 1], ids=["caller-share", "worker-share"])
    def test_error_in_one_area_reraises_in_caller(self, pin_cpus, monkeypatch, area):
        table, _ = TestAreaPipeline._table(seed=80, J=12)
        pin_cpus(3)
        prior_given_ab = small_area._prior_given_ab

        def broken(table, j, *ab):
            if j == area:
                raise TypeError(f"injected into area {j}")
            return prior_given_ab(table, j, *ab)

        monkeypatch.setattr(small_area, "_prior_given_ab", broken)
        with pytest.raises(TypeError, match=f"injected into area {area}$") as excinfo:
            area_pipeline(table, "exact", ("fab", "dta"))
        assert multiprocessing.active_children() == []
        # A worker's frames come back as a note on the error.
        assert ", in broken\n" in "".join(traceback.format_exception(excinfo.value))

    @_needs_fork
    def test_search_error_in_a_worker_is_each_of_its_areas_result(self, pin_cpus, monkeypatch, caplog):
        """An (a, b) search that raises in a worker comes back as its areas' errors, not a dead worker."""
        table, _ = TestAreaPipeline._table(seed=80, J=12)
        pin_cpus(2)
        caller, loo_ab_fits = os.getpid(), small_area._loo_ab_fits

        def broken(table, areas=None):
            if os.getpid() != caller:
                raise EstimationError("injected into a worker's search")
            return loo_ab_fits(table, areas)

        monkeypatch.setattr(small_area, "_loo_ab_fits", broken)
        with caplog.at_level(logging.WARNING, logger="fabcp.small_area"):
            records = area_pipeline(table, "exact", ("fab",))
        assert multiprocessing.active_children() == []
        assert [r.fallback for r in records] == [j % 2 == 1 for j in range(table.J)]
        assert [m.getMessage() for m in caplog.records] == [
            f"area {area}: falling back to DTA (injected into a worker's search)" for area in table.ids[1::2]
        ]

    @_needs_fork
    def test_worker_that_dies_is_reported(self, pin_cpus, monkeypatch):
        table, _ = TestAreaPipeline._table(seed=80, J=12)
        pin_cpus(2)
        caller, prior_given_ab = os.getpid(), small_area._prior_given_ab

        def die_in_worker(table, j, *ab):
            if os.getpid() != caller:
                os._exit(3)
            return prior_given_ab(table, j, *ab)

        monkeypatch.setattr(small_area, "_prior_given_ab", die_in_worker)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            area_pipeline(table, "exact", ("fab",))
        assert multiprocessing.active_children() == []

    @_needs_fork
    def test_process_with_threads_fits_every_area_itself(self, pin_cpus, monkeypatch):
        """A fork copies only the calling thread, so a process running others does not fork."""
        table, _ = TestAreaPipeline._table(seed=80, J=8)
        pin_cpus(3)
        prior_given_ab, in_caller = small_area._prior_given_ab, []

        def counted(table, j, *ab):
            in_caller.append(j)
            return prior_given_ab(table, j, *ab)

        monkeypatch.setattr(small_area, "_prior_given_ab", counted)
        stop = threading.Event()
        waiting = threading.Thread(target=stop.wait)
        waiting.start()
        try:
            area_pipeline(table, "exact", ("fab",))
        finally:
            stop.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()
        assert in_caller == list(range(table.J))

    @_needs_fork
    def test_runs_in_a_pool_worker(self, pin_cpus):
        """A daemonic process may not fork workers, so it fits every area itself."""
        table, _ = TestAreaPipeline._table(seed=80, J=8)
        pin_cpus(3)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply(_pipeline_bits, (table,))
        assert got == _pipeline_bits(table)

    @pytest.mark.parametrize("case", [
        "zero-variance-one-area", "zero-variance-every-area", "coincident-pairs", "coincident-all",
        "singles", "rank-deficient-without-area3",
    ])
    @pytest.mark.parametrize("seed", [90, 91, 92, 93])
    def test_degenerate_maps_give_defined_records(self, pin_cpus, caplog, seed, case):
        """Every area of n_j >= 2 gets finite records; a FAB fallback names its reason."""
        table = _degenerate_map(seed, case)
        pin_cpus(1)
        serial = _pipeline_bits(table)
        caplog.clear()
        pin_cpus(2)
        with caplog.at_level(logging.WARNING, logger="fabcp.small_area"):
            records = area_pipeline(table, "exact", ("fab", "dta"))
        assert multiprocessing.active_children() == []
        assert _record_bits(records) == serial

        expected = [(area, m) for area, n in zip(table.ids, table.n) if n >= 2 for m in ("fab", "dta")]
        assert [(r.area_id, r.method) for r in records] == expected
        dta = {r.area_id: r.interval for r in records if r.method == "dta"}
        fallbacks = [r for r in records if r.fallback]
        for r in records:
            assert math.isfinite(r.interval.lower) and r.interval.lower <= r.interval.upper
            if r.method == "fab" and not r.fallback:
                assert math.isfinite(r.mu_j) and 0.0 < r.tau2_j < math.inf
        for r in fallbacks:
            assert r.method == "fab" and r.interval == dta[r.area_id] and math.isnan(r.mu_j)
        reasons = [re.fullmatch(r"area (\w+): falling back to DTA \((.+)\)", m.getMessage()).groups()
                   for m in caplog.records]
        assert [area for area, _ in reasons] == [r.area_id for r in fallbacks]
        if case == "rank-deficient-without-area3":
            assert ("area003", "covariate matrix is rank deficient") in reasons


class TestGenerateTable:
    def test_moments_of_within_area_variance(self):
        # E[s2/(n-1)] = E[sigma2] = b/(a-2) for a > 2
        rng = np.random.default_rng(84)
        table, _ = generate_table(J=400, n_range=(20, 20), beta=[0.0, 0.0],
                                  eta2=0.5, rho=0.3, a=6.0, b=4.0, rng=rng, extent=8.0)
        mean_var = float(np.mean(table.s2 / (table.n - 1)))
        assert mean_var == pytest.approx(4.0 / 4.0, rel=0.15)

    @pytest.mark.parametrize("name, value", [
        ("eta2", -1.0), ("eta2", math.nan), ("eta2", math.inf),
        ("a", 0.0), ("a", -2.0), ("a", math.nan), ("a", math.inf),
        ("b", 0.0), ("b", -1.0), ("b", math.nan), ("b", math.inf),
        ("rho", 1.5), ("rho", math.nan), ("extent", math.nan), ("extent", 0.0),
    ])
    def test_invalid_model_parameter_rejected_before_any_draw(self, name, value):
        """These failed with a message naming nothing ("shape < 0", "math domain error"), or drew a table.

        A bad rho was caught only after the centroids and covariate were drawn.
        """
        rng = np.random.default_rng(86)
        state = rng.bit_generator.state
        args = dict(J=5, n_range=(2, 4), beta=[1.0, -0.5], eta2=0.4, rho=0.2, a=5.0, b=3.0)
        args[name] = value
        rule = r"lie in \(-1, 1\)" if name == "rho" else "be finite and (nonnegative|positive)"
        with pytest.raises(ValueError, match=f"^{name} must {rule}, got "):
            generate_table(**args, rng=rng)
        assert rng.bit_generator.state == state

    def test_truth_record_is_complete(self):
        rng = np.random.default_rng(85)
        table, truth = generate_table(J=5, n_range=(2, 4), beta=[1.0, -0.5],
                                      eta2=0.4, rho=0.2, a=5.0, b=3.0, rng=rng)
        assert set(truth) >= {"beta", "eta2", "rho", "a", "b", "theta", "sigma2"}
        assert len(truth["theta"]) == 5
        assert table.X.shape == (5, 2)


def _conditional(**kw):
    W = sq_exp_weights([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    args = dict(j=0, beta_hat=np.array([0.5]), eta2_hat=0.7, rho_hat=0.2, theta_hat=np.zeros(3),
                W=W, X=np.ones((4, 1)), sigma2_hat_j=0.9)
    return conditional_params(**{**args, **kw})


@pytest.mark.parametrize("call, name", [
    (lambda: AreaConformalParams(0.0, math.nan, 1.0), "tau2_j"),
    (lambda: AreaConformalParams(0.0, 1.0, math.nan), "sigma2_hat_j"),
    (lambda: _conditional(sigma2_hat_j=math.nan), "sigma2_hat_j"),
    (lambda: _conditional(eta2_hat=math.nan), "eta2_hat"),
    (lambda: ab_marginal_loglik(math.nan, 1.0, [1.0, 2.0], [4, 4]), "a and b"),
    (lambda: eb_variances(math.nan, 1.0, [1.0, 2.0], [4, 4]), "a_hat and b_hat"),
    (lambda: fit_mean_model(np.zeros(4), [1.0, math.nan, 1.0, 1.0], np.ones((4, 1)),
                            sq_exp_weights([(0, 0), (1, 0), (0, 1), (1, 1)])), "sampling variances"),
    (lambda: PosteriorPredictive(math.nan, 0.0, 1.0, 1.0, 1.0), "posterior predictive parameters"),
    (lambda: g_map(0.0, 0.0, 3, mu=0.0, tau2=math.nan), "tau2"),
    (lambda: g_map(0.0, 0.0, 1, mu=0.0, tau2=math.inf), "tau2"),
    (lambda: g_map(0.0, 0.0, 3, mu=math.nan, tau2=1.0), "mu"),
    (lambda: _conditional(rho_hat=math.nan), "rho"),
    (lambda: WorkingModelParams(math.nan, 1.0, 1.0, 1.0), "mu"),
    (lambda: WorkingModelParams(0.0, math.nan, 1.0, 1.0), "tau2"),
], ids=["tau2_j", "sigma2_hat_j", "conditional_sigma2", "conditional_eta2", "ab_loglik",
        "eb_variances", "mean_model_d", "posterior_predictive", "g_map_nan", "g_map_n1_diffuse",
        "g_map_mu_nan", "conditional_rho_nan", "working_model_mu_nan", "working_model_tau2_nan"])
def test_nan_parameters_are_value_errors(call, name):
    """Each ``x <= 0`` guard let NaN through; ``g_map`` failed an ``assert`` (gone under -O)."""
    with pytest.raises(ValueError, match=name):
        call()


def _table_fields(**kw):
    fields = dict(ids=["a", "b", "c"], samples=[np.array([1.0, 2.0]), np.array([0.5]), np.array([3.0])],
                  X=np.ones((3, 1)), centroids=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    return {**fields, **kw}


def _generate(**kw):
    args = dict(J=5, n_range=(2, 4), beta=[1.0, 0.5], eta2=0.4, rho=0.2, a=5.0, b=3.0)
    return generate_table(**{**args, **kw}, rng=np.random.default_rng(0))


_W4 = sq_exp_weights([(0, 0), (1, 0), (0, 1), (1, 1)])
_S2_2D, _N_2D = np.ones((2, 2)), np.full((2, 2), 3)


@pytest.mark.parametrize("call, message", [
    (lambda: _conditional(X=np.ones((3, 1))), r"^X must have shape \(J, p\) = \(4, 1\) .*got \(3, 1\)$"),
    (lambda: _conditional(beta_hat=np.array([0.5, 1.0])), r"^X must have shape \(J, p\) = \(4, 2\)"),
    (lambda: estimate_ab(_S2_2D, _N_2D), r"one-dimensional; got \(2, 2\) and \(2, 2\)$"),
    (lambda: ab_marginal_loglik(3.0, 2.0, _S2_2D, _N_2D), "one-dimensional"),
    (lambda: eb_variances(3.0, 2.0, _S2_2D, _N_2D), "one-dimensional"),
    (lambda: AreaTable(**_table_fields(samples=[[1.0, 2.0], [0.5], [3.0]])),
     "^samples entry must be a numpy array, got list$"),
    (lambda: AreaTable(**_table_fields(X=[[1.0], [1.0], [1.0]])), "^X must be a numpy array, got list$"),
    (lambda: AreaTable(**_table_fields(centroids=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
     "^centroids must be a numpy array, got list$"),
], ids=["conditional_X_rows", "conditional_beta_length", "estimate_ab_2d", "ab_loglik_2d",
        "eb_variances_2d", "table_sample_list", "table_X_list", "table_centroids_list"])
def test_mis_shaped_input_is_a_value_error(call, message):
    """These used the wrong rows of X, flattened 2-D s2 and n, or raised AttributeError."""
    with pytest.raises(ValueError, match=message):
        call()


def _W3_row0(w01):
    """A 3 x 3 zero-diagonal W whose first row is (0, w01, 0)."""
    return np.array([[0.0, w01, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: AreaTable(**_table_fields(ids=["a"], samples=[np.ones(2)], X=np.ones((1, 1)),
                                       centroids=np.zeros((1, 2)))), "need at least two areas"),
    (lambda: AreaTable(**_table_fields(samples=[np.ones(2), np.ones(2)])), "inconsistent area counts"),
    (lambda: AreaTable(**_table_fields(samples=[np.ones((2, 1)), np.ones(1), np.ones(1)])),
     "each area needs a finite, nonempty sample"),
    (lambda: AreaTable(**_table_fields(samples=[np.ones(2), np.ones(0), np.ones(1)])),
     "each area needs a finite, nonempty sample"),
    (lambda: sar_covariance(0.5, np.zeros((2, 3))), "W must be square"),
    (lambda: sar_covariance(0.5, np.full((2, 2), 0.5)), "W must have a zero diagonal"),
    (lambda: sar_covariance(0.5, np.array([[0.0, 0.5], [0.5, 0.0]])), "rows of W must sum to 1"),
    # np.allclose's default rtol of 1e-5 let these two through.
    (lambda: sar_covariance(0.5, _W3_row0(1.0 + 5e-6)), "rows of W must sum to 1"),
    (lambda: sar_covariance(0.5, _W3_row0(1.0 + 1e-9)), "rows of W must sum to 1"),
    (lambda: sar_covariance(0.5, _W3_row0(math.nan)), "rows of W must sum to 1"),
    (lambda: sq_exp_weights([(0.0, 0.0)]), "need at least two"),
    (lambda: fit_mean_model(np.zeros(3), np.ones(4), np.ones((4, 1)), _W4), "inconsistent dimensions"),
    (lambda: fit_mean_model(np.zeros(4), np.ones(4), np.vander(np.arange(4.0), 3), _W4),
     r"need at least p \+ 2 = 5 areas, got 4"),
    (lambda: _conditional(j=4), "area index 4 out of range for J=4"),
    (lambda: _conditional(theta_hat=np.zeros(4)), "theta_hat must have J-1=3 entries, got 4"),
    (lambda: _conditional(rho_hat=1.0), r"rho must lie in \(-1, 1\), got 1.0"),
    (lambda: _generate(J=1), "J must be at least 2"),
    (lambda: _generate(beta=[1.0]), "beta must have length 2"),
    (lambda: _generate(n_range=(0, 4)), "invalid n_range"),
    (lambda: _generate(n_range=(4, 2)), "invalid n_range"),
], ids=["table_one_area", "table_counts", "table_2d_sample", "table_empty_sample", "W_not_square",
        "W_diagonal", "W_row_sums", "W_row_sums_5e-6", "W_row_sums_1e-9", "W_row_sums_nan",
        "weights_one_centroid", "mean_model_lengths",
        "mean_model_J_below_p_plus_2", "conditional_j", "conditional_theta_size", "conditional_rho",
        "generate_J", "generate_beta", "generate_n_below_1", "generate_n_reversed"])
def test_guarded_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
