"""Tests for the spatial working model and leave-one-area-out pipeline."""

import math

import numpy as np
import pytest

from fabcp.small_area import (
    AreaTable,
    SpatialSpec,
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
)
from fabcp.baselines import dta_interval
from fabcp.fab import fab_interval_from_precision
from fabcp.simulate import _fab_bounds


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
        a_hat, b_hat = estimate_ab([(float(v), 20) for v in s2])
        assert a_hat == pytest.approx(4.0, rel=0.15)
        assert b_hat == pytest.approx(2.0, rel=0.15)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(61)
        s2, _ = _simulate_s2(rng, J=80, n=8, a=3.0, b=1.5)
        pairs = [(float(v), 8) for v in s2]
        a_hat, b_hat = estimate_ab(pairs)
        best = max(
            ab_marginal_loglik(math.exp(la), math.exp(lb), pairs)
            for la in np.linspace(-3, 3, 50)
            for lb in np.linspace(-3, 3, 50)
        )
        assert ab_marginal_loglik(a_hat, b_hat, pairs) >= best - 1e-9

    def test_scale_family(self):
        rng = np.random.default_rng(60)
        s2, _ = _simulate_s2(rng, J=500, n=20, a=4.0, b=2.0)
        pairs = [(float(v), 20) for v in s2]
        a_hat, b_hat = estimate_ab(pairs)
        lam = 3.7
        a_scaled, b_scaled = estimate_ab([(float(v * lam), 20) for v in s2])
        assert a_scaled == pytest.approx(a_hat, rel=0.05)
        assert b_scaled == pytest.approx(lam * b_hat, rel=0.05)

    def test_needs_two_informative_areas(self):
        with pytest.raises(ValueError):
            estimate_ab([(1.0, 5), (0.0, 1)])


class TestEBVariances:
    def test_zero_sum_of_squares(self):
        sigma2_k, _ = eb_variances(3.0, 2.0, [(0.0, 2)])
        assert sigma2_k[0] == pytest.approx(2.0 / 6.0, rel=1e-15)

    def test_held_out_prior_mode(self):
        _, held = eb_variances(3.0, 2.0, [(1.0, 5)])
        assert held == pytest.approx(2.0 / 5.0, rel=1e-15)

    def test_large_b_dominated_by_prior(self):
        sigma2_k, _ = eb_variances(3.0, 1e8, [(4.0, 6)])
        assert sigma2_k[0] == pytest.approx(1e8 / 10.0, rel=1e-6)

    def test_tracks_true_variances(self):
        rng = np.random.default_rng(60)
        s2, sigma2 = _simulate_s2(rng, J=500, n=20, a=4.0, b=2.0)
        pairs = [(float(v), 20) for v in s2]
        a_hat, b_hat = estimate_ab(pairs)
        sigma2_hat, _ = eb_variances(a_hat, b_hat, pairs)
        assert np.corrcoef(sigma2_hat, sigma2)[0, 1] > 0.8


class TestFitMeanModel:
    def test_no_heterogeneity_limit(self):
        rng = np.random.default_rng(42)
        table, _ = generate_table(J=100, n_range=(10, 20), beta=[1.0, 0.5],
                                  eta2=1e-12, rho=0.0, a=6.0, b=4.0, rng=rng, extent=10.0)
        pairs = [(table.s2[i], int(table.n[i])) for i in range(table.J)]
        a_hat, b_hat = estimate_ab(pairs)
        sigma2_hat, _ = eb_variances(a_hat, b_hat, pairs)
        fit = fit_mean_model(table.ybar, sigma2_hat / table.n, table.X,
                             sq_exp_weights(table.centroids))
        assert fit.eta2 < 0.05
        assert np.max(np.abs(fit.theta - table.X @ fit.beta)) < 0.3

    def test_rho_recovery_at_zero(self):
        rng = np.random.default_rng(503)
        table, _ = generate_table(J=200, n_range=(10, 30), beta=[1.0, 0.5],
                                  eta2=1.0, rho=0.0, a=6.0, b=4.0, rng=rng, extent=12.0)
        pairs = [(table.s2[i], int(table.n[i])) for i in range(table.J)]
        a_hat, b_hat = estimate_ab(pairs)
        sigma2_hat, _ = eb_variances(a_hat, b_hat, pairs)
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
    def _map(seed, J=120):
        rng = np.random.default_rng(seed)
        table, truth = generate_table(J=J, n_range=(3, 12), beta=[1.0, 0.5],
                                      eta2=0.6, rho=0.6, a=6.0, b=4.0, rng=rng, extent=8.0)
        d = np.array(truth["sigma2"]) / table.n
        return table, d, sq_exp_weights(table.centroids)

    def test_profile_matches_covariance_form_loglik(self):
        """The precision-form profile against the covariance-form oracle."""
        table, d, W = self._map(75)
        eta2s = np.array([math.exp(-14.0), 0.3, 50.0])
        for rho in (-0.99, -0.5, 0.0, 0.7, 0.99):
            lls, betas = _RhoProfile(rho, W, d, table.ybar, table.X).loglik_batch(eta2s)
            for eta2, ll, beta in zip(eta2s, lls, betas):
                want = mean_model_loglik(table.ybar, d, table.X, W, beta, float(eta2), rho)
                assert ll == pytest.approx(want, rel=1e-10), (rho, eta2)

    def test_blup_matches_covariance_form(self):
        table, d, W = self._map(76)
        fit = fit_mean_model(table.ybar, d, table.X, W)
        G = sar_covariance(fit.rho, W)
        M = fit.eta2 * G + np.diag(d)
        r = table.ybar - table.X @ fit.beta
        want = table.X @ fit.beta + fit.eta2 * (G @ np.linalg.solve(M, r))
        np.testing.assert_allclose(fit.theta, want, rtol=1e-10, atol=1e-12)

    def test_rank_deficient_covariates_rejected(self):
        rng = np.random.default_rng(71)
        J = 20
        X = np.column_stack([np.ones(J), 2.0 * np.ones(J)])
        with pytest.raises(ValueError, match="rank deficient"):
            fit_mean_model(rng.normal(size=J), np.full(J, 0.1), X, _random_weights(rng, J))


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
            bounds = _fab_bounds(draws[:, :n_j], params.mu_j, params.tau2_j, k)
            hit = (bounds[:, 0] <= draws[:, n_j]) & (draws[:, n_j] <= bounds[:, 1])
            level = 1.0 - alpha_j
            assert hit.mean() >= level - 3.0 * math.sqrt(level * alpha_j / reps)

    def test_needs_three_areas(self):
        rng = np.random.default_rng(83)
        table, _ = generate_table(J=2, n_range=(3, 5), beta=[0.0, 0.0],
                                  eta2=0.5, rho=0.0, a=6.0, b=4.0, rng=rng)
        with pytest.raises(ValueError):
            area_pipeline(table, 0.25)

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

    def test_parallel_matches_serial(self):
        table, _ = self._table(seed=86, J=8)
        serial = area_pipeline(table, "exact", methods=("fab", "dta"), n_jobs=1)
        threaded = area_pipeline(table, "exact", methods=("fab", "dta"), n_jobs=2)
        assert [
            (r.area_id, r.method, r.interval.lower, r.interval.upper) for r in serial
        ] == [
            (r.area_id, r.method, r.interval.lower, r.interval.upper) for r in threaded
        ]


class TestSpatialSpec:
    def test_validation_and_covariance(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = SpatialSpec(W=W, rho=0.5, eta2=2.0, beta=np.zeros(1))
        np.testing.assert_allclose(spec.covariance(), 2.0 * sar_covariance(0.5, W), rtol=1e-15)
        with pytest.raises(ValueError):
            SpatialSpec(W=W, rho=1.0, eta2=2.0, beta=np.zeros(1))
        with pytest.raises(ValueError):
            SpatialSpec(W=W, rho=0.5, eta2=0.0, beta=np.zeros(1))
        with pytest.raises(ValueError):
            SpatialSpec(W=np.array([[0.5, 0.5], [1.0, 0.0]]), rho=0.2, eta2=1.0, beta=np.zeros(1))


class TestGenerateTable:
    def test_moments_of_within_area_variance(self):
        # E[s2/(n-1)] = E[sigma2] = b/(a-2) for a > 2
        rng = np.random.default_rng(84)
        table, _ = generate_table(J=400, n_range=(20, 20), beta=[0.0, 0.0],
                                  eta2=0.5, rho=0.3, a=6.0, b=4.0, rng=rng, extent=8.0)
        mean_var = float(np.mean(table.s2 / (table.n - 1)))
        assert mean_var == pytest.approx(4.0 / 4.0, rel=0.15)

    def test_truth_record_is_complete(self):
        rng = np.random.default_rng(85)
        table, truth = generate_table(J=5, n_range=(2, 4), beta=[1.0, -0.5],
                                      eta2=0.4, rho=0.2, a=5.0, b=3.0, rng=rng)
        assert set(truth) >= {"beta", "eta2", "rho", "a", "b", "theta", "sigma2"}
        assert len(truth["theta"]) == 5
        assert table.X.shape == (5, 2)
