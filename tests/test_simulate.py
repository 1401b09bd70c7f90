"""Tests for the Monte Carlo harness: streams, batches, and experiments."""

import csv
import math

import numpy as np
import pytest

from fabcp.baselines import (
    EBSpec,
    PivotSpec,
    dta_interval,
    eb_bounds,
    eb_interval,
    pivot_bounds,
    pivot_interval,
)
from fabcp.fab import fab_interval
from fabcp.simulate import (
    STRIDE,
    SimConfig,
    _cell_uniforms,
    _dta_bounds,
    _fab_bounds,
    _ratio_stats,
    bayes_risk_ratio,
    bounds_profile,
    coverage_experiment,
    expected_width,
    replication_stream,
    sample_population,
)
from fabcp.working_model import WorkingModelParams


class TestStreams:
    def test_batch_matches_per_replication_streams(self):
        """The vectorized buffer and per-replication streams share draws."""
        for rep in (0, 1, 7, 999):
            row = _cell_uniforms(seed=12345, cell=3, reps=1000, m=21)[rep]
            np.testing.assert_array_equal(
                row, replication_stream(12345, 3, rep).random(21)
            )

    def test_distinct_cells_and_reps_decorrelated(self):
        a = _cell_uniforms(1, 0, 100, 8)
        b = _cell_uniforms(1, 1, 100, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_stride_budget_enforced(self):
        with pytest.raises(ValueError):
            _cell_uniforms(0, 0, 10, STRIDE + 1)

    def test_sample_population_uses_stream_uniforms(self):
        rng = replication_stream(7, 2, 5)
        sample = sample_population("normal", 1.5, 6, rng)
        assert sample.shape == (6,)
        again = sample_population("normal", 1.5, 6, replication_stream(7, 2, 5))
        np.testing.assert_array_equal(sample, again)


class TestSamplePopulation:
    def test_mixture_support(self):
        rng = np.random.default_rng(0)
        draws = sample_population("mixture", 2.0, 1000, rng)
        assert set(np.unique(draws)) == {1.0, 3.0}

    def test_mixture_moments(self):
        theta = 0.7
        u = _cell_uniforms(99, 0, 50_000, 20)
        draws = np.where(u < 0.5, theta - 1.0, theta + 1.0)  # pooled 1e6 draws
        assert float(draws.mean()) == pytest.approx(theta, abs=0.01)
        assert float(draws.var()) == pytest.approx(1.0, abs=0.01)

    def test_unknown_population_rejected(self):
        with pytest.raises(ValueError):
            sample_population("cauchy", 0.0, 3, np.random.default_rng(0))


class TestBatchBounds:
    def test_fab_batch_matches_scalar(self):
        rng = np.random.default_rng(100)
        samples = rng.normal(size=(50, 5))
        params = WorkingModelParams(mu=0.4, tau2=0.7, a=1.0, b=1.0)
        bounds = _fab_bounds(samples, params.mu, params.tau2, k=1)
        for row, (lo, hi) in zip(samples, bounds):
            iv = fab_interval(row, params, 1.0 / 6.0 + 1e-12)
            assert lo == pytest.approx(iv.lower, rel=1e-12, abs=1e-12)
            assert hi == pytest.approx(iv.upper, rel=1e-12, abs=1e-12)

    def test_dta_batch_matches_scalar(self):
        rng = np.random.default_rng(101)
        samples = rng.normal(size=(50, 4))
        bounds = _dta_bounds(samples, k=1)
        for row, (lo, hi) in zip(samples, bounds):
            iv = dta_interval(row, 0.25)
            assert lo == pytest.approx(iv.lower, rel=1e-12, abs=1e-12)
            assert hi == pytest.approx(iv.upper, rel=1e-12, abs=1e-12)

    def test_pivot_and_eb_batches_match_scalar(self):
        rng = np.random.default_rng(102)
        samples = rng.normal(size=(20, 6))
        pb = pivot_bounds(samples, 0.25, 1.0)
        pt = pivot_bounds(samples, 0.25, None)
        eb = eb_bounds(samples, 0.25, 0.3, 0.5, 1.0)
        for i, row in enumerate(samples):
            piv_z = pivot_interval(row, PivotSpec(0.25, sigma2=1.0))
            piv_t = pivot_interval(row, PivotSpec(0.25))
            ebi = eb_interval(row, EBSpec(0.3, 0.5, 0.25, sigma2=1.0))
            np.testing.assert_allclose(pb[i], [piv_z.lower, piv_z.upper], rtol=1e-12)
            np.testing.assert_allclose(pt[i], [piv_t.lower, piv_t.upper], rtol=1e-12)
            np.testing.assert_allclose(eb[i], [ebi.lower, ebi.upper], rtol=1e-12)


class TestExpectedWidth:
    def test_self_ratio_is_one(self):
        w = np.random.default_rng(0).uniform(1, 2, size=100)
        ratio, se = _ratio_stats(w, w)
        assert ratio == 1.0
        assert se == 0.0

    def test_report_shape_and_determinism(self):
        config = SimConfig(methods=("fab", "dta"), n_list=(3, 7), alpha=0.25,
                           theta_grid=(0.0, 1.0), tau2_list=(0.5,), replications=500, seed=5)
        rep1 = expected_width(config)
        rep2 = expected_width(config)
        assert rep1 == rep2
        # 2 n x 2 theta cells x (fab, dta, ratio)
        assert len(rep1.rows) == 12

    def test_k_zero_cell_reports_infinite_width(self):
        config = SimConfig(methods=("fab", "dta"), n_list=(3,), alpha=0.1,
                           theta_grid=(0.0,), tau2_list=(0.5,), replications=200, seed=6)
        rep = expected_width(config)
        row = rep.find("fab", n=3, theta_minus_mu=0.0, tau2=0.5)
        assert math.isinf(row.mean_width)
        assert row.inf_width_count == 200

    def test_ratio_approaches_one_as_n_grows(self):
        config = SimConfig(methods=("fab", "dta"), n_list=(3, 7, 11, 15, 19), alpha=0.25,
                           theta_grid=(0.0,), tau2_list=(0.5,), replications=8000, seed=2002)
        rep = expected_width(config)
        ratios = [
            rep.find("fab/dta", n=n, tau2=0.5, theta_minus_mu=0.0).mean_width
            for n in (3, 7, 11, 15, 19)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.0

    def test_standard_error_scales_inverse_root_r(self):
        base = SimConfig(methods=("dta",), n_list=(3,), alpha=0.25, theta_grid=(0.0,),
                         tau2_list=(0.5,), replications=4000, seed=7)
        big = SimConfig(methods=("dta",), n_list=(3,), alpha=0.25, theta_grid=(0.0,),
                        tau2_list=(0.5,), replications=16000, seed=7)
        se_small = expected_width(base).rows[0].width_se
        se_big = expected_width(big).rows[0].width_se
        assert se_small / se_big == pytest.approx(2.0, rel=0.2)


class TestBayesRiskRatio:
    def test_diffuse_prior_limit(self):
        rep = bayes_risk_ratio((19,), (100.0,), 0.25, 25_000, seed=90)
        row = rep.find("fab/dta", n=19, tau2=100.0)
        assert abs(row.mean_width - 1.0) <= max(3 * row.width_se, 1e-4)

    def test_informative_prior_wins(self):
        rep = bayes_risk_ratio((3,), (0.5,), 0.25, 25_000, seed=91)
        row = rep.find("fab/dta", n=3, tau2=0.5)
        assert row.mean_width + 3 * row.width_se < 1.0


class TestCoverageExperiment:
    def test_conformal_methods_near_nominal(self):
        config = SimConfig(methods=("fab", "dta"), n_list=(3,), alpha=0.25,
                           theta_grid=(0.0,), tau2_list=(0.5,), replications=20_000, seed=8)
        rep = coverage_experiment(config)
        for method in ("fab", "dta"):
            row = rep.find(method, n=3, theta_minus_mu=0.0)
            assert row.coverage == pytest.approx(0.75, abs=5 * row.coverage_se)

    def test_eb_coverage_declines_with_prior_error(self):
        config = SimConfig(methods=("eb",), n_list=(3,), alpha=0.25,
                           theta_grid=(0.0, 3.0), tau2_list=(0.5,),
                           replications=20_000, seed=9)
        rep = coverage_experiment(config)
        at_zero = rep.find("eb", theta_minus_mu=0.0).coverage
        at_three = rep.find("eb", theta_minus_mu=3.0).coverage
        assert at_zero > 0.75
        assert at_three < 0.55

    def test_mixture_keeps_conformal_validity(self):
        config = SimConfig(methods=("fab", "dta"), n_list=(3,), alpha=0.25,
                           theta_grid=(1.0,), tau2_list=(0.5,),
                           replications=20_000, seed=10, population="mixture")
        rep = coverage_experiment(config)
        for method in ("fab", "dta"):
            row = rep.find(method, n=3, theta_minus_mu=1.0)
            assert row.coverage >= 0.75 - 3 * math.sqrt(0.75 * 0.25 / 20_000)


class TestBoundsProfile:
    def test_profile_geometry(self):
        rep = bounds_profile((-1.5, 0.0, 1.5), n=3, mu=0.0, tau2=0.5,
                             alpha=0.25, replications=4000, seed=91)
        for theta in (-1.5, 0.0, 1.5):
            dta = rep.find("dta", theta_minus_mu=theta)
            mid_dta = 0.5 * (dta.mean_lower + dta.mean_upper)
            assert mid_dta == pytest.approx(theta, abs=0.08)
        for theta in (-1.5, 1.5):
            fab = rep.find("fab", theta_minus_mu=theta)
            mid_fab = 0.5 * (fab.mean_lower + fab.mean_upper)
            # shrinkage pulls the center from theta toward the prior mean 0
            assert 0.2 < abs(mid_fab) < abs(theta) - 0.2
            assert math.copysign(1.0, mid_fab) == math.copysign(1.0, theta)
        at_mu_fab = rep.find("fab", theta_minus_mu=0.0)
        at_mu_dta = rep.find("dta", theta_minus_mu=0.0)
        assert at_mu_fab.mean_width < at_mu_dta.mean_width - 0.3


class TestReportSerialization:
    def test_fixed_header_and_inf_tokens(self, tmp_path):
        config = SimConfig(methods=("fab",), n_list=(3,), alpha=0.1,
                           theta_grid=(0.0,), tau2_list=(0.5,), replications=50, seed=11)
        rep = expected_width(config)
        out = tmp_path / "report.csv"
        rep.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "method,n,theta_minus_mu,tau2,mean_width,width_se,"
            "coverage,coverage_se,inf_width_count,seed"
        )
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["mean_width"] == "inf"
        assert rows[0]["inf_width_count"] == "50"

    def test_endpoint_columns_for_bounds(self, tmp_path):
        rep = bounds_profile((0.0,), n=3, mu=0.0, tau2=0.5, alpha=0.25,
                             replications=100, seed=12)
        out = tmp_path / "bounds.csv"
        rep.to_csv(str(out), include_endpoints=True)
        header = out.read_text().splitlines()[0]
        assert header.endswith(",mean_lower,mean_upper")


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(replications=0)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SimConfig(tau2_list=(0.0,))
        with pytest.raises(ValueError):
            SimConfig(methods=("fab", "bootstrap"))
        with pytest.raises(ValueError):
            SimConfig(population="levy")

    def test_sample_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            SimConfig(n_list=(3, 0))


class TestSingleObservationCells:
    def test_dta_needs_two_observations(self):
        # The zero-precision reflection divides by n - 1; n = 1 used to give
        # NaN bounds, reported as coverage 0 with every width infinite.
        config = SimConfig(methods=("dta",), n_list=(1,), alpha=0.5, replications=50)
        with pytest.raises(ValueError, match="n >= 2"):
            coverage_experiment(config)

    def test_estimated_variance_pivot_needs_two_observations(self):
        samples = np.zeros((4, 1))
        with pytest.raises(ValueError, match="n >= 2"):
            pivot_bounds(samples, 0.25, None)
        config = SimConfig(methods=("pivot_t",), n_list=(1,), replications=50)
        with pytest.raises(ValueError, match="n >= 2"):
            coverage_experiment(config)

    def test_informative_methods_run_at_one_observation(self):
        config = SimConfig(methods=("fab", "pivot_z", "eb"), n_list=(1,), alpha=0.5,
                           replications=200, seed=3)
        for row in coverage_experiment(config).rows:
            assert row.inf_width_count == 0
            assert 0.0 < row.coverage < 1.0
