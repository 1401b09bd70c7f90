"""Tests for the Monte Carlo harness: streams, batches, and experiments."""

import csv
import math
import multiprocessing
import os

import numpy as np
import pytest

from fabcp.baselines import (
    dta_interval,
    eb_bounds,
    eb_interval,
    pivot_bounds,
    pivot_interval,
)
from fabcp.fab import fab_interval, reflect_bounds
from fabcp.simulate import (
    SimConfig,
    _cell_uniforms,
    _linked_draws,
    _method_bounds,
    _ratio_stats,
    _transform,
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
                row, replication_stream(12345, 3, rep, 21).random(21)
            )

    @pytest.mark.parametrize("m", [1, 32, 33, 64, 65, 100])
    def test_batch_matches_streams_at_every_stride(self, m):
        """Rows keep matching their streams when the stride grows past 32."""
        u = _cell_uniforms(seed=4, cell=2, reps=50, m=m)
        assert u.shape == (50, m)
        for rep in (0, 1, 17, 49):
            np.testing.assert_array_equal(u[rep], replication_stream(4, 2, rep, m).random(m))
        for first in (1, 7, 17, 49):
            np.testing.assert_array_equal(_cell_uniforms(4, 2, 50 - first, m, first=first), u[first:])

    def test_distinct_cells_and_reps_decorrelated(self):
        a = _cell_uniforms(1, 0, 100, 8)
        b = _cell_uniforms(1, 1, 100, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_sample_population_uses_stream_uniforms(self):
        rng = replication_stream(7, 2, 5, 6)
        sample = sample_population("normal", 1.5, 6, rng)
        assert sample.shape == (6,)
        again = sample_population("normal", 1.5, 6, replication_stream(7, 2, 5, 6))
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


@pytest.mark.parametrize("draws", [
    lambda u: _transform("normal", 0.7, u),
    lambda u: _linked_draws(SimConfig(mu=0.3), u, 0.5, math.nan),
], ids=["transform_normal", "linked_draws"])
def test_draws_allocate_about_their_result(traced_peak, draws):
    """Built out of place, the draws peaked at 2.00 and 2.10 x their bytes; the uniforms stay."""
    u = _cell_uniforms(3, 0, 10**4, 20)
    before = u.copy()
    result, peak = traced_peak(lambda: draws(u))
    assert peak <= 1.25 * result.nbytes
    np.testing.assert_array_equal(u, before)


class TestBatchBounds:
    def test_fab_batch_matches_scalar(self):
        rng = np.random.default_rng(100)
        samples = rng.normal(size=(50, 5))
        params = WorkingModelParams(mu=0.4, tau2=0.7, a=1.0, b=1.0)
        bounds = reflect_bounds(samples, samples.sum(axis=1, keepdims=True),
                                params.mu, 1.0 / params.tau2, k=1)
        for row, (lo, hi) in zip(samples, bounds):
            iv = fab_interval(row, params, 1.0 / 6.0 + 1e-12)
            assert lo == pytest.approx(iv.lower, rel=1e-12, abs=1e-12)
            assert hi == pytest.approx(iv.upper, rel=1e-12, abs=1e-12)

    def test_dta_batch_matches_scalar(self):
        rng = np.random.default_rng(101)
        samples = rng.normal(size=(50, 4))
        bounds = reflect_bounds(samples, samples.sum(axis=1, keepdims=True), 0.0, 0.0, k=1)
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
            piv_z = pivot_interval(row, 0.25, sigma2=1.0)
            piv_t = pivot_interval(row, 0.25)
            ebi = eb_interval(row, 0.25, 0.3, 0.5, sigma2=1.0)
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
        assert all(math.isnan(r.mean_lower) and math.isnan(r.mean_upper) for r in rep1.rows)

    def test_k_zero_cell_reports_infinite_width(self):
        config = SimConfig(methods=("fab", "dta"), n_list=(3,), alpha=0.1,
                           theta_grid=(0.0,), tau2_list=(0.5,), replications=200, seed=6)
        rep = expected_width(config)
        row = rep.find("fab", n=3, theta_minus_mu=0.0, tau2=0.5)
        assert math.isinf(row.mean_width)
        assert row.inf_width_count == 200
        ratio = rep.find("fab/dta", n=3, theta_minus_mu=0.0, tau2=0.5)
        assert math.isnan(ratio.mean_width) and math.isnan(ratio.width_se)

    def test_zero_dta_mean_width_gives_nan_ratio(self):
        """Both mixture draws on one atom give zero widths; the ratio raised ZeroDivisionError."""
        config = SimConfig(methods=("fab", "dta"), n_list=(2,), alpha=0.4, replications=1,
                           seed=0, population="mixture")
        rep = expected_width(config)
        assert rep.find("dta", n=2).mean_width == 0.0
        ratio = rep.find("fab/dta", n=2)
        assert math.isnan(ratio.mean_width) and math.isnan(ratio.width_se)

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
        rows = expected_width(base).rows
        assert [r.method for r in rows] == ["dta"]  # no fab/dta row without fab
        se_small = rows[0].width_se
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
        assert all(math.isnan(r.mean_lower) and math.isnan(r.mean_upper) for r in rep.rows)


class TestCoverageExperiment:
    def test_conformal_methods_near_nominal(self):
        config = SimConfig(methods=("fab", "dta"), n_list=(3,), alpha=0.25,
                           theta_grid=(0.0,), tau2_list=(0.5,), replications=20_000, seed=8)
        rep = coverage_experiment(config)
        for method in ("fab", "dta"):
            row = rep.find(method, n=3, theta_minus_mu=0.0)
            assert row.coverage == pytest.approx(0.75, abs=5 * row.coverage_se)
        assert [r.method for r in rep.rows] == ["fab", "dta"]  # no fab/dta row
        assert all(math.isnan(r.mean_lower) and math.isnan(r.mean_upper) for r in rep.rows)

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
        rep = bounds_profile(SimConfig(theta_grid=(-1.5, 0.0, 1.5), replications=4000, seed=91))
        assert [r.method for r in rep.rows] == ["fab", "dta"] * 3  # no fab/dta row
        assert all(math.isfinite(r.mean_lower) and math.isfinite(r.mean_upper) for r in rep.rows)
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


# n = 2 at alpha = 0.25 is a k = 0 cell (infinite widths, NaN ratio); at
# seed 0, (n = 3, theta = 0, tau2 = inf) draws its one mixture replication
# on one atom, a zero DTA width and again a NaN ratio. 18 cells.
_NAN_GRID = SimConfig(methods=("fab", "dta", "pivot_z", "pivot_t", "eb"), n_list=(2, 3, 4),
                      alpha=0.25, theta_grid=(0.0, 1.0, 2.0), tau2_list=(0.5, math.inf),
                      replications=1, seed=0, population="mixture")

_needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                 reason="cells are dealt out only where the process can fork")


class TestCpuCount:
    """The cells are dealt over the affinity mask's CPUs; no report may depend on how many."""

    @pytest.mark.parametrize("experiment", [
        lambda: expected_width(_NAN_GRID),
        lambda: coverage_experiment(_NAN_GRID),
        lambda: bayes_risk_ratio((2, 3, 4), (0.5, 2.0), 0.25, 4, 0),
        lambda: bounds_profile(_NAN_GRID),
    ], ids=["expected_width", "coverage", "bayes_risk", "bounds"])
    def test_report_does_not_depend_on_cpu_count(self, pin_cpus, tmp_path, experiment):
        """Three CPUs give uneven shares; ``==`` also fails on a NaN that crossed a pipe."""
        reports, csvs = [], []
        for cpus in (1, 2, 3):
            pin_cpus(cpus)
            reports.append(experiment())
            reports[-1].to_csv(str(tmp_path / "report.csv"))
            csvs.append((tmp_path / "report.csv").read_bytes())
        assert multiprocessing.active_children() == []
        assert any(math.isnan(r.mean_width) or math.isinf(r.mean_width) for r in reports[0].rows)
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    def test_grid_has_infinite_and_zero_width_cells(self):
        report = expected_width(_NAN_GRID)
        assert report.find("dta", n=2, theta_minus_mu=0.0, tau2=0.5).mean_width == math.inf
        assert report.find("dta", n=3, theta_minus_mu=0.0, tau2=math.inf).mean_width == 0.0

    @_needs_fork
    @pytest.mark.parametrize("failing, first", [((5,), 5), ((5, 7), 5), ((3, 5), 3)],
                             ids=["child", "child_first", "caller_first"])
    def test_first_failing_cell_in_cell_order_raises(self, pin_cpus, monkeypatch, failing, first):
        """Under two CPUs cells 0 and 2 (n = 3, 7) run in the caller, 1 and 3 (n = 5, 9) in a child."""
        def method_bounds(method, samples, *args):
            if samples.shape[1] in failing:
                raise ZeroDivisionError(f"injected at n = {samples.shape[1]}")
            return _method_bounds(method, samples, *args)

        monkeypatch.setattr("fabcp.simulate._method_bounds", method_bounds)
        config = SimConfig(n_list=(3, 5, 7, 9), replications=8)
        errors = []
        for cpus in (1, 2):
            pin_cpus(cpus)
            with pytest.raises(ZeroDivisionError) as info:
                expected_width(config)
            errors.append(info.value)
        assert multiprocessing.active_children() == []
        assert [str(error) for error in errors] == [f"injected at n = {first}"] * 2
        assert not hasattr(errors[0], "__notes__")  # one CPU: every cell ran in the caller
        notes = getattr(errors[1], "__notes__", [])
        if first == 5:  # cell 1, run by the child
            assert len(notes) == 1 and notes[0].startswith("In a worker process:\n")
            assert ", in method_bounds\n" in notes[0]
        else:
            assert notes == []


class TestBlocks:
    """A cell runs its replications in blocks of ``_BLOCK_REPS``; no report may show where they split."""

    @pytest.mark.parametrize("experiment", [
        lambda: expected_width(_BLOCK_GRID),
        lambda: coverage_experiment(_BLOCK_GRID),
        lambda: bayes_risk_ratio((3, 40), (0.5, 2.0), 0.25, 50, 4),
        lambda: bounds_profile(_BLOCK_GRID),
    ], ids=["expected_width", "coverage", "bayes_risk", "bounds"])
    def test_block_size_is_invisible(self, one_cpu, monkeypatch, tmp_path, experiment):
        """Blocks of 1, 7 (a partial last block) and more than the 50 replications; n = 40 strides 64."""
        csvs = []
        for block in (1, 7, 51):
            monkeypatch.setattr("fabcp.simulate._BLOCK_REPS", block)
            experiment().to_csv(str(tmp_path / "report.csv"))
            csvs.append((tmp_path / "report.csv").read_bytes())
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    @pytest.mark.parametrize("experiment", [coverage_experiment, expected_width, bounds_profile])
    def test_cell_keeps_about_its_statistics(self, one_cpu, traced_peak, experiment):
        """One 50 000-replication cell held every replication's uniforms, draws and pools: 38 MB."""
        config = SimConfig(methods=("fab", "dta", "pivot_z", "pivot_t", "eb"), n_list=(19,),
                           replications=50_000, seed=3)
        report, peak = traced_peak(lambda: experiment(config))
        assert len(report.rows) >= 5
        assert peak <= 12e6


_BLOCK_GRID = SimConfig(methods=("fab", "dta", "pivot_z", "pivot_t", "eb"), n_list=(3, 40),
                        theta_grid=(0.0, 1.0), tau2_list=(0.5, math.inf), replications=50, seed=4)


class TestReportSerialization:
    def test_fixed_header_and_inf_tokens(self, tmp_path):
        config = SimConfig(methods=("fab",), n_list=(3,), alpha=0.1,
                           theta_grid=(0.0,), tau2_list=(0.5,), replications=50, seed=11)
        rep = expected_width(config)
        assert [r.method for r in rep.rows] == ["fab"]  # no fab/dta row without dta
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
        rep = bounds_profile(SimConfig(replications=100, seed=12))
        out = tmp_path / "bounds.csv"
        rep.to_csv(str(out))
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
        with pytest.raises(ValueError, match="tau2 values must be positive"):
            SimConfig(tau2_list=(0.5, math.nan))
        with pytest.raises(ValueError):
            SimConfig(methods=("fab", "bootstrap"))
        with pytest.raises(ValueError):
            SimConfig(population="levy")
        # Philox key words are 64 bits: 2**64 would share seed 0's stream, -1 seed 2**64 - 1's.
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\)"):
                SimConfig(seed=seed)
        # A float seed replayed its integer part's stream; a float size failed inside numpy.
        for name, value, message in [("seed", 1.5, "seed"), ("seed", math.nan, "seed"),
                                     ("replications", 2.5, "replications"),
                                     ("n_list", (3, 2.5), "n_list entry")]:
            with pytest.raises(ValueError, match=f"^{message} must be an integer, got "):
                SimConfig(**{name: value})

    def test_sample_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            SimConfig(n_list=(3, 0))

    @pytest.mark.parametrize("tau2", [1e-320, 5e-324, 5e-309])
    def test_tau2_with_overflowing_precision_rejected(self, monkeypatch, tau2):
        """These ran the tau2 = 0.5 cells, then failed on 'precision ... got inf'."""
        draws = []
        monkeypatch.setattr("fabcp.simulate._cell_uniforms", lambda *args: draws.append(args))
        message = f"^tau2 must be large enough that 1/tau2 is finite, got {tau2!r}$"
        with pytest.raises(ValueError, match=message):
            expected_width(SimConfig(tau2_list=(0.5, tau2), replications=50))
        with pytest.raises(ValueError, match=message):
            bayes_risk_ratio((3,), (0.5, tau2), 0.25, 50, 1)
        assert draws == []

    def test_overflowing_prior_term_rejected(self, monkeypatch):
        """This ran the tau2 = 0.5 cell, then failed in fab._reflect, naming neither argument."""
        draws = []
        monkeypatch.setattr("fabcp.simulate._cell_uniforms", lambda *args: draws.append(args))
        message = r"^mu = 1e\+300 and tau2_list entry 1e-10 overflow the prior term$"
        with pytest.raises(ValueError, match=message):
            bayes_risk_ratio((3,), (0.5, 1e-10), 0.25, 50, 1, mu=1e300)
        assert draws == []

    def test_tau2_just_above_the_overflow_edge_accepted(self):
        tau2 = 5.6e-309
        assert math.isfinite(1.0 / tau2)
        assert SimConfig(tau2_list=(tau2, math.inf)).tau2_list == (tau2, math.inf)

    @pytest.mark.parametrize("name, value, message", [
        ("mu", math.nan, "mu must be finite"),
        ("mu", -math.inf, "mu must be finite"),
        ("theta_grid", (0.0, math.nan), "theta_grid values must be finite"),
        ("theta_grid", (math.inf,), "theta_grid values must be finite"),
    ])
    def test_non_finite_mu_or_theta_rejected(self, name, value, message):
        """A NaN mu gave every FAB width as infinite; an infinite theta gave NaN rows."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize("name", ["methods", "n_list", "theta_grid", "tau2_list"])
    def test_empty_list_rejected(self, name):
        """An empty list used to give a header-only report."""
        with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
            SimConfig(**{name: ()})


class TestSweepArguments:
    """``bayes_risk_ratio`` follows SimConfig's rules before any draw."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        monkeypatch.setattr("fabcp.simulate._cell_uniforms",
                            lambda *args: calls.append(args) or _cell_uniforms(*args))
        return calls

    @pytest.mark.parametrize("name, value, message", [
        ("alpha", 1.5, "alpha must lie in"),
        ("replications", 0, "replications must be at least 1"),
        ("tau2", 0.0, "tau2 values must be positive"),
        ("tau2", -1.0, "tau2 values must be positive"),
        ("n", 0, "sample size must be at least 1"),
        ("n_list", (), "n_list must not be empty"),
        ("tau2_grid", (), "tau2_list must not be empty"),
        ("mu", math.nan, "mu must be finite"),
        ("tau2", math.inf, "tau2 values must be finite"),
        ("seed", -1, "seed must lie in"),
        ("seed", 2**64, "seed must lie in"),
    ])
    def test_bayes_risk_ratio(self, draws, name, value, message):
        args = dict(n_list=(3,), tau2_grid=(0.5,), alpha=0.25, replications=50, seed=1)
        lists = {"n": "n_list", "tau2": "tau2_grid"}  # scalar rules apply to each list entry
        args[lists.get(name, name)] = (value,) if name in lists else value
        with pytest.raises(ValueError, match=message):
            bayes_risk_ratio(**args)
        assert draws == []


class TestLargeSampleSizes:
    """Sample sizes whose replications take more than 32 draws."""

    def test_every_experiment_runs_at_n_40(self):
        assert expected_width(SimConfig(n_list=(40,), replications=8)).rows
        assert coverage_experiment(SimConfig(n_list=(40,), replications=8)).rows
        assert bayes_risk_ratio((40,), (0.5,), 0.25, 8, 0).rows
        assert bounds_profile(SimConfig(n_list=(40,), replications=8)).rows

    def test_conformal_coverage_exact_at_n_40(self):
        n, alpha, reps = 40, 0.25, 20_000
        config = SimConfig(methods=("fab", "dta"), n_list=(n,), alpha=alpha,
                           replications=reps, seed=13)
        level = 1.0 - math.floor(alpha * (n + 1)) / (n + 1)
        sigma = math.sqrt(level * (1.0 - level) / reps)
        rep = coverage_experiment(config)
        for method in ("fab", "dta"):
            assert abs(rep.find(method, n=n).coverage - level) <= 4 * sigma


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
