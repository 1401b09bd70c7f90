"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``[acceptance] criterion N: PASS/FAIL`` line (visible
with ``pytest -s``). Monte Carlo criteria use pinned seeds chosen from
pilot runs so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

import fabcp
from fabcp.conformal import FABMeasure, default_grid, grid_region
from fabcp.fab import reflect_bounds
from fabcp.simulate import SimConfig
from fabcp.small_area import (
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
)
from fabcp.working_model import WorkingModelParams, posterior_mean_theta


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def oracle_instances():
    """Random instances shared by the oracle-equivalence criteria."""
    rng = np.random.default_rng(20_206)
    instances = []
    start = time.time()
    for _ in range(240):
        n = int(rng.integers(2, 9))
        y = rng.normal(size=n) * float(rng.uniform(0.5, 2.0))
        params = WorkingModelParams(
            mu=float(rng.uniform(-3, 3)),
            tau2=float(rng.choice([0.1, 0.5, 2.0, 10.0])),
            a=float(rng.uniform(0.5, 5)),
            b=float(rng.uniform(0.5, 5)),
        )
        alpha = float(rng.choice([0.2, 0.25, 0.5]))
        grid = default_grid(y, num=4001, anchors=(params.mu,))
        aug = grid_region(y, FABMeasure(params, augmented=True), alpha, grid)
        plain = grid_region(y, FABMeasure(params, augmented=False), alpha, grid)
        interval = fabcp.fab_interval(y, params, alpha)
        instances.append(
            dict(y=y, params=params, alpha=alpha, grid=grid, aug=aug, plain=plain,
                 interval=interval)
        )
    return instances, time.time() - start


def test_criterion_01_exact_interval_matches_grid_oracle(oracle_instances):
    instances, elapsed = oracle_instances
    checked = 0
    worst = 0.0
    for inst in instances:
        iv, grid, region = inst["interval"], inst["grid"], inst["aug"]
        if iv.k == 0:
            assert region.accepted.all()
            continue
        assert len(region.intervals) == 1
        lo, hi = region.intervals[0]
        worst = max(worst, abs(lo - iv.lower), abs(hi - iv.upper))
        assert abs(lo - iv.lower) <= grid.resolution + 1e-12
        assert abs(hi - iv.upper) <= grid.resolution + 1e-12
        checked += 1
    ok = checked >= 200 and elapsed < 60.0
    report(1, "grid-oracle equivalence", ok,
           f"{checked} bounded instances, worst endpoint gap {worst:.2e}, "
           f"grids built in {elapsed:.1f}s")


def test_criterion_02_equivalent_conformity_forms(oracle_instances):
    instances, _ = oracle_instances
    for inst in instances:
        np.testing.assert_array_equal(inst["aug"].accepted, inst["plain"].accepted)
    report(2, "equivalent conformity measures", True,
           f"identical acceptance masks on {len(instances)} instances")


def test_criterion_03_posterior_mean_containment(oracle_instances):
    instances, _ = oracle_instances
    violations = 0
    checked = 0
    for inst in instances:
        iv = inst["interval"]
        if iv.k == 0:
            continue
        checked += 1
        theta = posterior_mean_theta(inst["y"], inst["params"])
        violations += not (iv.lower <= theta <= iv.upper)
    report(3, "shrinkage-estimator containment", violations == 0,
           f"{violations} violations over {checked} bounded instances")


def test_criterion_04_exact_coverage_and_distribution_free_validity():
    reps = 100_000
    bound = 3.0 * math.sqrt(0.75 * 0.25 / reps)
    start = time.time()
    details = []
    ok = True
    for population, seed in (("normal", 41), ("mixture", 42)):
        config = SimConfig(methods=("fab", "dta"), n_list=(3,), alpha=0.25,
                           theta_grid=(0.0, 1.0, 3.0), mu=0.0, tau2_list=(0.5,),
                           replications=reps, seed=seed, population=population)
        rep = fabcp.coverage_experiment(config)
        for row in rep.rows:
            if population == "normal":
                # continuous scores: coverage is exactly 1 - k/(n+1)
                ok &= abs(row.coverage - 0.75) <= bound
            else:
                # atoms allow ties, which only push coverage up
                ok &= row.coverage >= 0.75 - bound
            details.append(f"{population[:3]}/{row.method}@{row.theta_minus_mu:+.0f}={row.coverage:.4f}")
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    report(4, "exact coverage / validity", ok, f"{'; '.join(details)} [{elapsed:.0f}s]")


def test_criterion_05_width_ratio_anchor():
    config = SimConfig(methods=("fab", "dta"), n_list=(3,), alpha=0.25,
                       theta_grid=(0.0,), mu=0.0, tau2_list=(0.5,),
                       replications=25_000, seed=20_260_810)
    row = fabcp.expected_width(config).find("fab/dta", n=3, tau2=0.5, theta_minus_mu=0.0)
    ok = 0.804 <= row.mean_width <= 0.844
    report(5, "width-ratio anchor", ok,
           f"ratio {row.mean_width:.4f} (se {row.width_se:.4f}) in [0.804, 0.844]")


def test_criterion_06_bayes_risk_dominance():
    n_list = (3, 7, 11, 15, 19)
    tau2_grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    rep0 = fabcp.bayes_risk_ratio(n_list, tau2_grid, 0.25, 25_000, seed=2034, mu=0.0)
    rep1 = fabcp.bayes_risk_ratio(n_list, tau2_grid, 0.25, 25_000, seed=2534, mu=1.5)
    worst_margin = math.inf
    worst_z = 0.0
    ok = True
    for n in n_list:
        for tau2 in tau2_grid:
            r0 = rep0.find("fab/dta", n=n, tau2=tau2)
            r1 = rep1.find("fab/dta", n=n, tau2=tau2)
            for r in (r0, r1):
                margin = 1.0 - (r.mean_width + 3.0 * r.width_se)
                worst_margin = min(worst_margin, margin)
                ok &= margin > 0.0
            z = abs(r0.mean_width - r1.mean_width) / math.hypot(r0.width_se, r1.width_se)
            worst_z = max(worst_z, z)
            ok &= z <= 3.0
    report(6, "Bayes risk dominance", ok,
           f"worst 3-sigma margin below 1: {worst_margin:.2e}; "
           f"largest location-shift discrepancy {worst_z:.2f} sigma")


def test_criterion_07_eb_coverage_declines():
    reps = 100_000
    config = SimConfig(methods=("eb",), n_list=(3,), alpha=0.25,
                       theta_grid=(0.0, 1.0, 2.0, 3.0), mu=0.0, tau2_list=(0.5,),
                       replications=reps, seed=47)
    rep = fabcp.coverage_experiment(config)
    rows = [rep.find("eb", theta_minus_mu=t) for t in (0.0, 1.0, 2.0, 3.0)]
    ok = rows[0].coverage > 0.75
    for prev, cur in zip(rows, rows[1:]):
        gap = prev.coverage - cur.coverage
        ok &= gap >= 3.0 * math.hypot(prev.coverage_se, cur.coverage_se)
    report(7, "parametric EB coverage decline", ok,
           "coverage " + " > ".join(f"{r.coverage:.4f}" for r in rows))


def test_criterion_08_pivot_fails_under_mixture():
    reps = 100_000
    found = None
    for alpha in (0.1, 0.2, 0.25, 0.3, 0.4, 0.5):
        config = SimConfig(methods=("pivot_z",), n_list=(3,), alpha=alpha,
                           theta_grid=(0.0,), mu=0.0, tau2_list=(0.5,),
                           replications=reps, seed=53, population="mixture")
        row = fabcp.coverage_experiment(config).rows[0]
        deficit = (1.0 - alpha) - row.coverage
        if deficit - 3.0 * row.coverage_se >= 0.05:
            found = (alpha, row.coverage, deficit)
            break
    report(8, "pivot undercoverage on two-point mixture", found is not None,
           f"alpha={found[0]}: coverage {found[1]:.4f}, deficit {found[2]:.3f}" if found
           else "no alpha produced a 0.05 deficit")


def test_criterion_09_diffuse_identity_and_ab_independence():
    rng = np.random.default_rng(59)
    exact = 0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        y = rng.normal(size=n) * float(rng.uniform(0.5, 3.0))
        alpha = float(rng.uniform(0.05, 0.9))
        fab = fabcp.fab_interval_from_precision(y, float(rng.normal()), 0.0, alpha)
        dta = fabcp.dta_interval(y, alpha)
        exact += (fab.lower, fab.upper) == (dta.lower, dta.upper)

        mu, tau2 = float(rng.normal()), float(rng.uniform(0.1, 5.0))
        base = fabcp.fab_interval(y, WorkingModelParams(mu, tau2, 1.0, 1.0), 0.25)
        pert = fabcp.fab_interval(
            y, WorkingModelParams(mu, tau2, float(rng.uniform(0.1, 9)), float(rng.uniform(0.1, 9))),
            0.25,
        )
        exact += (base.lower, base.upper) == (pert.lower, pert.upper)
    report(9, "diffuse identity and (a,b) independence", exact == 2000,
           f"{exact}/2000 bit-identical comparisons")


def test_criterion_10_conditional_math():
    W2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    G2 = sar_covariance(0.5, W2)
    hand = np.array([[20.0, 16.0], [16.0, 20.0]]) / 9.0
    sar_ok = bool(np.max(np.abs(G2 - hand)) <= 1e-12)

    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(100):
        J = int(rng.integers(3, 13))
        W = sq_exp_weights(rng.uniform(0, 3, size=(J, 2)))
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
        mu_j = float(X[j] @ beta) - var_j * float(P[j, rest] @ (theta_rest - X[rest] @ beta))
        worst = max(
            worst,
            abs(got.mu_j - mu_j) / max(1.0, abs(mu_j)),
            abs(got.tau2_j - var_j / sigma2_j) / (var_j / sigma2_j),
        )
    ok = sar_ok and worst <= 1e-8
    report(10, "conditional-distribution math", ok,
           f"2x2 hand case to 1e-12: {sar_ok}; worst conditioning error {worst:.2e}")


@pytest.mark.slow
def test_criterion_11_pipeline_width_and_coverage():
    start = time.time()
    fractions = []
    for s in range(200):
        rng = np.random.default_rng(7000 + s)
        table, _ = generate_table(J=50, n_range=(3, 10), beta=[1.0, 1.0],
                                  eta2=0.5, rho=0.7, a=6.0, b=4.0, rng=rng, extent=8.0)
        records = area_pipeline(table, "exact", methods=("fab", "dta"))
        fab = {r.area_id: r for r in records if r.method == "fab"}
        dta = {r.area_id: r for r in records if r.method == "dta"}
        fractions.append(
            float(np.mean([fab[k].interval.width < dta[k].interval.width for k in fab]))
        )
    mean_fraction = float(np.mean(fractions))
    width_ok = mean_fraction > 0.55

    # conditional per-area coverage at the exact-coverage rule
    rng = np.random.default_rng(32)
    table, truth = generate_table(J=10, n_range=(3, 10), beta=[1.0, 1.0],
                                  eta2=0.5, rho=0.7, a=6.0, b=4.0, rng=rng, extent=8.0)
    theta, sigma2 = np.array(truth["theta"]), np.array(truth["sigma2"])
    reps = 20_000
    worst_z = 0.0
    for j in range(table.J):
        params = loo_conformal_params(table, j)
        n_j = int(table.n[j])
        alpha_j = exact_alpha(n_j)
        k = int(math.floor(alpha_j * (n_j + 1)))
        rng_j = np.random.default_rng(320_000 + j)
        draws = theta[j] + math.sqrt(sigma2[j]) * rng_j.normal(size=(reps, n_j + 1))
        samples = draws[:, :n_j]
        bounds = reflect_bounds(samples, samples.sum(axis=1, keepdims=True),
                                params.mu_j, 1.0 / params.tau2_j, k)
        hit = (bounds[:, 0] <= draws[:, n_j]) & (draws[:, n_j] <= bounds[:, 1])
        level = 1.0 - alpha_j
        z = abs(float(hit.mean()) - level) / math.sqrt(level * alpha_j / reps)
        worst_z = max(worst_z, z)
    coverage_ok = worst_z <= 3.0
    report(11, "pipeline width advantage and coverage", width_ok and coverage_ok,
           f"FAB narrower in {mean_fraction:.1%} of areas over 200 datasets; "
           f"worst per-area coverage deviation {worst_z:.2f} sigma "
           f"[{time.time() - start:.0f}s]")


def test_criterion_12_estimation_sanity():
    start = time.time()
    checks = []

    # hyperparameter recovery at 15%
    rng = np.random.default_rng(60)
    sigma2 = (2.0 / 2.0) / rng.gamma(4.0 / 2.0, 1.0, size=500)
    s2 = sigma2 * rng.chisquare(19, size=500)
    n = np.full(s2.size, 20)
    a_hat, b_hat = estimate_ab(s2, n)
    checks.append(("ab recovery", abs(a_hat - 4.0) / 4.0 <= 0.15 and abs(b_hat - 2.0) / 2.0 <= 0.15))

    # optimizer beats a 50x50 grid over (log a, log b) in [-3, 3]^2
    best_grid = max(
        ab_marginal_loglik(math.exp(la), math.exp(lb), s2, n)
        for la in np.linspace(-3, 3, 50)
        for lb in np.linspace(-3, 3, 50)
    )
    checks.append(("grid optimality", ab_marginal_loglik(a_hat, b_hat, s2, n) >= best_grid - 1e-9))

    # scale family at 5%
    a_scaled, b_scaled = estimate_ab(3.7 * s2, n)
    checks.append(("scale family",
                   abs(a_scaled - a_hat) / a_hat <= 0.05
                   and abs(b_scaled - 3.7 * b_hat) / (3.7 * b_hat) <= 0.05))

    # variance tracking
    sigma2_hat, _ = eb_variances(a_hat, b_hat, s2, n)
    checks.append(("variance correlation", float(np.corrcoef(sigma2_hat, sigma2)[0, 1]) > 0.8))

    # degenerate heterogeneity
    rng = np.random.default_rng(42)
    table0, _ = generate_table(J=100, n_range=(10, 20), beta=[1.0, 0.5],
                               eta2=1e-12, rho=0.0, a=6.0, b=4.0, rng=rng, extent=10.0)
    ah, bh = estimate_ab(table0.s2, table0.n)
    sh, _ = eb_variances(ah, bh, table0.s2, table0.n)
    fit0 = fit_mean_model(table0.ybar, sh / table0.n, table0.X, sq_exp_weights(table0.centroids))
    checks.append(("eta2 degenerate", fit0.eta2 < 0.05))

    # spatial correlation recovery at rho = 0
    rng = np.random.default_rng(503)
    table1, truth1 = generate_table(J=200, n_range=(10, 30), beta=[1.0, 0.5],
                                    eta2=1.0, rho=0.0, a=6.0, b=4.0, rng=rng, extent=12.0)
    ah, bh = estimate_ab(table1.s2, table1.n)
    sh, _ = eb_variances(ah, bh, table1.s2, table1.n)
    W1 = sq_exp_weights(table1.centroids)
    fit1 = fit_mean_model(table1.ybar, sh / table1.n, table1.X, W1)
    checks.append(("rho recovery", abs(fit1.rho) <= 0.2))

    # maximum-likelihood optimality against the generating parameters
    ll_fit = mean_model_loglik(table1.ybar, sh / table1.n, table1.X, W1,
                               fit1.beta, fit1.eta2, fit1.rho)
    ll_true = mean_model_loglik(table1.ybar, sh / table1.n, table1.X, W1,
                                np.array(truth1["beta"]), 1.0, 0.0)
    checks.append(("ml optimality", ll_fit >= ll_true - 1e-6))

    elapsed = time.time() - start
    ok = all(flag for _, flag in checks) and elapsed < 600.0
    report(12, "estimation sanity", ok,
           ", ".join(f"{name}:{'ok' if flag else 'FAIL'}" for name, flag in checks)
           + f" [{elapsed:.0f}s]")
