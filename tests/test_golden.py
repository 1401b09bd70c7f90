"""Golden digests of seeded outputs whose bits depend on how samples are summed.

Every sample sum and every reported mean or variance is the correctly
rounded sum, bit-equal to ``math.fsum``. These SHA-256 digests were taken
with ``math.fsum`` itself doing the summing; a change of summation order or
rounding anywhere on these paths moves them. The inputs straddle the
summation kernel's size cutoff and its block size. The small-area digest
pins every field of the leave-one-area-out pipeline's records, fallbacks
included, and the (a, b) digest every leave-one-out variance fit, taken
when each was its own scipy Nelder-Mead search.
"""

import hashlib

import numpy as np
import pytest

from fabcp.baselines import dta_interval
from fabcp.fab import fab_interval_from_precision
from fabcp.small_area import AreaTable, EstimationError, _loo_ab_fits, area_pipeline, generate_table
from fabcp.simulate import (
    SimConfig,
    bayes_risk_ratio,
    bounds_profile,
    coverage_experiment,
    expected_width,
)
from fabcp.working_model import WorkingModelParams, posterior_mean_theta

_METHODS = ("fab", "dta", "pivot_z", "pivot_t", "eb")


def _csv_digest(report, tmp_path, include_endpoints=False) -> str:
    path = tmp_path / "report.csv"
    report.to_csv(str(path), include_endpoints=include_endpoints)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config(**kw) -> SimConfig:
    base = dict(methods=_METHODS, n_list=(3, 8, 20), alpha=0.25, theta_grid=(0.0, 1.5),
                tau2_list=(0.5, 2.0), replications=1500, seed=41)
    return SimConfig(**{**base, **kw})


SIM_DIGESTS = {
    "expected_width": "90dd3f4f981748c86eb36c0779497918e1e1cb4f649aa9bdfdaf05d575bc9a99",
    "coverage_normal": "41fdde9312801770e5cac3cb2a4b9cedca7effc2b96969130912785f6e91807e",
    "coverage_mixture": "722af5cca724866d93e1ae91524fdb39f0e0efb0502c6859062b6f68d308a9c6",
    "bayes_risk": "d30ba36c0f48595767a746d4563b3a9db218b9b9234b2fc003173096d81b0aef",
    "bounds_profile": "bf5603c2d2710902da4a0e4cddfa82ecc61b1418bae7f448d804b76554a206f9",
}


def _sim_report(name: str):
    if name == "expected_width":
        return expected_width(_config())
    if name == "coverage_normal":
        return coverage_experiment(_config(seed=42))
    if name == "coverage_mixture":
        return coverage_experiment(_config(seed=43, population="mixture"))
    if name == "bayes_risk":
        return bayes_risk_ratio((3, 11), (0.25, 4.0), 0.25, 1500, 44, mu=0.5)
    # 40 000 replications: the endpoint means span two summation blocks.
    return bounds_profile((-1.0, 0.0, 2.5), 4, 0.3, 0.7, 0.2, 40_000, 45)


@pytest.mark.parametrize("name", sorted(SIM_DIGESTS))
def test_simulation_report_bytes(name, tmp_path):
    got = _csv_digest(_sim_report(name), tmp_path, include_endpoints=name == "bounds_profile")
    assert got == SIM_DIGESTS[name], got


# Sample sizes on both sides of the kernel's cutoff (1024) and block (2**15).
_SIZES = (2, 7, 40, 1023, 1024, 1025, 3000, 2**15, 2**15 + 1, 10**5)
INTERVAL_DIGEST = "65cbf3ab0371e75c9ccebf3a0e11b31bd293e7ac83137d0b586a846aa590e7bb"


def _interval_outputs() -> list[str]:
    rng = np.random.default_rng(2024)
    out = []
    for n in _SIZES:
        y = 3.0 * rng.normal() + np.exp(rng.normal()) * rng.normal(size=n)
        for mu, precision in ((0.4, 0.8), (-2.0, 25.0), (0.0, 0.0)):
            for alpha in (0.05, 0.25):
                iv = fab_interval_from_precision(y, mu, precision, alpha)
                out += [iv.lower.hex(), iv.upper.hex()]
            if precision > 0.0:
                theta = posterior_mean_theta(y, WorkingModelParams(mu, 1.0 / precision, 1.0, 1.0))
                out.append(theta.hex())
        iv = dta_interval(y, 0.1)
        out += [iv.lower.hex(), iv.upper.hex()]
    return out


def test_interval_bits():
    got = hashlib.sha256("\n".join(_interval_outputs()).encode()).hexdigest()
    assert got == INTERVAL_DIGEST, got


PIPELINE_DIGEST = "1ed8bda0a0c775c089b17f9eb1e5ff394167b36d90736f3842cc15fdfb0c861a"


def _criterion_11_table(J: int, seed: int) -> AreaTable:
    rng = np.random.default_rng(seed)
    table, _ = generate_table(J=J, n_range=(3, 10), beta=[1.0, 1.0], eta2=0.5, rho=0.7,
                              a=6.0, b=4.0, rng=rng, extent=8.0)
    return table


def _pipeline_tables() -> list[AreaTable]:
    # J = 50, seed 3: squaring one area's deviations with numpy instead of
    # Python floats moves its sum of squares by an ulp, and FAB records with it.
    seed3 = _criterion_11_table(50, 3)
    small = _criterion_11_table(12, 4)
    # Areas with a single observation: skipped, but still in every other fit.
    singles = AreaTable(ids=small.ids, X=small.X, centroids=small.centroids,
                        samples=[s[:1] if j in (2, 5, 9) else s for j, s in enumerate(small.samples)])
    # A rank-deficient covariate matrix: every mean-model fit fails.
    rank_deficient = AreaTable(ids=small.ids, samples=small.samples, centroids=small.centroids,
                               X=np.column_stack([np.ones(small.J), 2.0 * np.ones(small.J)]))
    # One centroid far from the rest: the weights reject the map.
    far = small.centroids.copy()
    far[7] += 1e4
    isolated = AreaTable(ids=small.ids, samples=small.samples, X=small.X, centroids=far)
    return [seed3, singles, rank_deficient, isolated]


def _record_fields(rec) -> list[str]:
    iv = rec.interval
    return [rec.area_id, str(rec.n), rec.alpha_j.hex(), rec.method, iv.lower.hex(),
            iv.upper.hex(), iv.nominal_alpha.hex(), iv.achieved_level.hex(), str(iv.k),
            rec.mu_j.hex(), rec.tau2_j.hex(), str(rec.fallback)]


def test_pipeline_bits():
    fields = [
        field
        for table in _pipeline_tables()
        for rec in area_pipeline(table, "exact", ("fab", "dta"))
        for field in _record_fields(rec)
    ]
    got = hashlib.sha256("\n".join(fields).encode()).hexdigest()
    assert got == PIPELINE_DIGEST, got


AB_FIT_DIGEST = "20de028b630d22e394a8f8afd181412a61b735c14646926ef7a224283cf76476"


def _ab_fit_tables() -> list[AreaTable]:
    tables = [_criterion_11_table(50, seed) for seed in range(4)]
    t = _criterion_11_table(30, 5)
    tables.append(AreaTable(ids=t.ids, X=t.X, centroids=t.centroids,
                            samples=[s[:1] if j % 4 == 1 else s for j, s in enumerate(t.samples)]))
    # A flat map: area007 (and area022 at beta = [1, 0.5]) spend all 4000 evaluations.
    for beta in ([1.0, 1.0], [1.0, 0.5]):
        table, _ = generate_table(J=40, n_range=(3, 10), beta=beta, eta2=1e-8, rho=0.0, a=6.0,
                                  b=4.0, rng=np.random.default_rng(902), extent=6.0)
        tables.append(table)
    return tables


def test_ab_fit_bits():
    """(a-hat, b-hat, converged) of every leave-one-out variance fit, best points of failures included."""
    fields = []
    for table in _ab_fit_tables():
        fits = _loo_ab_fits(table)
        for j in np.flatnonzero(table.n >= 2).tolist():
            fit = fits[j]
            converged = not isinstance(fit, EstimationError)
            a, b = fit if converged else fit.best_point
            fields += [table.ids[j], a.hex(), b.hex(), str(converged)]
    got = hashlib.sha256("\n".join(fields).encode()).hexdigest()
    assert len(fields) == 4 * 302
    assert got == AB_FIT_DIGEST, got
