"""Golden digests of seeded outputs whose bits depend on how samples are summed.

Every sample sum and every reported mean or variance is the correctly
rounded sum, bit-equal to ``math.fsum``. These SHA-256 digests were taken
with ``math.fsum`` itself doing the summing; a change of summation order or
rounding anywhere on these paths moves them. The inputs straddle the
summation kernel's size cutoff and its block size.
"""

import hashlib

import numpy as np
import pytest

from fabcp.baselines import dta_interval
from fabcp.fab import fab_interval_from_precision
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
