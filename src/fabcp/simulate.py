"""Seeded Monte Carlo harness for coverage and expected-width experiments.

Reproducibility contract: every replication draws from its own
counter-based stream, keyed by ``(seed, cell index)`` with the replication
index mapped to a disjoint Philox counter block. Serial and parallel
execution therefore produce bit-identical reports, and the vectorized
per-cell fast path consumes exactly the same uniforms as the
per-replication streams (normals come from the inverse CDF, one uniform
per draw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .baselines import eb_bounds, pivot_bounds
from .fab import reflect_bounds

__all__ = [
    "SimConfig",
    "SimRow",
    "SimReport",
    "replication_stream",
    "sample_population",
    "expected_width",
    "bayes_risk_ratio",
    "coverage_experiment",
    "bounds_profile",
]

_METHODS = ("fab", "dta", "pivot_z", "pivot_t", "eb")

# uint64 draws reserved per replication; must be a multiple of the Philox
# output block (4) so batch buffers align with per-replication streams.
STRIDE = 32
_MASK64 = (1 << 64) - 1
_U_LO = 2.0**-53
_U_HI = 1.0 - 2.0**-53


@dataclass(frozen=True)
class SimConfig:
    """Configuration of a Monte Carlo sweep."""

    methods: tuple[str, ...] = ("fab", "dta")
    n_list: tuple[int, ...] = (3,)
    alpha: float = 0.25
    theta_grid: tuple[float, ...] = (0.0,)
    mu: float = 0.0
    tau2_list: tuple[float, ...] = (0.5,)
    replications: int = 25_000
    seed: int = 0
    population: str = "normal"
    sigma2_known: float = 1.0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if any(n < 1 for n in self.n_list):
            raise ValueError(f"every sample size must be at least 1, got n_list={self.n_list}")
        if any(t <= 0.0 for t in self.tau2_list):
            raise ValueError("all tau2 values must be positive")
        unknown = set(self.methods) - set(_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; choose from {_METHODS}")
        if self.population not in ("normal", "mixture"):
            raise ValueError(f"population must be 'normal' or 'mixture', got {self.population!r}")
        if self.sigma2_known <= 0.0:
            raise ValueError("sigma2_known must be positive")


@dataclass(frozen=True)
class SimRow:
    method: str
    n: int
    theta_minus_mu: float
    tau2: float
    mean_width: float
    width_se: float
    coverage: float
    coverage_se: float
    inf_width_count: int
    seed: int
    mean_lower: float = math.nan
    mean_upper: float = math.nan


_CSV_HEADER = (
    "method,n,theta_minus_mu,tau2,mean_width,width_se,"
    "coverage,coverage_se,inf_width_count,seed"
)


@dataclass(frozen=True)
class SimReport:
    """Tabular Monte Carlo output, one row per (method, cell)."""

    rows: tuple[SimRow, ...]

    def to_csv(self, path: str, include_endpoints: bool = False) -> None:
        """Write the fixed-schema CSV (optionally with mean endpoint columns)."""
        def fmt(x: float) -> str:
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return f"{x:.17g}"

        header = _CSV_HEADER + (",mean_lower,mean_upper" if include_endpoints else "")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for r in self.rows:
                cells = [
                    r.method, str(r.n), fmt(r.theta_minus_mu), fmt(r.tau2),
                    fmt(r.mean_width), fmt(r.width_se), fmt(r.coverage),
                    fmt(r.coverage_se), str(r.inf_width_count), str(r.seed),
                ]
                if include_endpoints:
                    cells += [fmt(r.mean_lower), fmt(r.mean_upper)]
                fh.write(",".join(cells) + "\n")

    def find(self, method: str, **keys: float) -> SimRow:
        """The unique row matching a method and cell coordinates."""
        hits = [
            r for r in self.rows
            if r.method == method
            and all(
                (math.isnan(v) and math.isnan(getattr(r, k))) or getattr(r, k) == v
                for k, v in keys.items()
            )
        ]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} rows match method={method!r}, {keys}")
        return hits[0]


# -- replication streams --------------------------------------------------------


def _philox_key(seed: int, cell: int) -> np.ndarray:
    return np.array([seed & _MASK64, cell & _MASK64], dtype=np.uint64)


def replication_stream(seed: int, cell: int, rep: int) -> Generator:
    """The counter-based stream of one replication of one cell."""
    bg = Philox(key=_philox_key(seed, cell))
    bg.advance(rep * (STRIDE // 4))
    return Generator(bg)


def _cell_uniforms(seed: int, cell: int, reps: int, m: int) -> np.ndarray:
    """First ``m`` uniforms of every replication stream of a cell, vectorized."""
    if m > STRIDE:
        raise ValueError(f"a replication stream holds at most {STRIDE} draws, requested {m}")
    buf = Generator(Philox(key=_philox_key(seed, cell))).random(reps * STRIDE)
    return buf.reshape(reps, STRIDE)[:, :m]


def _normals(u: np.ndarray) -> np.ndarray:
    return ndtri(np.clip(u, _U_LO, _U_HI))


def sample_population(pop: str, theta: float, n: int, rng: Generator) -> np.ndarray:
    """Draw ``n`` values from the test population.

    ``"normal"`` is iid N(theta, 1); ``"mixture"`` places each value at
    ``theta - 1`` or ``theta + 1`` with probability one half each (mean
    theta, variance 1, but no density).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    u = rng.random(n)
    if pop == "normal":
        return theta + _normals(u)
    if pop == "mixture":
        return np.where(u < 0.5, theta - 1.0, theta + 1.0)
    raise ValueError(f"unknown population {pop!r}")


def _transform(pop: str, theta: float | np.ndarray, u: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    loc = theta[:, None] if theta.ndim == 1 else theta
    if pop == "normal":
        return loc + _normals(u)
    return np.where(u < 0.5, loc - 1.0, loc + 1.0)


# -- batched interval bounds -----------------------------------------------------


def _fab_bounds(samples: np.ndarray, mu: float, tau2: float, k: int) -> np.ndarray:
    return reflect_bounds(samples, samples.sum(axis=1, keepdims=True), mu, 1.0 / tau2, k)


def _dta_bounds(samples: np.ndarray, k: int) -> np.ndarray:
    return reflect_bounds(samples, samples.sum(axis=1, keepdims=True), 0.0, 0.0, k)


def _method_bounds(
    method: str,
    samples: np.ndarray,
    alpha: float,
    mu: float,
    tau2: float,
    sigma2_known: float,
) -> np.ndarray:
    """Per-replication (lower, upper); rows of +-inf when k = 0."""
    n = samples.shape[1]
    k = int(math.floor(alpha * (n + 1)))
    if method == "fab":
        return _fab_bounds(samples, mu, tau2, k)
    if method == "dta":
        return _dta_bounds(samples, k)
    if method == "pivot_z":
        return pivot_bounds(samples, alpha, sigma2_known)
    if method == "pivot_t":
        return pivot_bounds(samples, alpha, None)
    if method == "eb":
        return eb_bounds(samples, alpha, mu, tau2, sigma2_known)
    raise ValueError(f"unknown method {method!r}")


# -- aggregation -----------------------------------------------------------------


def _fmean(x: np.ndarray) -> float:
    return math.fsum(x) / x.size


def _width_stats(widths: np.ndarray) -> tuple[float, float, int]:
    """(mean width over finite replications, its standard error, #infinite)."""
    finite = np.isfinite(widths)
    n_inf = int(widths.size - np.count_nonzero(finite))
    w = widths[finite]
    if w.size == 0:
        return math.inf, math.nan, n_inf
    mean = _fmean(w)
    if w.size == 1:
        return mean, math.nan, n_inf
    var = math.fsum((w - mean) ** 2) / (w.size - 1)
    return mean, math.sqrt(var / w.size), n_inf


def _coverage_stats(hit: np.ndarray) -> tuple[float, float]:
    p = float(np.count_nonzero(hit)) / hit.size
    return p, math.sqrt(p * (1.0 - p) / hit.size)


def _ratio_stats(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Ratio of mean widths with a delta-method standard error (paired)."""
    r_n, r_d = _fmean(num), _fmean(den)
    ratio = r_n / r_d
    m = num.size
    resid = num - ratio * den
    var = math.fsum((resid - _fmean(resid)) ** 2) / (m - 1) if m > 1 else math.nan
    return ratio, math.sqrt(var / m) / r_d


# -- experiments -----------------------------------------------------------------


def _width_rows(
    samples: np.ndarray,
    methods: Sequence[str],
    alpha: float,
    mu: float,
    tau2: float,
    sigma2_known: float,
    base: SimRow,
) -> list[SimRow]:
    """Width rows per method plus a fab/dta ratio row when both are present."""
    widths: dict[str, np.ndarray] = {}
    rows = []
    for method in methods:
        bounds = _method_bounds(method, samples, alpha, mu, tau2, sigma2_known)
        w = bounds[:, 1] - bounds[:, 0]
        widths[method] = w
        mean, se, n_inf = _width_stats(w)
        rows.append(replace(base, method=method, mean_width=mean, width_se=se, inf_width_count=n_inf))
    if "fab" in widths and "dta" in widths:
        w_f, w_d = widths["fab"], widths["dta"]
        if np.all(np.isfinite(w_f)) and np.all(np.isfinite(w_d)):
            ratio, se = _ratio_stats(w_f, w_d)
        else:
            ratio, se = math.nan, math.nan
        rows.append(replace(base, method="fab/dta", mean_width=ratio, width_se=se))
    return rows


_BLANK = dict(mean_width=math.nan, width_se=math.nan, coverage=math.nan,
              coverage_se=math.nan, inf_width_count=0)


def expected_width(config: SimConfig) -> SimReport:
    """Monte Carlo expected interval widths over (n, tau2, theta) cells.

    Cells where ``floor(alpha*(n+1)) = 0`` produce infinite-width rows with
    ``inf_width_count = R`` rather than being dropped. When both conformal
    methods run, a ``fab/dta`` ratio row carries the paired width ratio and
    its delta-method standard error.
    """
    rows: list[SimRow] = []
    cells = [(n, t2, th) for n in config.n_list for t2 in config.tau2_list for th in config.theta_grid]
    for cell, (n, tau2, theta) in enumerate(cells):
        u = _cell_uniforms(config.seed, cell, config.replications, n)
        samples = _transform(config.population, np.full(config.replications, theta), u)
        base = SimRow(method="", n=n, theta_minus_mu=theta - config.mu, tau2=tau2,
                      seed=config.seed, **_BLANK)
        rows.extend(
            _width_rows(samples, config.methods, config.alpha, config.mu, tau2,
                        config.sigma2_known, base)
        )
    return SimReport(rows=tuple(rows))


def bayes_risk_ratio(
    n_list: Sequence[int],
    tau2_grid: Sequence[float],
    alpha: float,
    replications: int,
    seed: int,
    mu: float = 0.0,
) -> SimReport:
    """FAB/DTA expected-width ratio under the linking prior.

    Each replication draws ``theta ~ N(mu, tau2)`` and then the sample
    ``y | theta ~ N(theta, 1)``; the FAB interval uses the same (mu, tau2)
    as its working-model prior. The resulting Bayes risk ratio does not
    depend on mu.
    """
    rows: list[SimRow] = []
    cells = [(n, t2) for n in n_list for t2 in tau2_grid]
    for cell, (n, tau2) in enumerate(cells):
        u = _cell_uniforms(seed, cell, replications, n + 1)
        theta = mu + math.sqrt(tau2) * _normals(u[:, 0])
        samples = theta[:, None] + _normals(u[:, 1:])
        base = SimRow(method="", n=n, theta_minus_mu=math.nan, tau2=tau2, seed=seed, **_BLANK)
        rows.extend(_width_rows(samples, ("fab", "dta"), alpha, mu, tau2, 1.0, base))
    return SimReport(rows=tuple(rows))


def coverage_experiment(config: SimConfig) -> SimReport:
    """Empirical coverage of each method, next observation from the same population."""
    rows: list[SimRow] = []
    cells = [(n, t2, th) for n in config.n_list for t2 in config.tau2_list for th in config.theta_grid]
    for cell, (n, tau2, theta) in enumerate(cells):
        u = _cell_uniforms(config.seed, cell, config.replications, n + 1)
        draws = _transform(config.population, np.full(config.replications, theta), u)
        samples, y_next = draws[:, :n], draws[:, n]
        base = SimRow(method="", n=n, theta_minus_mu=theta - config.mu, tau2=tau2,
                      seed=config.seed, **_BLANK)
        for method in config.methods:
            bounds = _method_bounds(method, samples, config.alpha, config.mu, tau2,
                                    config.sigma2_known)
            hit = (bounds[:, 0] <= y_next) & (y_next <= bounds[:, 1])
            cov, cov_se = _coverage_stats(hit)
            mean, se, n_inf = _width_stats(bounds[:, 1] - bounds[:, 0])
            rows.append(replace(base, method=method, mean_width=mean, width_se=se,
                                coverage=cov, coverage_se=cov_se, inf_width_count=n_inf))
    return SimReport(rows=tuple(rows))


def bounds_profile(
    theta_grid: Sequence[float],
    n: int,
    mu: float,
    tau2: float,
    alpha: float,
    replications: int,
    seed: int,
) -> SimReport:
    """Monte Carlo mean interval endpoints of FAB and DTA across theta."""
    rows: list[SimRow] = []
    for cell, theta in enumerate(theta_grid):
        u = _cell_uniforms(seed, cell, replications, n)
        samples = _transform("normal", np.full(replications, theta), u)
        base = SimRow(method="", n=n, theta_minus_mu=theta - mu, tau2=tau2, seed=seed, **_BLANK)
        for method in ("fab", "dta"):
            bounds = _method_bounds(method, samples, alpha, mu, tau2, 1.0)
            mean, se, n_inf = _width_stats(bounds[:, 1] - bounds[:, 0])
            rows.append(replace(base, method=method, mean_width=mean, width_se=se,
                                inf_width_count=n_inf,
                                mean_lower=_fmean(bounds[:, 0]),
                                mean_upper=_fmean(bounds[:, 1])))
    return SimReport(rows=tuple(rows))
