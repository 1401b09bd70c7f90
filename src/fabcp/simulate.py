"""Seeded Monte Carlo harness for coverage and expected-width experiments.

Stream layout: each cell draws from one counter-based Philox stream keyed
by ``(seed, cell index)``. A replication that takes ``m`` uniforms owns a
block of ``32 * ceil(m / 32)`` draws, the stride, at offset ``rep * stride``,
so the blocks of a cell are disjoint at any sample size. A cell runs its
replications ``_BLOCK_REPS`` at a time: for each such run it moves the
stream to the run's first replication, draws the run's ``reps x stride``
uniforms in one call and uses the first ``m`` of each row, so the draws do
not depend on where the runs split; :func:`replication_stream` replays one
row on its own. Normals come from the inverse CDF, one uniform per draw.
A seed must lie in ``[0, 2**64)``, the width of a Philox key word, so no
two seeds share a stream.

Each experiment is a list of cells and a draw rule; cell i draws from
stream ``(seed, i)``. Cells run n first, then tau2, then theta. A cell
depends on nothing but the config and its index, so the cells are dealt
over the CPUs of the process's affinity mask (``fabcp._fork.deal``), and
a report does not depend on how many ran it. ``bayes_risk_ratio`` has
(n, tau2) cells and draws ``theta ~ N(mu, tau2)``, so it rejects an
infinite tau2, which the other experiments take as the diffuse prior.
The ``fab/dta`` row is NaN when a width is infinite or the mean DTA width
is zero.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from . import _fork
from ._sum import fsum
from .baselines import eb_bounds, pivot_bounds
from .fab import reflect_bounds
from .intervals import _fmt

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

_U_LO = 2.0**-53
_U_HI = 1.0 - 2.0**-53

# Replications a cell runs at once. A block's uniforms take 1 MB when a replication
# takes at most 32, and its draws and (reps, 2n) pool 1.9 MB at n = 19. Each block
# also pays the row kernels' fixed cost (10-30 us per method), so on mc_sweep blocks
# of 1024 and 2048 ran slower than one block per cell, and blocks of 4096 faster.
_BLOCK_REPS = 4096


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

    def __post_init__(self) -> None:
        for name in ("methods", "n_list", "theta_grid", "tau2_list"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        # A float seed would replay the stream of its integer part.
        integers = [("seed", self.seed), ("replications", self.replications)]
        for name, value in integers + [("n_list entry", n) for n in self.n_list]:
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if any(n < 1 for n in self.n_list):
            raise ValueError(f"every sample size must be at least 1, got n_list={self.n_list}")
        if any(not t > 0.0 for t in self.tau2_list):
            raise ValueError("all tau2 values must be positive")
        # The FAB prior precision is 1/tau2 (0 at tau2 = inf), which must not overflow.
        for t in self.tau2_list:
            if 1.0 / t == math.inf:
                raise ValueError(f"tau2 must be large enough that 1/tau2 is finite, got {t!r}")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        # The prior terms the kernels check: 2 * mu * precision in fab, mu / tau2 in eb.
        for t in self.tau2_list:
            if ("fab" in self.methods and not math.isfinite(2.0 * self.mu * (1.0 / t))
                    or "eb" in self.methods and not math.isfinite(self.mu / t)):
                raise ValueError(f"mu = {self.mu!r} and tau2_list entry {t!r} overflow the prior term")
        if not all(math.isfinite(t) for t in self.theta_grid):
            raise ValueError("theta_grid values must be finite")
        unknown = set(self.methods) - set(_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; choose from {_METHODS}")
        if self.population not in ("normal", "mixture"):
            raise ValueError(f"population must be 'normal' or 'mixture', got {self.population!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class SimRow:
    """One method at one cell; a statistic left NaN was not measured."""

    method: str
    n: int
    theta_minus_mu: float
    tau2: float
    seed: int
    mean_width: float = math.nan
    width_se: float = math.nan
    coverage: float = math.nan
    coverage_se: float = math.nan
    inf_width_count: int = 0
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

    def to_csv(self, path: str) -> None:
        """Write the fixed-schema CSV, with the mean endpoint columns when the rows carry them."""
        endpoints = any(not math.isnan(r.mean_lower) for r in self.rows)
        header = _CSV_HEADER + (",mean_lower,mean_upper" if endpoints else "")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            csv.writer(fh, lineterminator="\n").writerows(
                (r.method, r.n, _fmt(r.theta_minus_mu), _fmt(r.tau2), _fmt(r.mean_width),
                 _fmt(r.width_se), _fmt(r.coverage), _fmt(r.coverage_se), r.inf_width_count, r.seed)
                + ((_fmt(r.mean_lower), _fmt(r.mean_upper)) if endpoints else ())
                for r in self.rows
            )

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
    return np.array([seed, cell], dtype=np.uint64)


def _stride(m: int) -> int:
    """Draws reserved per replication that takes ``m``: ``m`` rounded up to 32s.

    32 is a multiple of the Philox output block (4 draws), so every
    replication's block starts on a fresh counter.
    """
    return 32 * -(-m // 32)


def _philox_at(seed: int, cell: int, rep: int, m: int) -> Philox:
    """The cell's Philox stream, moved to the block of replication ``rep``."""
    bg = Philox(key=_philox_key(seed, cell))
    bg.advance(rep * (_stride(m) // 4))
    return bg


def replication_stream(seed: int, cell: int, rep: int, m: int) -> Generator:
    """The stream of one replication of a cell whose replications take ``m`` draws."""
    return Generator(_philox_at(seed, cell, rep, m))


def _cell_uniforms(seed: int, cell: int, reps: int, m: int, first: int = 0) -> np.ndarray:
    """First ``m`` uniforms of replication streams ``first`` to ``first + reps - 1``, vectorized."""
    stride = _stride(m)
    buf = Generator(_philox_at(seed, cell, first, m)).random(reps * stride)
    return buf.reshape(reps, stride)[:, :m]


def _normals(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms ``u``: one new contiguous array, ``u`` left as it is."""
    # In place over the clipped copy; ndtri over the strided uniforms in place costs more.
    z = np.clip(u, _U_LO, _U_HI)
    return ndtri(z, out=z)


def sample_population(pop: str, theta: float, n: int, rng: Generator) -> np.ndarray:
    """Draw ``n`` values from the test population.

    ``"normal"`` is iid N(theta, 1); ``"mixture"`` places each value at
    ``theta - 1`` or ``theta + 1`` with probability one half each (mean
    theta, variance 1, but no density).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _transform(pop, theta, rng.random(n))


def _transform(pop: str, theta: float, u: np.ndarray) -> np.ndarray:
    """Population draws at location ``theta`` from uniforms ``u``, elementwise."""
    if pop == "normal":
        z = _normals(u)
        z += theta
        return z
    if pop == "mixture":
        return np.where(u < 0.5, theta - 1.0, theta + 1.0)
    raise ValueError(f"unknown population {pop!r}")


# -- batched interval bounds -----------------------------------------------------


def _method_bounds(
    method: str,
    samples: np.ndarray,
    alpha: float,
    mu: float,
    tau2: float,
) -> np.ndarray:
    """Per-replication (lower, upper); rows of +-inf when k = 0.

    Both populations have variance 1, which the known-variance pivot and
    EB intervals use.
    """
    n = samples.shape[1]
    k = int(math.floor(alpha * (n + 1)))
    if method in ("fab", "dta"):
        prior = (mu, 1.0 / tau2) if method == "fab" else (0.0, 0.0)
        return reflect_bounds(samples, samples.sum(axis=1, keepdims=True), *prior, k)
    if method == "pivot_z":
        return pivot_bounds(samples, alpha, 1.0)
    if method == "pivot_t":
        return pivot_bounds(samples, alpha, None)
    if method == "eb":
        return eb_bounds(samples, alpha, mu, tau2, 1.0)
    raise ValueError(f"unknown method {method!r}")


# -- aggregation -----------------------------------------------------------------


def _fmean(x: np.ndarray) -> float:
    return fsum(x) / x.size


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
    var = fsum((w - mean) ** 2) / (w.size - 1)
    return mean, math.sqrt(var / w.size), n_inf


def _coverage_stats(hit: np.ndarray) -> tuple[float, float]:
    p = float(np.count_nonzero(hit)) / hit.size
    return p, math.sqrt(p * (1.0 - p) / hit.size)


def _ratio_stats(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Ratio of mean widths with a delta-method standard error (paired).

    NaN when a width is infinite or the denominator's mean width is zero.
    """
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        return math.nan, math.nan
    r_n, r_d = _fmean(num), _fmean(den)
    if r_d == 0.0:
        return math.nan, math.nan
    ratio = r_n / r_d
    m = num.size
    resid = num - ratio * den
    var = fsum((resid - _fmean(resid)) ** 2) / (m - 1) if m > 1 else math.nan
    return ratio, math.sqrt(var / m) / r_d


# -- experiments -----------------------------------------------------------------


def _sweep(
    config: SimConfig,
    cells: Sequence[tuple[int, float, float]],
    extra: int,
    draw,
    *,
    ratio: bool = False,
    endpoints: bool = False,
) -> SimReport:
    """One row per method at each (n, tau2, theta) cell, then the fab/dta row if ``ratio``.

    Cell i takes ``n + extra`` uniforms per replication from stream
    ``(seed, i)``; ``draw(config, u, tau2, theta)`` turns them into one row
    of draws per replication. A draw past the first n is the next
    observation, and the rows then carry coverage. ``endpoints`` adds the
    mean interval endpoints. A cell runs ``_BLOCK_REPS`` replications at a
    time and keeps only what its statistics read: each replication's width
    per method, 8 bytes, plus its coverage hit and, under ``endpoints``,
    both endpoints; the statistics are taken once, over every replication,
    so a report does not depend on the block size. The cells are dealt
    over the CPUs of the process's affinity mask
    (:func:`fabcp._fork.deal`) and their rows put back in cell order, so
    the report does not depend on how many CPUs ran it. A cell that
    raises stops the sweep with the error of the first such cell in cell
    order.
    """
    def cell_rows(cell: int) -> list[SimRow]:
        n, tau2, theta = cells[cell]
        reps = config.replications
        widths = {method: np.empty(reps) for method in config.methods}
        hits: dict[str, np.ndarray] = {}
        ends = {method: np.empty((reps, 2)) for method in config.methods} if endpoints else {}
        for first in range(0, reps, _BLOCK_REPS):
            block = slice(first, min(first + _BLOCK_REPS, reps))
            u = _cell_uniforms(config.seed, cell, block.stop - first, n + extra, first)
            draws = draw(config, u, tau2, theta)
            samples, y_next = draws[:, :n], (draws[:, n] if draws.shape[1] > n else None)
            for method in config.methods:
                bounds = _method_bounds(method, samples, config.alpha, config.mu, tau2)
                lower, upper = bounds.T
                np.subtract(upper, lower, out=widths[method][block])
                if y_next is not None:
                    if method not in hits:
                        hits[method] = np.empty(reps, dtype=bool)
                    hits[method][block] = (lower <= y_next) & (y_next <= upper)
                if endpoints:
                    ends[method][block] = bounds
        base = SimRow(method="", n=n, theta_minus_mu=theta - config.mu, tau2=tau2, seed=config.seed)
        rows = []
        for method in config.methods:
            mean, se, n_inf = _width_stats(widths[method])
            stats = dict(mean_width=mean, width_se=se, inf_width_count=n_inf)
            if method in hits:
                stats["coverage"], stats["coverage_se"] = _coverage_stats(hits[method])
            if endpoints:
                lower, upper = ends[method].T
                stats["mean_lower"], stats["mean_upper"] = _fmean(lower), _fmean(upper)
            rows.append(replace(base, method=method, **stats))
        if ratio and "fab" in widths and "dta" in widths:
            r, se = _ratio_stats(widths["fab"], widths["dta"])
            rows.append(replace(base, method="fab/dta", mean_width=r, width_se=se))
        return rows

    def share_rows(share: list[int]) -> dict[int, list[SimRow] | Exception]:
        results: dict[int, list[SimRow] | Exception] = {}
        for cell in share:
            try:
                results[cell] = cell_rows(cell)
            except Exception as error:
                results[cell] = error
                break  # the share's later cells come after this one in cell order
        return results

    results = _fork.deal(share_rows, list(range(len(cells))))
    rows: list[SimRow] = []
    for cell in range(len(cells)):
        if isinstance(results[cell], Exception):
            raise results[cell]
        rows.extend(map(_math_nan, results[cell]))
    return SimReport(rows=tuple(rows))


def _math_nan(row: SimRow) -> SimRow:
    """``row`` with every NaN field set to the object ``math.nan``.

    Rows sent back by a forked child hold NaNs unpickled as new objects,
    and dataclass ``==`` compares fields as tuples do, where a NaN equals
    only itself; so without this, reports equal in every bit would compare
    unequal depending on which process ran a cell.
    """
    nans = {f.name: math.nan for f in fields(row) if getattr(row, f.name) != getattr(row, f.name)}
    return replace(row, **nans) if nans else row


def _grid(config: SimConfig) -> list[tuple[int, float, float]]:
    return [(n, t2, th) for n in config.n_list for t2 in config.tau2_list for th in config.theta_grid]


def _population_draws(config: SimConfig, u: np.ndarray, tau2: float, theta: float) -> np.ndarray:
    return _transform(config.population, theta, u)


def _linked_draws(config: SimConfig, u: np.ndarray, tau2: float, theta: float) -> np.ndarray:
    """theta ~ N(mu, tau2) per replication, in place of the cell's, then y | theta ~ N(theta, 1)."""
    drawn = config.mu + math.sqrt(tau2) * _normals(u[:, 0])
    y = _normals(u[:, 1:])
    y += drawn[:, None]
    return y


def expected_width(config: SimConfig) -> SimReport:
    """Monte Carlo expected interval widths over (n, tau2, theta) cells.

    Cells where ``floor(alpha*(n+1)) = 0`` produce infinite-width rows with
    ``inf_width_count = R`` rather than being dropped. When both conformal
    methods run, a ``fab/dta`` ratio row carries the paired width ratio and
    its delta-method standard error.
    """
    return _sweep(config, _grid(config), 0, _population_draws, ratio=True)


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
    depend on mu. The arguments follow :class:`SimConfig`'s rules, and
    every tau2 must also be finite.
    """
    config = SimConfig(methods=("fab", "dta"), n_list=tuple(n_list), alpha=alpha, mu=mu,
                       tau2_list=tuple(tau2_grid), replications=replications, seed=seed)
    if not all(math.isfinite(t) for t in config.tau2_list):
        raise ValueError("tau2 values must be finite to draw theta ~ N(mu, tau2)")
    cells = [(n, t2, math.nan) for n in config.n_list for t2 in config.tau2_list]
    return _sweep(config, cells, 1, _linked_draws, ratio=True)


def coverage_experiment(config: SimConfig) -> SimReport:
    """Empirical coverage of each method, next observation from the same population."""
    return _sweep(config, _grid(config), 1, _population_draws)


def bounds_profile(config: SimConfig) -> SimReport:
    """Monte Carlo mean interval endpoints of each method over (n, tau2, theta) cells."""
    return _sweep(config, _grid(config), 0, _population_draws, endpoints=True)
