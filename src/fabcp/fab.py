"""Exact FAB conformal prediction interval under the normal working model.

Scoring candidates by the posterior predictive density makes every
per-observation acceptance region an interval ``[min(y_i, g(y_i)),
max(y_i, g(y_i))]``, where ``g`` is an affine reflection whose fixed point
is the posterior mean estimator ``theta_tilde``. The conformal region is
then determined by order statistics of the pooled endpoint candidates
``{y_i} U {g(y_i)}``: with ``k = floor(alpha*(n+1))`` the interval runs
from the k-th to the (2n-k+1)-th order statistic. The whole construction
is O(n log n) and does not depend on the inverse-gamma hyperparameters
(a, b), which cancel from every score comparison.

A diffuse prior is expressed by the explicit ``precision = 0`` entry point
rather than an infinite ``tau2``, which keeps the arithmetic free of
floating-point infinities; with zero precision the reflection reduces
exactly to the distance-to-average one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .intervals import PredictionInterval
from .working_model import WorkingModelParams, _as_sample

__all__ = [
    "SubRegion",
    "g_map",
    "fab_interval",
    "fab_interval_from_precision",
    "reflect_bounds",
    "sub_regions",
]


@dataclass(frozen=True)
class SubRegion:
    """Acceptance region contributed by one observation.

    The set of candidates scoring at least as well as observation ``i``;
    always an interval containing the posterior mean estimator.
    """

    index: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("sub-region bounds out of order")


def _reflect(y_i: float | np.ndarray, s_prior: float | np.ndarray, c: float) -> float | np.ndarray:
    """Reflection of ``y_i`` with fixed point ``s_prior / (c - 1)``, elementwise.

    ``s_prior`` is the precision-weighted prior mean plus the sample sum
    and ``c = precision + n + 1``.
    """
    return (2.0 * s_prior - c * y_i) / (c - 2.0)


def reflect_bounds(
    samples: np.ndarray, sums: float | np.ndarray, mu: float, precision: float, k: int
) -> np.ndarray:
    """Order-statistic bounds of the pooled reflection candidates, one row per sample.

    Parameters
    ----------
    samples : ndarray, shape (rows, n)
        One sample per row.
    sums : float or ndarray, shape (rows, 1)
        The row sums of ``samples``, as the caller computes them.
    mu, precision : float
        Prior mean and prior precision ``1/tau2``; ``precision = 0`` is
        the diffuse prior (the distance-to-average reflection) and needs
        ``n >= 2``.
    k : int
        Rank cutoff ``floor(alpha*(n+1))``.

    Returns
    -------
    ndarray, shape (rows, 2)
        The k-th and (2n-k+1)-th order statistics of ``{y_i} U {g(y_i)}``
        per row; ``-inf``/``+inf`` rows when ``k = 0``.
    """
    rows, n = samples.shape
    if precision == 0.0 and n < 2:
        raise ValueError("the diffuse prior requires n >= 2")
    if k == 0:
        # Every candidate's own score already satisfies <=, so the region
        # with k = 0 accepts the whole real line.
        return np.full((rows, 2), (-np.inf, np.inf))
    c = precision + (n + 1.0)
    v = np.concatenate([samples, _reflect(samples, mu * precision + sums, c)], axis=1)
    v.sort(axis=1)
    return v[:, [k - 1, 2 * n - k]]


def g_map(y_i: float, sample_sum: float, n: int, mu: float, tau2: float) -> float:
    """Reflection of ``y_i`` about the posterior mean estimator.

    Parameters
    ----------
    y_i : float
        Observation to reflect.
    sample_sum : float
        Sum of the full sample (including ``y_i``).
    n : int
        Sample size, at least 1.
    mu, tau2 : float
        Prior mean and variance ratio; ``tau2 > 0``.

    Notes
    -----
    The reflection solves the score tie between ``y_i`` and a candidate
    under the augmented-sample predictive density. Its denominator
    ``precision + n - 1`` is positive for every ``tau2 > 0``, ``n >= 1``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tau2 <= 0.0:
        raise ValueError(f"tau2 must be positive, got {tau2}")
    precision = 1.0 / tau2
    c = precision + (n + 1.0)
    assert c > 2.0, "reflection denominator must be positive"
    return _reflect(y_i, mu * precision + sample_sum, c)


def fab_interval_from_precision(
    sample: Sequence[float] | np.ndarray,
    mu: float,
    precision: float,
    alpha: float,
) -> PredictionInterval:
    """Exact FAB interval parameterized by the prior precision ``1/tau2``.

    ``precision = 0`` gives the diffuse prior (``mu`` is then irrelevant)
    and requires ``n >= 2``; any positive precision works from ``n = 1``.
    """
    y = _as_sample(sample)
    n = y.size
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if precision < 0.0 or not math.isfinite(precision):
        raise ValueError(f"precision must be finite and nonnegative, got {precision}")
    k = int(math.floor(alpha * (n + 1)))
    lower, upper = reflect_bounds(y[None, :], math.fsum(y), mu, precision, k)[0]
    return PredictionInterval(float(lower), float(upper), alpha, 1.0 - k / (n + 1), k=k)


def fab_interval(
    sample: Sequence[float] | np.ndarray,
    params: WorkingModelParams,
    alpha: float,
) -> PredictionInterval:
    """Exact FAB conformal interval for a sample under a normal working model.

    Builds the pooled endpoint candidates ``{y_i} U {g(y_i)}``, sorts them,
    and returns the k-th and (2n-k+1)-th order statistics with
    ``k = floor(alpha*(n+1))``; ``k = 0`` yields the whole real line. The
    result contains the posterior mean estimator and is unchanged by the
    inverse-gamma hyperparameters (a, b).
    """
    return fab_interval_from_precision(sample, params.mu, 1.0 / params.tau2, alpha)


def sub_regions(sample: Sequence[float] | np.ndarray, params: WorkingModelParams) -> list[SubRegion]:
    """Per-observation acceptance intervals ``[min(y_i, g(y_i)), max(y_i, g(y_i))]``."""
    y = _as_sample(sample)
    precision = 1.0 / params.tau2
    g = _reflect(y, params.mu * precision + math.fsum(y), precision + (y.size + 1.0))
    lo, hi = np.minimum(y, g).tolist(), np.maximum(y, g).tolist()
    return [SubRegion(index=i, lo=lo[i], hi=hi[i]) for i in range(y.size)]
