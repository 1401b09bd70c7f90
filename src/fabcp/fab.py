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

The pool is the only array of size n the kernel makes: one ``(rows, 2n)``
buffer holding the samples in its first half, with the reflections
written into its second half and sorted in place.

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

from ._sum import fsum
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


def _reflect(
    y: float | np.ndarray, sums: float | np.ndarray, n: int, mu: float, precision: float,
    out: np.ndarray | None = None,
):
    """Reflection of ``y`` about ``(mu * precision + sums) / (precision + n)``, elementwise.

    The only code that builds it and checks its prior, by rules NaN fails: ``mu`` finite,
    ``precision`` finite and >= 0, ``2 * mu * precision`` finite, and ``c - 2 > 0`` for
    ``c = precision + n + 1`` (the diffuse prior needs ``n >= 2``; at ``n = 1``,
    ``precision + 2`` must not round to 2).

    A float ``y`` gives a float. An array ``y`` gives its reflection in ``out`` when
    given, or else in a new array.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not 0.0 <= precision < math.inf:
        raise ValueError(f"precision must be finite and nonnegative, got {precision}")
    if not math.isfinite(2.0 * mu * precision):
        raise ValueError(f"the prior term 2 * mu * precision overflows: mu = {mu}, precision = {precision}")
    c = precision + (n + 1.0)
    if not c - 2.0 > 0.0:
        raise ValueError("the diffuse prior requires n >= 2, and n = 1 needs 1/tau2 + 2 > 2; "
                         f"got n = {n}, precision = {precision}")
    # (A - c * y) / (c - 2) for A = 2 * (mu * precision + sums), in place and bit for bit: negation
    # is exact, and A + (-x) is A - x. At n = 1, c - 2 is precision, which c - 2.0 would round.
    r = (-c) * y if out is None else np.multiply(y, -c, out)
    r += 2.0 * (mu * precision + sums)
    r /= c - 2.0 if n > 1 else precision
    return r


def reflect_bounds(
    samples: np.ndarray, sums: float | np.ndarray, mu: float, precision: float, k: int
) -> np.ndarray:
    """Order-statistic bounds of the pooled reflection candidates, one row per sample.

    Parameters
    ----------
    samples : float64 ndarray, shape (rows, n)
        One sample per row.
    sums : float or float64 ndarray, shape (rows, 1)
        The row sums of ``samples``, as the caller computes them.
    mu, precision : float
        Prior mean and prior precision ``1/tau2`` (0: the diffuse, distance-to-average
        reflection), checked at ``k = 0`` too by the rules of ``_reflect``: ``mu``
        finite, ``precision`` finite and >= 0, ``2 * mu * precision`` finite,
        ``precision + n - 1 > 0``.
    k : int
        Rank cutoff ``floor(alpha*(n+1))``, in ``[0, n]``.

    Returns
    -------
    float64 ndarray, shape (rows, 2)
        The k-th and (2n-k+1)-th order statistics of ``{y_i} U {g(y_i)}``
        per row; ``-inf``/``+inf`` rows when ``k = 0``. A new array, not a
        view: it holds ``2 * rows`` values, not the sorted ``(rows, 2n)`` pool.

    Notes
    -----
    The pool is one float64 ``(rows, 2n)`` buffer: the samples are copied
    into its first half, their reflections written into its second half, and
    it is sorted in place. It holds the values of ``concatenate([samples, g])``
    in that order, so the sort gives the same bits, signed zeros included.
    Its size is the call's peak beyond the inputs: twice the samples' bytes.
    """
    rows, n = samples.shape
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, n] = [0, {n}], got {k}")
    if k == 0:
        # Every candidate's own score already satisfies <=, so the region with
        # k = 0 accepts the whole real line; reflecting a scalar checks the prior.
        _reflect(0.0, 0.0, n, mu, precision)
        return np.full((rows, 2), (-np.inf, np.inf))
    v = np.empty((rows, 2 * n))
    v[:, :n] = samples
    _reflect(samples, sums, n, mu, precision, out=v[:, n:])
    v.sort(axis=1)
    # Columns k-1 and 2n-k by one strided slice, which costs less than a fancy index;
    # the copy lets the pool go, where the simulator would otherwise keep it alive.
    return v[:, k - 1:2 * n - k + 1:2 * (n - k) + 1].copy()


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
        Prior mean and variance ratio; ``mu`` finite and ``tau2 > 0``.

    Notes
    -----
    The reflection solves the score tie between ``y_i`` and a candidate
    under the augmented-sample predictive density. Its denominator
    ``precision + n - 1`` is positive for every ``tau2 > 0`` at ``n >= 2``;
    at ``n = 1`` a ``tau2`` so large that ``1/tau2 + 2`` rounds to 2 raises.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not tau2 > 0.0:
        raise ValueError(f"tau2 must be positive, got {tau2}")
    return _reflect(y_i, sample_sum, n, mu, 1.0 / tau2)


def fab_interval_from_precision(
    sample: Sequence[float] | np.ndarray,
    mu: float,
    precision: float,
    alpha: float,
) -> PredictionInterval:
    """Exact FAB interval parameterized by the prior precision ``1/tau2``.

    ``precision = 0`` gives the diffuse prior (``mu`` is then irrelevant but
    finite) and requires ``n >= 2``; ``reflect_bounds`` checks the prior. With
    ``k >= 1``, an endpoint that overflows the double range raises ``ValueError``.
    """
    y = _as_sample(sample)
    n = y.size
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    k = math.floor(alpha * (n + 1))
    lower, upper = reflect_bounds(y[None, :], fsum(y), mu, precision, k).tolist()[0]
    if k and not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"the interval endpoints overflow: mu = {mu}, precision = {precision}, "
                         f"largest |y| = {float(np.max(np.abs(y)))}")
    return PredictionInterval(lower, upper, alpha, 1.0 - k / (n + 1), k=k)


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
    g = _reflect(y, fsum(y), y.size, params.mu, 1.0 / params.tau2)
    lo, hi = np.minimum(y, g).tolist(), np.maximum(y, g).tolist()
    return [SubRegion(index=i, lo=lo[i], hi=hi[i]) for i in range(y.size)]
