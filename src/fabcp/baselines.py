"""Comparator interval methods: DTA conformal, classical pivot, and EB.

The distance-to-average (DTA) conformal interval is the information-free
baseline: it scores a candidate by its distance to the mean of the
augmented sample and needs no hyperparameters. The pivot and
empirical-Bayes intervals are the classical parametric alternatives; both
come in a known-variance z variant and an estimated-variance t variant.

``pivot_interval(sample, alpha, sigma2=None)`` and ``eb_interval(sample,
alpha, mu, tau2, sigma2=None)`` are one-row calls of the row kernels
``pivot_bounds`` and ``eb_bounds``, which the simulator calls too. The
kernels check the parameters, and NaN fails every check.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import betainc

from .fab import _reflect, fab_interval_from_precision
from .intervals import PredictionInterval
from .working_model import _as_sample

__all__ = [
    "normal_quantile",
    "student_t_quantile",
    "dta_g",
    "dta_interval",
    "pivot_bounds",
    "eb_bounds",
    "pivot_interval",
    "eb_interval",
]


# -- quantile routines --------------------------------------------------------

# Rational approximation for the inverse standard normal CDF (relative error
# below 1.2e-9 everywhere), refined by one Newton step against the
# erfc-based CDF, which brings the error to within a few ulp.
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
           1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
           6.680131188771972e+01, -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
           -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
           3.754408661907416e+00)
_ICDF_PLOW = 0.02425


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, accurate to well under 1e-10 absolute.

    Raises ``ValueError`` for p outside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        # Work in the lower tail, where the CDF residual used by the
        # Newton refinement keeps full relative precision (1 - p is exact
        # for p in [0.5, 1]).
        return -normal_quantile(1.0 - p)
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if p < _ICDF_PLOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    # One Newton step against the high-accuracy CDF.
    err = _norm_cdf(x) - p
    x -= err / _norm_pdf(x)
    return x


def _t_cdf(x: float, df: float) -> float:
    """Student-t CDF via the regularized incomplete beta function."""
    if x == 0.0:
        return 0.5
    z = df / (df + x * x)
    # A Python float: the Newton step may divide it by an underflowed density.
    tail = 0.5 * float(betainc(df / 2.0, 0.5, z))
    return tail if x < 0.0 else 1.0 - tail


def _t_pdf(x: float, df: float) -> float:
    return math.exp(
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1.0) / 2.0) * math.log1p(x * x / df)
    )


def student_t_quantile(p: float, df: float) -> float:
    """Inverse Student-t CDF by safeguarded Newton on the incomplete beta.

    Parameters
    ----------
    p : float
        Probability in (0, 1).
    df : float
        Degrees of freedom, at least 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if df < 1.0:
        raise ValueError(f"df must be at least 1, got {df}")
    if p == 0.5:
        return 0.0
    # Work in the lower tail and restore the sign at the end.
    q = min(p, 1.0 - p)

    # Cornish-Fisher start from the normal quantile; bracket below by a
    # bound exceeding the Cauchy quantile, the heaviest tail at df >= 1.
    z = normal_quantile(q)
    x = z + (z**3 + z) / (4.0 * df)
    lo = -(8.0 / (math.pi * q) + 100.0)
    hi = 0.0
    x = max(x, 0.5 * lo)
    for _ in range(200):
        f = _t_cdf(x, df) - q
        if f > 0.0:
            hi = x
        else:
            lo = x
        dfd = _t_pdf(x, df)
        x_new = x - f / dfd if dfd > 0.0 else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-14 * (1.0 + abs(x_new)):
            x = x_new
            break
        x = x_new
    return -x if p > 0.5 else x


# -- DTA conformal ------------------------------------------------------------


def dta_g(y_i: float, sample_sum: float, n: int) -> float:
    """Second root of the augmented-mean distance tie ``|y_i - m| = |x - m|``.

    With ``m`` the mean of the sample augmented by the candidate ``x``,
    the candidates tying observation ``i``'s distance score are ``y_i``
    itself and ``(2*S - (n+1)*y_i) / (n-1)``, where ``S`` is the sum of
    the observed sample; this is the zero-precision FAB reflection (``n >= 2``).
    """
    return _reflect(y_i, sample_sum, n, 0.0, 0.0)


def dta_interval(sample: Sequence[float] | np.ndarray, alpha: float) -> PredictionInterval:
    """Exact distance-to-average conformal interval.

    The endpoints are the k-th and (2n-k+1)-th order statistics of the
    pooled values ``{y_i} U {dta_g(y_i)}`` with ``k = floor(alpha*(n+1))``;
    ``k = 0`` yields the whole real line. This is the FAB interval with
    zero prior precision, computed by the same kernel; it needs ``n >= 2``.
    """
    return fab_interval_from_precision(sample, 0.0, 0.0, alpha)


# -- parametric intervals -----------------------------------------------------


def _variance_and_quantile(
    samples: np.ndarray, alpha: float, sigma2: float | None
) -> tuple[np.ndarray, float]:
    """Per-row variance and two-sided quantile: known ``sigma2`` with z, or s^2 with t."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = samples.shape[1]
    if sigma2 is not None:
        if not 0.0 < sigma2 < math.inf:
            raise ValueError(f"known sigma2 must be positive and finite, got {sigma2}")
        return np.full(samples.shape[0], sigma2), normal_quantile(1.0 - alpha / 2.0)
    if n < 2:
        raise ValueError("estimated-variance mode requires n >= 2")
    return samples.var(axis=1, ddof=1), student_t_quantile(1.0 - alpha / 2.0, n - 1)


def pivot_bounds(samples: np.ndarray, alpha: float, sigma2: float | None) -> np.ndarray:
    """Pivot bounds ``ybar +/- q * sqrt(s2 * (1 + 1/n))`` for each row of ``samples``.

    Returns an array of shape (rows, 2). ``sigma2=None`` estimates the
    variance per row and needs ``n >= 2``.
    """
    n = samples.shape[1]
    s2, q = _variance_and_quantile(samples, alpha, sigma2)
    ybar = samples.mean(axis=1)
    half = q * np.sqrt(s2 * (1.0 + 1.0 / n))
    return np.column_stack([ybar - half, ybar + half])


def eb_bounds(
    samples: np.ndarray, alpha: float, mu: float, tau2: float, sigma2: float | None
) -> np.ndarray:
    """Empirical-Bayes bounds for each row of ``samples``, shape (rows, 2).

    ``tau2 = inf`` is the diffuse prior, which gives the pivot bounds; ``mu / tau2``
    must be finite. A row with zero estimated variance gets ``[ybar, ybar]``, the
    s2 -> 0 limit.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not tau2 > 0.0:
        raise ValueError(f"tau2 must be positive, got {tau2}")
    if not math.isfinite(mu / tau2):
        raise ValueError(f"the prior term mu / tau2 overflows: mu = {mu}, tau2 = {tau2}")
    n = samples.shape[1]
    s2, q = _variance_and_quantile(samples, alpha, sigma2)
    ybar = samples.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = 1.0 / tau2 + n / s2
        center = np.where(s2 == 0.0, ybar, (mu / tau2 + ybar * n / s2) / prec)
    half = q * np.sqrt(1.0 / prec + s2)
    return np.column_stack([center - half, center + half])


def pivot_interval(
    sample: Sequence[float] | np.ndarray, alpha: float, sigma2: float | None = None
) -> PredictionInterval:
    """Classical pivot interval ``ybar +/- q * sqrt(sigma2 * (1 + 1/n))``.

    A known ``sigma2`` uses the z quantile; ``sigma2=None`` estimates it
    from the sample (t quantile with ``n - 1`` degrees of freedom, needs
    ``n >= 2``). In known-variance mode the width does not depend on the
    sample values.
    """
    y = _as_sample(sample)
    lower, upper = pivot_bounds(y[None, :], alpha, sigma2)[0]
    return PredictionInterval(float(lower), float(upper), alpha, 1.0 - alpha)


def eb_interval(
    sample: Sequence[float] | np.ndarray, alpha: float, mu: float, tau2: float,
    sigma2: float | None = None,
) -> PredictionInterval:
    """Empirical-Bayes interval centered at the shrinkage estimator.

    The center is ``theta_tilde = (mu/tau2 + ybar*n/sigma2) / (1/tau2 +
    n/sigma2)`` and the half-width is ``q * sqrt((1/tau2 + n/sigma2)**-1 +
    sigma2)``, with ``sigma2`` as in :func:`pivot_interval`. In the
    known-variance z variant this is strictly narrower than the pivot
    interval for any finite ``tau2``. A constant sample in
    estimated-variance mode gives the degenerate interval ``[ybar, ybar]``.
    """
    y = _as_sample(sample)
    lower, upper = eb_bounds(y[None, :], alpha, mu, tau2, sigma2)[0]
    return PredictionInterval(float(lower), float(upper), alpha, 1.0 - alpha)
