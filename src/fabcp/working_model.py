"""Conjugate normal working model and its posterior predictive t density.

The working model for a single population is

    y_1, ..., y_n | theta, sigma2  ~  Normal(theta, sigma2)   iid
    theta | sigma2                 ~  Normal(mu, tau2 * sigma2)
    1/sigma2                       ~  Gamma(a/2, b/2)

so that ``sigma2 ~ InvGamma(a/2, b/2)`` with density proportional to
``sigma2**(-(a/2 + 1)) * exp(-b / (2*sigma2))``. All formulas in this
package use that inverse-gamma convention consistently.

Integrating the parameters out of the next-observation density gives a
scaled, shifted Student-t:

    y_new | y  ~  t_nu(mu_theta, scale)    with nu = a + n,

where ``mu_theta`` is the posterior mean of theta and
``scale = (b_sigma / nu) * (1 + tau2_theta)`` is the squared scale. This
density is the conformity measure used by the exact interval algorithm in
:mod:`fabcp.fab`: higher density means the candidate conforms better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from ._sum import fsum

__all__ = [
    "WorkingModelParams",
    "PosteriorPredictive",
    "posterior_params",
    "log_predictive_density",
    "predictive_density",
    "posterior_mean_theta",
]


@dataclass(frozen=True)
class WorkingModelParams:
    """Hyperparameters of the normal working model.

    Parameters
    ----------
    mu : float
        Prior mean of the population mean theta.
    tau2 : float
        Ratio of the prior variance of theta to the sampling variance;
        must be positive.
    a, b : float
        Inverse-gamma hyperparameters: ``sigma2 ~ InvGamma(a/2, b/2)``.
        Both must be positive.
    """

    mu: float
    tau2: float
    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("mu", "tau2", "a", "b"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.tau2 <= 0.0:
            raise ValueError(f"tau2 must be positive, got {self.tau2}")
        if self.a <= 0.0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.b <= 0.0:
            raise ValueError(f"b must be positive, got {self.b}")


@dataclass(frozen=True)
class PosteriorPredictive:
    """Parameters of the posterior predictive t density for one sample.

    Attributes
    ----------
    a_sigma : float
        Degrees of freedom of the predictive t, ``a + n``.
    mu_theta : float
        Posterior mean of theta (the location of the t).
    tau2_theta : float
        Posterior variance ratio ``1 / (1/tau2 + n)``.
    b_sigma : float
        Posterior inverse-gamma rate numerator ``b + residual sum of
        squares``; strictly positive for any real sample.
    scale : float
        Squared scale of the t, ``(b_sigma / a_sigma) * (1 + tau2_theta)``.
    """

    a_sigma: float
    mu_theta: float
    tau2_theta: float
    b_sigma: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.a_sigma > 0 and self.tau2_theta > 0 and self.b_sigma > 0 and self.scale > 0):
            raise ValueError("posterior predictive parameters must be positive")


def _as_sample(sample: Sequence[float] | np.ndarray) -> np.ndarray:
    y = np.asarray(sample, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"sample must be one-dimensional, got shape {y.shape}")
    if y.size == 0:
        raise ValueError("empty sample")
    # count_nonzero is a direct C call; ndarray.all goes through a Python reduction wrapper.
    if np.count_nonzero(np.isfinite(y)) < y.size:
        raise ValueError("sample contains non-finite values")
    return y


def posterior_params(sample: Sequence[float] | np.ndarray, params: WorkingModelParams) -> PosteriorPredictive:
    """Update the working model on a sample.

    Parameters
    ----------
    sample : array_like
        One-dimensional sample of size n >= 1.
    params : WorkingModelParams

    Returns
    -------
    PosteriorPredictive
        The exact parameter block of the predictive t density.

    Notes
    -----
    A one-row call of :func:`_posterior_rows`, the update the conformal
    grid oracle runs on whole arrays of samples.
    """
    y = _as_sample(sample)
    a_sigma, mu_theta, tau2_theta, b_sigma, scale = _posterior_rows(y[None, :], params)
    return PosteriorPredictive(
        a_sigma=a_sigma,
        mu_theta=float(mu_theta[0]),
        tau2_theta=tau2_theta,
        b_sigma=float(b_sigma[0]),
        scale=float(scale[0]),
    )


def log_predictive_density(y_cand: float, pp: PosteriorPredictive) -> float:
    """Log of the predictive t density at ``y_cand``."""
    return float(_log_t_density(y_cand, pp.mu_theta, pp.a_sigma, pp.scale))


def predictive_density(y_cand: float, pp: PosteriorPredictive) -> float:
    """Predictive t density at ``y_cand`` (linear scale, strictly positive)."""
    return math.exp(log_predictive_density(y_cand, pp))


def posterior_mean_theta(sample: Sequence[float] | np.ndarray, params: WorkingModelParams) -> float:
    """Posterior mean of the population mean.

    Returns ``(mu/tau2 + sum(y)) / (1/tau2 + n)``, a convex combination of
    the prior mean and the sample mean.
    """
    y = _as_sample(sample)
    return (params.mu / params.tau2 + fsum(y)) / (1.0 / params.tau2 + y.size)


def _posterior_rows(
    samples: np.ndarray, params: WorkingModelParams
) -> tuple[float, np.ndarray, float, np.ndarray, np.ndarray]:
    """Update the working model on each row of an (R, m) array of samples.

    Returns ``(a_sigma, mu_theta, tau2_theta, b_sigma, scale)`` as in
    :class:`PosteriorPredictive`; ``a_sigma`` and ``tau2_theta`` depend on
    m only, and the other three have shape (R,). The residual sum of
    squares entering ``b_sigma`` is the centered form
    ``sum((y_i - mu_theta)**2) + (mu - mu_theta)**2 / tau2``, nonnegative
    term by term, so no cancellation grows with the offset of the data.
    """
    m = samples.shape[1]
    tau2_theta = 1.0 / (1.0 / params.tau2 + m)
    mu_theta = (params.mu / params.tau2 + samples.sum(axis=1)) * tau2_theta
    resid = ((samples - mu_theta[:, None]) ** 2).sum(axis=1)
    resid += (params.mu - mu_theta) ** 2 / params.tau2
    a_sigma = params.a + m
    b_sigma = params.b + resid
    scale = (b_sigma / a_sigma) * (1.0 + tau2_theta)
    return a_sigma, mu_theta, tau2_theta, b_sigma, scale


def _log_t_density(
    x: np.ndarray | float,
    loc: np.ndarray | float,
    nu: float,
    scale: np.ndarray | float,
) -> np.ndarray | float:
    """Log density of a scaled t with ``nu`` df and squared scale ``scale``.

    Evaluated in log space so that large degrees of freedom cannot
    overflow the gamma-function prefactor.
    """
    z2 = (x - loc) ** 2 / scale
    return (
        gammaln((nu + 1.0) / 2.0)
        - gammaln(nu / 2.0)
        - 0.5 * np.log(nu * math.pi * scale)
        - ((nu + 1.0) / 2.0) * np.log1p(z2 / nu)
    )
