"""Multi-area FAB pipeline with spatial information sharing.

The working model across areas is a spatial Fay-Herriot model with
heterogeneous area variances:

    y_{1j}, ..., y_{n_j j} | theta_j, sigma2_j ~ N(theta_j, sigma2_j)
    theta ~ N(X beta, eta2 * G(rho))          G = [(I - rho W)(I - rho W^T)]^-1
    sigma2_1, ..., sigma2_J ~ InvGamma(a/2, b/2)

with W a row-standardized squared-exponential distance matrix between area
centroids. For each target area j the hyperparameters are estimated from
the other areas only (leave-one-area-out), then the conformal prior for
area j is the conditional mean of theta_j given the other areas' estimated
means, and the conditional variance divided by an estimate of area j's
sampling variance. Feeding those into the exact FAB interval keeps
area-level frequentist coverage regardless of how well the model fits.

Because each area's fit reads only the other areas' data, the J fits do
not depend on each other. ``area_pipeline`` deals the areas out over
every CPU of the process's affinity mask, and each process, the caller or
a forked worker, takes its own areas from their (a, b) rows, in one
lockstep search, to their priors; ``loo_conformal_params`` is the same
path for one area. The records keep their bits at any CPU count.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dormqr, dstevd, dsytrd
from scipy.special import gammaln

from ._sum import fsum
from .baselines import dta_interval
from .fab import fab_interval_from_precision
from .intervals import PredictionInterval

logger = logging.getLogger(__name__)

__all__ = [
    "AreaTable",
    "AreaConformalParams",
    "AreaPrediction",
    "MeanModelFit",
    "EstimationError",
    "sq_exp_weights",
    "sar_covariance",
    "estimate_ab",
    "ab_marginal_loglik",
    "eb_variances",
    "fit_mean_model",
    "mean_model_loglik",
    "conditional_params",
    "area_pipeline",
    "exact_alpha",
    "loo_conformal_params",
    "generate_table",
]


class EstimationError(RuntimeError):
    """Raised when a hyperparameter fit fails; carries the best point found."""

    def __init__(self, message: str, best_point: tuple[float, ...] | None = None):
        super().__init__(message)
        self.best_point = best_point


@dataclass(frozen=True)
class AreaTable:
    """Per-area samples, covariates, and centroid coordinates.

    The table is immutable: ``n``, ``ybar``, ``s2`` and ``weights`` are
    computed once, on first use, and every leave-one-out fit reads them.

    Attributes
    ----------
    ids : list of str
        Area identifiers.
    samples : list of ndarray
        One sample vector per area (lengths may differ).
    X : ndarray, shape (J, p)
        Covariate matrix; the first column is the intercept.
    centroids : ndarray, shape (J, 2)
        Area centroid coordinates.
    """

    ids: list[str]
    samples: list[np.ndarray]
    X: np.ndarray
    centroids: np.ndarray

    def __post_init__(self) -> None:
        J = len(self.ids)
        if J < 2:
            raise ValueError("need at least two areas")
        if len(set(self.ids)) != J:
            raise ValueError("area ids must be distinct")
        for name, value in [("X", self.X), ("centroids", self.centroids)] + [
                ("samples entry", y) for y in self.samples]:
            if not isinstance(value, np.ndarray):
                raise ValueError(f"{name} must be a numpy array, got {type(value).__name__}")
        if self.X.ndim != 2:
            raise ValueError("X must be a (J, p) matrix")
        if self.centroids.ndim != 2 or self.centroids.shape[1] != 2:
            raise ValueError("centroids must be (J, 2)")
        if len(self.samples) != J or self.X.shape[0] != J or self.centroids.shape[0] != J:
            raise ValueError("inconsistent area counts across table fields")
        # A NaN centroid would otherwise reach the weights as a NaN diagonal
        # and send every area to DTA with a misleading reason.
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.centroids))):
            raise ValueError("covariates and centroids must be finite")
        for y in self.samples:
            if y.ndim != 1 or y.size < 1 or not np.all(np.isfinite(y)):
                raise ValueError("each area needs a finite, nonempty sample")

    @property
    def J(self) -> int:
        return len(self.ids)

    @cached_property
    def n(self) -> np.ndarray:
        return np.array([y.size for y in self.samples])

    @cached_property
    def ybar(self) -> np.ndarray:
        return np.array([fsum(y) / y.size for y in self.samples])

    @cached_property
    def s2(self) -> np.ndarray:
        """Within-area sums of squares about the mean; NaN when n_j < 2."""
        out = np.full(self.J, np.nan)
        for j, y in enumerate(self.samples):
            if y.size >= 2:
                m = self.ybar[j]
                out[j] = math.fsum((v - m) ** 2 for v in y)
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        """``sq_exp_weights`` over all J centroids; raises if the map is rejected."""
        return sq_exp_weights(self.centroids)


@dataclass(frozen=True)
class AreaConformalParams:
    """Leave-one-out conformal prior for a single area."""

    mu_j: float
    tau2_j: float
    sigma2_hat_j: float

    def __post_init__(self) -> None:
        if not self.tau2_j > 0.0:
            raise ValueError(f"tau2_j must be positive, got {self.tau2_j}")
        if not self.sigma2_hat_j > 0.0:
            raise ValueError(f"sigma2_hat_j must be positive, got {self.sigma2_hat_j}")


@dataclass(frozen=True)
class MeanModelFit:
    """Maximum-likelihood fit of the spatial linking model."""

    beta: np.ndarray
    eta2: float
    rho: float
    theta: np.ndarray
    loglik: float


@dataclass(frozen=True)
class AreaPrediction:
    """One prediction record emitted by the pipeline."""

    area_id: str
    n: int
    alpha_j: float
    method: str
    interval: PredictionInterval
    mu_j: float = math.nan
    tau2_j: float = math.nan
    fallback: bool = False


# -- spatial weights and SAR covariance ---------------------------------------


def _check_weights(W: np.ndarray) -> None:
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("W must be square")
    if np.any(np.diag(W) != 0.0):
        raise ValueError("W must have a zero diagonal")
    if not np.allclose(W.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError("rows of W must sum to 1")


def sq_exp_weights(centroids: Sequence[tuple[float, float]] | np.ndarray) -> np.ndarray:
    """Row-standardized squared-exponential weights between centroids.

    Off-diagonal entries are ``exp(-||c_l - c_k||^2)`` with the diagonal
    zeroed, then each row is normalized to sum to one. A row whose
    pre-normalization weights all underflow to zero means the area is
    numerically unreachable from every other area.
    """
    c = np.asarray(centroids, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 2:
        raise ValueError("need at least two (cx, cy) centroids")
    if not np.all(np.isfinite(c)):
        raise ValueError("centroids must be finite")
    d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=2)
    W = np.exp(-d2)
    np.fill_diagonal(W, 0.0)
    # Weights this small are statistically nil but seed subnormal
    # intermediates in downstream factorizations, which LAPACK handles
    # orders of magnitude more slowly.
    W[W < 1e-12] = 0.0
    rowsum = W.sum(axis=1)
    if np.any(rowsum == 0.0):
        raise ValueError("isolated area")
    W = W / rowsum[:, None]
    W[W < 1e-12] = 0.0
    return W / W.sum(axis=1)[:, None]


def _zap_tiny(M: np.ndarray) -> np.ndarray:
    """Zero entries below 1e-14 of the largest magnitude.

    Entries this far below the matrix scale carry no statistical content
    but breed subnormal intermediates inside LAPACK factorizations, which
    run orders of magnitude slower.
    """
    M[np.abs(M) < 1e-14 * np.abs(M).max()] = 0.0
    return M


def sar_covariance(rho: float, W: np.ndarray) -> np.ndarray:
    """Simultaneous-autoregressive covariance ``[(I - rho W)(I - rho W^T)]^-1``."""
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    _check_weights(W)
    J = W.shape[0]
    A = np.eye(J) - rho * W
    M = _zap_tiny(A @ A.T)
    try:
        cf = cho_factor(M, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"(I - rho W) is numerically singular at rho={rho}") from exc
    G = cho_solve(cf, np.eye(J))
    return _zap_tiny(0.5 * (G + G.T))


# -- variance hyperparameters --------------------------------------------------


def _sums_of_squares(
    s2: ArrayLike, n: ArrayLike, fit: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``s2``, ``n`` and the mask ``n >= 2`` as arrays; each masked ``s2`` must be finite and >= 0.

    A ``fit`` also needs two masked areas, the fewest an (a, b) fit can use.
    """
    s2, n = np.asarray(s2, dtype=float), np.asarray(n)
    if s2.ndim != 1 or s2.shape != n.shape:
        raise ValueError(f"s2 and n must have the same shape, one-dimensional; got {s2.shape} and {n.shape}")
    keep = n >= 2
    if fit and np.count_nonzero(keep) < 2:
        raise ValueError("need at least two areas with n >= 2")
    if np.any(s2[keep] < 0.0) or not np.all(np.isfinite(s2[keep])):
        raise ValueError("sums of squares must be finite and nonnegative")
    return s2, n, keep


def _split_s2(s2: ArrayLike, n: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """The areas with ``n >= 2`` of one (a, b) problem, as arrays; raises if they cannot be fitted."""
    s2, n, keep = _sums_of_squares(s2, n, fit=True)
    return s2[keep], n[keep]


def ab_marginal_loglik(a: float, b: float, s2: ArrayLike, n: ArrayLike) -> float:
    """Log marginal likelihood of the within-area sums of squares ``s2`` of areas of sizes ``n``.

    Marginalizing the area variance out of the chi-square law of
    ``S2_k / sigma2_k`` under ``sigma2 ~ InvGamma(a/2, b/2)`` leaves, up
    to an (a, b)-free factor, the kernel

        Gamma((a+n_k-1)/2) (b/2)^(a/2)
        ------------------------------------------
        Gamma(a/2) ((b+s2_k)/2)^((a+n_k-1)/2)

    summed in log over areas with ``n_k >= 2``.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("a and b must be positive")
    s2, n = _split_s2(s2, n)
    return float(_ab_loglik(np.array([a]), np.array([b]), s2[None], (n[None] - 1.0) / 2.0)[0])


def _ab_loglik(a: np.ndarray, b: np.ndarray, s2: np.ndarray, half_n1: np.ndarray) -> np.ndarray:
    """The kernel of :func:`ab_marginal_loglik` for R problems at once.

    Row r holds one problem: ``(a[r], b[r])`` and its areas' ``s2[r]`` and
    ``half_n1[r] = (n - 1) / 2``. ``log(b / 2)`` is taken per row with
    ``math.log``, as the one-problem form always took it: numpy's
    vectorized logarithm can differ from the C library's in the last bit.
    """
    half_a = a / 2.0
    half_post = half_a[:, None] + half_n1
    log_half_b = np.array([math.log(v / 2.0) for v in b.tolist()])
    k = s2.shape[1]
    return (
        np.add.reduce(gammaln(half_post), axis=1)
        - k * gammaln(half_a)
        + k * half_a * log_half_b
        - np.add.reduce(half_post * np.log((b[:, None] + s2) / 2.0), axis=1)
    )


_LOG_A_BOX = (-6.0, 7.0)
_LOG_B_BOX = (-12.0, 12.0)

# Nelder-Mead stopping rules: simplex spread in x and in f, iterations, and
# objective evaluations.
_NM_XATOL, _NM_FATOL = 1e-9, 1e-11
_NM_MAXITER, _NM_MAXFEV = 2000, 4000
# scipy's messages for the two ways a search stops short (status 1 and 2).
_NM_MESSAGES = {
    1: "Maximum number of function evaluations has been exceeded.",
    2: "Maximum number of iterations has been exceeded.",
}


def _sort_simplex(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's vertices in the order of ``np.argsort`` of its values, as scipy sorts them."""
    ind = np.argsort(fsim, axis=1)
    row = np.arange(fsim.shape[0])[:, None]
    return sim[row, ind], fsim[row, ind]


def _nelder_mead(f, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize R independent problems in lockstep by Nelder-Mead.

    ``x0`` is (R, N); ``f(points, rows)`` returns the objective of problem
    ``rows[i]`` at ``points[i]``. Each iteration makes at most three calls
    of ``f``: every running row's reflection, then the expansion or
    contraction points, then the shrinks. A row leaves the arrays when it
    stops.

    Every row takes the steps of scipy 1.17's ``minimize(method=
    "Nelder-Mead")`` with ``xatol`` 1e-9, ``fatol`` 1e-11, ``maxiter`` 2000
    and ``maxfev`` 4000, in the same arithmetic: its initial simplex and its
    per-row ``argsort`` of the vertex values. A row that converges or
    reaches the iteration limit ends on scipy's vertex and evaluation
    count, bit for bit. A row whose budget runs out finishes its iteration,
    where scipy stops at once: it ends with scipy's status, at most N + 1
    evaluations over budget, on a vertex no worse than scipy's.

    Returns the best vertex of each row, its status (0 converged, 1
    evaluation budget spent, 2 iteration limit) and its evaluation count.
    """
    R, N = x0.shape
    best, status, nfev = np.empty((R, N)), np.empty(R, dtype=int), np.empty(R, dtype=int)
    rows = np.arange(R)
    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    for k in range(N):
        sim[:, k + 1, k] = np.where(x0[:, k] != 0, (1 + 0.05) * x0[:, k], 0.00025)
    fsim = f(sim.reshape(-1, N), np.repeat(rows, N + 1)).reshape(R, N + 1)
    # scipy sorts the initial simplex twice.
    sim, fsim = _sort_simplex(*_sort_simplex(sim, fsim))
    calls = np.full(R, N + 1)
    nit = 1
    while rows.size:
        spent, capped = calls >= _NM_MAXFEV, nit >= _NM_MAXITER
        stop = spent | capped | (
            (np.maximum.reduce(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= _NM_XATOL)
            & (np.maximum.reduce(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= _NM_FATOL)
        )
        if stop.any():
            done = rows[stop]
            best[done] = sim[stop, 0]
            status[done] = np.where(spent[stop], 1, np.where(capped, 2, 0))
            nfev[done] = calls[stop]
            go = ~stop
            rows, sim, fsim, calls = rows[go], sim[go], fsim[go], calls[go]
            if not rows.size:
                break

        xbar = np.add.reduce(sim[:, :-1], 1) / N
        worst = sim[:, -1]
        xr = 2 * xbar - worst
        fxr = f(xr, rows)

        expand = fxr < fsim[:, 0]
        take_r = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~take_r & (fxr < fsim[:, -1])
        second = ~take_r
        x2 = np.where(
            expand[:, None],
            3 * xbar - 2 * worst,
            np.where(outside[:, None], 1.5 * xbar - 0.5 * worst, 0.5 * xbar + 0.5 * worst),
        )
        f2 = np.full(rows.size, np.nan)
        if second.any():
            f2[second] = f(x2[second], rows[second])
        calls += 1 + second

        use_r = take_r | (expand & ~(f2 < fxr))
        use_2 = second & np.where(expand, f2 < fxr, np.where(outside, f2 <= fxr, f2 < fsim[:, -1]))
        sim[:, -1] = np.where(use_r[:, None], xr, np.where(use_2[:, None], x2, worst))
        fsim[:, -1] = np.where(use_r, fxr, np.where(use_2, f2, fsim[:, -1]))

        shrink = np.flatnonzero(~(use_r | use_2))
        if shrink.size:
            low = sim[shrink, :1]
            sim[shrink, 1:] = low + 0.5 * (sim[shrink, 1:] - low)
            points = sim[shrink, 1:].reshape(-1, N)
            fsim[shrink, 1:] = f(points, np.repeat(rows[shrink], N)).reshape(-1, N)
            calls[shrink] += N
        nit += 1
        sim, fsim = _sort_simplex(sim, fsim)
    return best, status, nfev


def _clamp_log_ab(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (np.minimum(np.maximum(x[:, 0], _LOG_A_BOX[0]), _LOG_A_BOX[1]),
            np.minimum(np.maximum(x[:, 1], _LOG_B_BOX[0]), _LOG_B_BOX[1]))


def _exp(v: np.ndarray) -> np.ndarray:
    """``math.exp`` per entry: numpy's vectorized exponential can differ in the last bit."""
    return np.array([math.exp(x) for x in v.tolist()])


def _fit_ab(s2: np.ndarray, n: np.ndarray) -> list[tuple[float, float] | EstimationError]:
    """Maximum-likelihood (a, b) of R problems, one per row of ``s2`` and ``n``.

    The search runs in ``(log a, log b)`` from method-of-moments values and
    is clamped to a generous box: when the area variances look homogeneous
    the likelihood rises along an ``a -> inf`` ridge, and the clamped fit
    settles at the box edge, i.e. near-complete pooling. A row whose
    search does not converge gets an :class:`EstimationError` carrying the
    best point found.
    """
    v = s2 / (n - 1.0)
    m = np.mean(v, axis=1)
    m[m <= 0.0] = 1e-8
    var = np.var(v, axis=1)
    spread = var > 0.0
    alpha0 = np.full(m.size, 10.0)
    alpha0[spread] = m[spread] * m[spread] / var[spread] + 2.0
    alpha0 = np.minimum(np.maximum(alpha0, 2.2), 100.0)
    beta0 = m * (alpha0 - 1.0)
    x0 = np.log(np.column_stack([2.0 * alpha0, 2.0 * beta0]))

    half_n1 = (n - 1.0) / 2.0

    def neg_ll(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        la, lb = _clamp_log_ab(x)
        return -_ab_loglik(_exp(la), _exp(lb), s2[rows], half_n1[rows])

    x, status, _ = _nelder_mead(neg_ll, x0)
    la, lb = _clamp_log_ab(x)
    out: list[tuple[float, float] | EstimationError] = []
    for a_hat, b_hat, st in zip(_exp(la).tolist(), _exp(lb).tolist(), status.tolist()):
        if st == 0:
            out.append((a_hat, b_hat))
        else:
            out.append(EstimationError(
                f"variance hyperparameter fit did not converge: {_NM_MESSAGES[st]}",
                best_point=(a_hat, b_hat),
            ))
    return out


def estimate_ab(s2: ArrayLike, n: ArrayLike) -> tuple[float, float]:
    """Maximum-likelihood inverse-gamma hyperparameters from area sums of squares.

    ``s2`` and ``n`` are 1-D array-likes of the areas' within-area sums of
    squares and sample sizes. Areas with ``n_k < 2`` have no sum of squares
    and are left out (see :func:`_split_s2`). Runs a Nelder-Mead search in
    ``(log a, log b)`` from method-of-moments values (see :func:`_fit_ab`).
    Raises :class:`EstimationError` with the best point found if the
    simplex fails to converge.
    """
    s2, n = _split_s2(s2, n)
    (fit,) = _fit_ab(s2[None], n[None])
    if isinstance(fit, EstimationError):
        raise fit
    return fit


def _loo_ab_fits(
    table: AreaTable, areas: Sequence[int] | None = None
) -> dict[int, tuple[float, float] | Exception]:
    """The leave-one-out (a, b) fits of ``areas`` (default: every area with ``n_j >= 2``).

    Area j's problem is every other area's sum of squares, in table order,
    checked and solved as :func:`estimate_ab` does it; an area maps to the
    error ``estimate_ab`` raises for it. Rows of equal length share one
    lockstep search; rows do not interact, so a row's fit does not depend
    on which other areas are passed.
    """
    if areas is None:
        areas = np.flatnonzero(table.n >= 2).tolist()
    fits: dict[int, tuple[float, float] | Exception] = {}
    searches: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}  # by row length
    for j in areas:
        others = np.arange(table.J) != j
        try:
            s2, n = _split_s2(table.s2[others], table.n[others])
        except ValueError as exc:
            fits[j] = exc
        else:
            searches.setdefault(n.size, []).append((j, s2, n))
    for rows in searches.values():
        js, s2, n = zip(*rows)
        fits.update(zip(js, _fit_ab(np.array(s2), np.array(n))))
    return fits


def eb_variances(a_hat: float, b_hat: float, s2: ArrayLike, n: ArrayLike) -> tuple[np.ndarray, float]:
    """Empirical-Bayes variance estimates of areas with sums of squares ``s2`` and sizes ``n``.

    Observed areas get the posterior mode of ``sigma2_k`` given its sum of
    squares, ``(b + s2_k) / (a + n_k + 1)``. An area with ``n_k < 2`` has
    no sum of squares, so its estimate is ``b / (a + n_k + 1)`` whatever
    its ``s2_k`` entry says (NaN in ``AreaTable.s2``). The held-out area
    gets the prior mode ``b / (a + 2)``. The other entries must be finite
    and nonnegative, as in :func:`estimate_ab` (see :func:`_sums_of_squares`).
    """
    if not (a_hat > 0.0 and b_hat > 0.0):
        raise ValueError("a_hat and b_hat must be positive")
    s2, n, keep = _sums_of_squares(s2, n)
    sigma2_k = (b_hat + np.where(keep, s2, 0.0)) / (a_hat + n + 1.0)
    sigma2_heldout = b_hat / (a_hat + 2.0)
    return sigma2_k, float(sigma2_heldout)


# -- spatial mean model ---------------------------------------------------------


class _SarParts:
    """The rho-free parts of one fit's whitened SAR precision.

    ``W`` has a zero diagonal, so ``Q = (I - rho W)(I - rho W^T)`` equals
    ``I - rho (W + W^T) + rho^2 W W^T`` and its whitened form is

        S(rho) = d^1/2 Q d^1/2 = diag(d) - rho P + rho^2 R,
        P = (W + W^T) o sqrt(d) sqrt(d)^T,  R = (W W^T) o sqrt(d) sqrt(d)^T.

    ``P`` and ``R`` are built once per fit, so each candidate rho assembles
    ``S`` in O(J^2). ``B = [X d^-1/2, ybar d^-1/2]`` holds the p + 1
    whitened data vectors, the only ones the eigenbasis is ever applied to.
    """

    def __init__(self, W: np.ndarray, d: np.ndarray, ybar: np.ndarray, X: np.ndarray):
        self.d = d
        self.sqrt_d = np.sqrt(d)
        outer = np.outer(self.sqrt_d, self.sqrt_d)
        self.P = (W + W.T) * outer
        self.R = (W @ W.T) * outer
        self.B = np.column_stack([X, ybar]) / self.sqrt_d[:, None]
        self.logdet_d = float(np.sum(np.log(d)))

    def S(self, rho: float) -> np.ndarray:
        S = rho * (rho * self.R - self.P)
        S.flat[:: S.shape[0] + 1] += self.d
        return _zap_tiny(S)


class _RhoProfile:
    """Whitened eigenbasis of one candidate rho, shared across eta2 values.

    The SAR precision is never inverted. With ``M = eta2 * G + diag(d)``,
    ``G = Q^-1`` and ``S = d^1/2 Q d^1/2 = U diag(mu) U^T``, the whitened
    covariance ``d^-1/2 G d^-1/2`` has the same eigenvectors and
    eigenvalues ``1 / mu``. Every quantity the Gaussian likelihood needs
    then reduces to diagonal weights ``mu / (eta2 + mu)`` in the rotated
    coordinates, so the inner eta2 search costs O(J p^2) per evaluation
    and the covariance is positive definite for every eta2 >= 0 by
    construction.

    ``U`` is never formed. A Householder reduction ``S = H T H^T``
    (``dsytrd``) and a tridiagonal eigensolve ``T = Z diag(mu) Z^T``
    (``dstevd``) give ``U = H Z``. The likelihood only needs ``U^T`` applied
    to the p + 1 whitened data vectors, ``Z^T (H^T B)``, and the BLUP only
    ``U`` applied to one vector, ``H (Z v)``. ``H = diag(1, H')``, where
    ``H'`` is the product of the J - 1 reflectors that ``dsytrd`` leaves
    below the subdiagonal, so both products go through ``dormqr`` on the
    trailing J - 1 rows in O(J^2 p) instead of back-transforming all J
    eigenvectors in O(J^3).

    Raises ``ValueError`` when ``(I - rho W)`` is numerically singular or
    LAPACK reports a failure.
    """

    def __init__(self, rho: float, parts: _SarParts):
        if not -1.0 < rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {rho}")
        # S is symmetric, so its transpose is the Fortran-ordered buffer
        # dsytrd overwrites in place.
        c, diag, offdiag, self.tau, info = dsytrd(parts.S(rho).T, lower=1, overwrite_a=1)
        if info != 0:
            raise ValueError(f"tridiagonal reduction failed at rho={rho} (info={info})")
        self.reflectors = c[1:, :-1]  # H', one reflector per column
        self.mu, self.Z, info = dstevd(diag, offdiag)
        if info != 0:
            raise ValueError(f"tridiagonal eigensolve failed at rho={rho} (info={info})")
        if not self.mu[0] > 0.0:
            raise ValueError(f"(I - rho W) is numerically singular at rho={rho}")
        self.J = self.mu.size
        self.sqrt_d = parts.sqrt_d
        self.logdet_d = parts.logdet_d
        # Eigenvalues of the whitened covariance; ``1 / (eta2 * lam + 1)``
        # is the weight ``mu / (eta2 + mu)`` and ``log(eta2 * lam + 1)`` the
        # log-determinant term ``log(eta2 + mu) - log(mu)`` without the
        # cancellation between two large sums.
        self.lam = 1.0 / self.mu
        Bt = self.Z.T @ self._apply_h(parts.B, "T")
        self.Xt = np.ascontiguousarray(Bt[:, :-1])
        self.yt = Bt[:, -1].copy()
        p = self.Xt.shape[1]
        # Per-eigenvector products, so the eta2 scan is two matmuls.
        self.XtXt = (self.Xt[:, :, None] * self.Xt[:, None, :]).reshape(self.J, p * p)
        self.Xtyt = self.Xt * self.yt[:, None]
        self._log_eta2_bracket = (-14.0, 6.0)

    def _apply_h(self, C: np.ndarray, trans: str) -> np.ndarray:
        """``H^T C`` (``trans="T"``) or ``H C`` (``trans="N"``) for a J x k matrix ``C``."""
        out = np.array(C, dtype=float, order="F")
        out[1:], _, info = dormqr(
            "L", trans, self.reflectors, self.tau, out[1:], max(1, out.shape[1])
        )
        if info != 0:
            raise ValueError(f"applying the Householder reflectors failed (info={info})")
        return out

    def loglik_batch(self, eta2s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """GLS-profiled log likelihoods and profiling betas at many eta2 values."""
        p = self.Xt.shape[1]
        t = eta2s[:, None] * self.lam[None, :] + 1.0
        w = 1.0 / t
        XwX = (w @ self.XtXt).reshape(-1, p, p)
        beta = np.linalg.solve(XwX, (w @ self.Xtyt)[:, :, None])[:, :, 0]
        z = self.yt[None, :] - beta @ self.Xt.T
        quad = np.sum(w * z * z, axis=1)
        logdet = self.logdet_d + np.sum(np.log(t), axis=1)
        return -0.5 * (self.J * math.log(2.0 * math.pi) + logdet + quad), beta

    def max_eta2(self, rounds: int) -> tuple[float, float, np.ndarray]:
        """Maximize the profiled likelihood over eta2 by zooming log grids.

        A coarse scan over log eta2 in [-14, 6], then zooms onto the
        incumbent's grid cell, one per round; derivative-free and immune
        to the flat left tail when the best eta2 is effectively zero. A
        call resumes the zoom where the previous call on this profile left
        it, so ``max_eta2(3)`` then ``max_eta2(2)`` ends where
        ``max_eta2(5)`` would, without repeating three rounds.
        Returns the maximizing eta2, its log likelihood and its GLS beta.
        """
        lo, hi = self._log_eta2_bracket
        for _ in range(rounds):
            grid = np.linspace(lo, hi, 41)
            eta2s = np.exp(grid)
            lls, betas = self.loglik_batch(eta2s)
            i = int(np.argmax(lls))
            span = grid[1] - grid[0]
            lo, hi = grid[i] - span, grid[i] + span
        self._log_eta2_bracket = (lo, hi)
        return float(eta2s[i]), float(lls[i]), betas[i]

    def blup(self, eta2: float, beta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Shrinkage estimate ``X beta + eta2 G M^-1 (ybar - X beta)``.

        In the eigenbasis ``eta2 G M^-1 r = eta2 d^1/2 U [U^T d^-1/2 r / (eta2 + mu)]``,
        ``U^T d^-1/2 r`` is the rotated residual ``yt - Xt beta``, and ``U v``
        is computed as ``H (Z v)``.
        """
        z = self.yt - self.Xt @ beta
        v = self.Z @ (z / (eta2 + self.mu))
        return X @ beta + eta2 * self.sqrt_d * self._apply_h(v[:, None], "N")[:, 0]


def mean_model_loglik(
    ybar: np.ndarray,
    sampling_var: np.ndarray,
    X: np.ndarray,
    W: np.ndarray,
    beta: np.ndarray,
    eta2: float,
    rho: float,
) -> float:
    """Exact Gaussian log likelihood of direct estimates at given parameters."""
    G = sar_covariance(rho, W)
    J = ybar.size
    M = eta2 * G + np.diag(sampling_var)
    cf = cho_factor(M, lower=True)
    r = ybar - X @ beta
    logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
    return -0.5 * (J * math.log(2.0 * math.pi) + logdet + float(r @ cho_solve(cf, r)))


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple:
    """Golden-section maximization of a unimodal function on [lo, hi].

    ``f`` returns ``(value, payload)``. The search compares values and
    returns ``(x, value, payload)`` at the best point, so the caller keeps
    what it computed there without evaluating it again.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a >= tol:
        if fc[0] > fd[0]:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, *fc) if fc[0] > fd[0] else (d, *fd)


# The rho search bracket and the bracket width at which it stops.
_RHO_BOUNDS = (-0.99, 0.99)
_RHO_TOL = 5e-3


def fit_mean_model(
    ybar: np.ndarray,
    sampling_var: np.ndarray,
    X: np.ndarray,
    W: np.ndarray,
) -> MeanModelFit:
    """Maximum-likelihood fit of ``ybar ~ N(X beta, eta2 G(rho) + diag(d))``.

    The likelihood is profiled: for each candidate ``rho`` on a
    golden-section search, ``beta`` has its GLS closed form and ``eta2``
    is maximized by a derivative-free zooming scan in log space. The
    returned ``theta`` is the usual shrinkage (BLUP) estimate of the area
    means under the fitted model.

    Raises :class:`EstimationError` when no candidate ``rho`` admits a
    positive-definite covariance.
    """
    ybar = np.asarray(ybar, dtype=float)
    d = np.asarray(sampling_var, dtype=float)
    X = np.asarray(X, dtype=float)
    J, p = X.shape
    if ybar.size != J or d.size != J or W.shape[0] != J:
        raise ValueError("inconsistent dimensions across inputs")
    if J < p + 2:
        raise ValueError(f"need at least p + 2 = {p + 2} areas, got {J}")
    if np.linalg.matrix_rank(X) < p:
        raise ValueError("covariate matrix is rank deficient")
    if not np.all(d > 0.0):
        raise ValueError("sampling variances must be positive")
    _check_weights(W)
    parts = _SarParts(W, d, ybar, X)

    def profile_rho(rho: float) -> tuple[float, _RhoProfile | None]:
        try:
            profile = _RhoProfile(rho, parts)
        except ValueError:
            return -math.inf, None
        return profile.max_eta2(rounds=3)[1], profile

    # The final fit at rho_hat reuses the eigenbasis the search built there
    # and zooms two rounds further from where the search's scan stopped.
    rho_hat, best_ll, profile = _golden_max(profile_rho, *_RHO_BOUNDS, _RHO_TOL)
    if not math.isfinite(best_ll):
        raise EstimationError("no candidate rho admits a positive-definite covariance")

    eta2_hat, ll, beta_hat = profile.max_eta2(rounds=2)
    theta_hat = profile.blup(eta2_hat, beta_hat, X)
    return MeanModelFit(beta=beta_hat, eta2=eta2_hat, rho=float(rho_hat), theta=theta_hat, loglik=ll)


# -- conditional conformal parameters ------------------------------------------


def conditional_params(
    j: int,
    beta_hat: np.ndarray,
    eta2_hat: float,
    rho_hat: float,
    theta_hat: np.ndarray,
    W: np.ndarray,
    X: np.ndarray,
    sigma2_hat_j: float,
) -> AreaConformalParams:
    """Conformal prior for area ``j`` from the fitted linking model.

    ``W`` and ``X`` cover all J areas (including ``j``); ``theta_hat``
    holds the fitted means of the other J-1 areas in table order. The
    prior mean is the Gaussian conditional mean of ``theta_j`` given those
    means under ``V = eta2 [(I - rho W)(I - rho W^T)]^-1``, and the prior
    variance ratio is the conditional variance divided by ``sigma2_hat_j``.
    Both are read from row ``j`` of the precision, in O(J^2) and without
    inverting anything.
    """
    J = W.shape[0]
    if not 0 <= j < J:
        raise ValueError(f"area index {j} out of range for J={J}")
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.size != J - 1:
        raise ValueError(f"theta_hat must have J-1={J-1} entries, got {theta_hat.size}")
    if np.shape(X) != (J, *np.shape(beta_hat)):
        raise ValueError(f"X must have shape (J, p) = {(J, *np.shape(beta_hat))} to match W and "
                         f"beta_hat, got {np.shape(X)}")
    if not sigma2_hat_j > 0.0:
        raise ValueError("sigma2_hat_j must be positive")
    if not -1.0 < rho_hat < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho_hat}")
    if not eta2_hat > 0.0:
        raise ValueError("eta2_hat must be positive")
    _check_weights(W)

    # Row j of the precision Q / eta2, Q = (I - rho W)(I - rho W^T), gives
    # the conditional directly: var = eta2 / Q_jj and
    # mean = x_j beta - Q_{j,-j} resid / Q_jj. Q_jj >= 1 because W has a
    # zero diagonal, so the variance is always positive.
    A = np.eye(J) - rho_hat * W
    q = A @ A[j]
    q_j = float(q[j])
    resid = theta_hat - np.delete(X, j, axis=0) @ beta_hat
    mu_j = float(X[j] @ beta_hat - np.delete(q, j) @ resid / q_j)
    return AreaConformalParams(mu_j=mu_j, tau2_j=eta2_hat / q_j / sigma2_hat_j, sigma2_hat_j=sigma2_hat_j)


# -- leave-one-area-out pipeline -----------------------------------------------


def exact_alpha(n: int) -> float:
    """Error rate ``floor((n+1)/3) / (n+1)`` giving exact conformal coverage."""
    return math.floor((n + 1) / 3.0) / (n + 1)


def loo_conformal_params(table: AreaTable, j: int) -> AreaConformalParams:
    """Estimate area ``j``'s conformal prior from every other area's data.

    This is the pipeline's path for the one area ``j``, so the prior of an
    area with ``n_j >= 2`` is its pipeline record's, bit for bit. An error
    of the fit re-raises, the full weights' rejection of the map included
    (see :func:`_priors`), and an index outside ``[0, J)`` raises before any.
    """
    if not 0 <= j < table.J:
        raise ValueError(f"area index {j} out of range for J={table.J}")
    prior = _priors(table, [j])[j]
    if isinstance(prior, Exception):
        raise prior
    return prior


def _prior_given_ab(table: AreaTable, j: int, a_hat: float, b_hat: float) -> AreaConformalParams:
    """Area ``j``'s conformal prior from its leave-one-out (a, b) fit.

    The steps after (a, b): empirical-Bayes variances, the rest-of-map
    weights, the mean model over the other areas, and the conditional prior.
    """
    rest = np.arange(table.J) != j
    sigma2_rest, sigma2_j = eb_variances(a_hat, b_hat, table.s2[rest], table.n[rest])

    W_rest = sq_exp_weights(table.centroids[rest])
    fit = fit_mean_model(table.ybar[rest], sigma2_rest / table.n[rest], table.X[rest], W_rest)
    return conditional_params(j, fit.beta, fit.eta2, fit.rho, fit.theta, table.weights, table.X, sigma2_j)


def _priors(table: AreaTable, areas: list[int]) -> dict[int, AreaConformalParams | Exception]:
    """``{j: prior}`` over ``areas``, with the error its fit raised as an area's result.

    The full-map weights come first, so on a map they reject their
    ``ValueError`` is every area's result and nothing is fitted. Then the
    areas' (a, b) rows run in one lockstep search, and each area's prior is
    fitted from its row; an error the search raises is every area's result.
    """
    try:
        table.weights  # the map gate
        priors = _loo_ab_fits(table, areas)
    except Exception as exc:
        return dict.fromkeys(areas, exc)
    for j in areas:
        if not isinstance(priors[j], Exception):
            try:
                priors[j] = _prior_given_ab(table, j, *priors[j])
            except Exception as exc:
                priors[j] = exc
    return priors


def _send_priors(conn, table: AreaTable, areas: list[int]) -> None:
    """A forked worker's share. Ctrl-C is left to the caller, which stops its workers."""
    import signal
    import traceback

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    priors = _priors(table, areas)
    # One error may be several areas' result; it gets one note.
    errors = {id(result): result for result in priors.values() if isinstance(result, Exception)}
    for result in errors.values():
        # A traceback does not pickle; the worker's frames travel as a note.
        frames = "".join(traceback.format_exception(type(result), result, result.__traceback__))
        result.add_note(f"In a worker process:\n{frames}")
    conn.send(priors)
    conn.close()


def _cpus() -> int:
    """CPUs in the process's affinity mask; 1 where it may not fork a worker."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    import multiprocessing  # here, so that importing fabcp does not load it
    import threading

    # A daemonic process, such as a multiprocessing.Pool worker, may not
    # have children, and a fork copies no thread but the caller's, so a
    # lock another thread holds would stay held in the child.
    if multiprocessing.current_process().daemon or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _shared_priors(table: AreaTable) -> dict[int, AreaConformalParams | Exception]:
    """The priors of the areas with ``n_j >= 2``, fitted on every CPU the process may use.

    The fits do not depend on each other, so with k = min(CPUs, areas)
    the areas are dealt out in k interleaved shares: the caller fits one,
    and k - 1 forked children fit the others, (a, b) rows included, and
    send their results back over a pipe. Each fit runs the same
    arithmetic in whichever process, so the results do not depend on k.
    An error a fit raises comes back as the area's result. Every child is
    joined before this returns or raises. With k = 1 no process is started.
    """
    areas = np.flatnonzero(table.n >= 2).tolist()
    k = max(1, min(_cpus(), len(areas)))
    children = []
    try:
        if k > 1:
            import multiprocessing

            table.ybar, table.s2  # computed once, before the fork, for every share
            fork = multiprocessing.get_context("fork")
            for share in range(1, k):
                recv, send = fork.Pipe(duplex=False)
                child = fork.Process(target=_send_priors, args=(send, table, areas[share::k]))
                child.start()
                send.close()
                children.append((child, recv))
        priors = _priors(table, areas[::k])
        for child, recv in children:
            try:
                priors.update(recv.recv())
            except EOFError:
                child.join()
                message = f"a worker fitting area priors exited with code {child.exitcode}"
                raise RuntimeError(message) from None
        return priors
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()


def area_pipeline(
    table: AreaTable,
    alpha_mode: float | str = "exact",
    methods: tuple[str, ...] = ("fab",),
) -> list[AreaPrediction]:
    """Leave-one-area-out prediction intervals for every area with ``n_j >= 2``.

    Parameters
    ----------
    table : AreaTable
    alpha_mode : float or "exact"
        Fixed error rate in (0, 1), or the per-area exact-coverage rule
        ``alpha_j = floor((n_j+1)/3) / (n_j+1)``.
    methods : tuple of {"fab", "dta"}
        Emits one record per area per method; ``("fab", "dta")`` gives the
        paired rows used for width comparisons.

    Every argument is checked, and a bad one raises ``ValueError``, before
    any fit. Each area's whole fit, from the full-map weights and its
    leave-one-out (a, b) row (bit-equal to one ``estimate_ab`` call) to its
    prior, runs on one of the CPUs the process may use (see :func:`_priors`
    and :func:`_shared_priors`); the records do not depend on how many. An
    area whose fit raises ``EstimationError`` or ``ValueError``, a rejected
    map included, gets a DTA interval flagged as a fallback, so every record
    keeps the conformal coverage guarantee; any other error re-raises.
    """
    if table.J < 3:
        raise ValueError("the pipeline needs at least three areas")
    if alpha_mode != "exact" and (isinstance(alpha_mode, str) or not 0.0 < alpha_mode < 1.0):
        raise ValueError(f"alpha_mode must be 'exact' or a float in (0, 1), got {alpha_mode!r}")
    if not methods or not set(methods) <= {"fab", "dta"}:
        raise ValueError(f"methods must be a nonempty tuple of 'fab' and 'dta', got {methods!r}")

    priors = _shared_priors(table) if "fab" in methods else {}

    out: list[AreaPrediction] = []
    for j, (area, y) in enumerate(zip(table.ids, table.samples)):
        if y.size < 2:
            continue
        alpha_j = exact_alpha(y.size) if alpha_mode == "exact" else float(alpha_mode)
        params = priors.get(j)
        if isinstance(params, (EstimationError, ValueError)):
            logger.warning("area %s: falling back to DTA (%s)", area, params)
            params = None
        elif isinstance(params, Exception):
            raise params
        for method in methods:
            if method == "fab" and params is not None:
                interval = fab_interval_from_precision(y, params.mu_j, 1.0 / params.tau2_j, alpha_j)
                out.append(AreaPrediction(area, y.size, alpha_j, method, interval,
                                          mu_j=params.mu_j, tau2_j=params.tau2_j))
            else:
                # DTA, asked for or standing in for a FAB fit that failed.
                out.append(AreaPrediction(area, y.size, alpha_j, method, dta_interval(y, alpha_j),
                                          fallback=method == "fab"))
    return out


def __getattr__(name: str):
    # perfbench's traced runs wrap ``small_area.minimize`` by name, although
    # the package no longer calls it; resolved lazily so that importing
    # fabcp does not load scipy.optimize. ROADMAP item 1 removes this.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- synthetic data -------------------------------------------------------------


def generate_table(
    J: int,
    n_range: tuple[int, int],
    beta: Sequence[float],
    eta2: float,
    rho: float,
    a: float,
    b: float,
    rng: np.random.Generator,
    extent: float = 3.0,
) -> tuple[AreaTable, dict]:
    """Draw a synthetic area table exactly from the spatial working model.

    Centroids are uniform on ``[0, extent]^2``; one standard-normal
    covariate accompanies the intercept (``beta`` must have length 2).
    Returns the table and a dict of the generating truth, including the
    drawn ``theta`` and ``sigma2``.
    """
    if J < 2:
        raise ValueError("J must be at least 2")
    beta = np.asarray(beta, dtype=float)
    if beta.size != 2:
        raise ValueError("beta must have length 2 (intercept and one covariate)")
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise ValueError("invalid n_range")
    if not 0.0 <= eta2 < math.inf:
        raise ValueError(f"eta2 must be finite and nonnegative, got {eta2}")
    for name, value in (("a", a), ("b", b), ("extent", extent)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")

    centroids = rng.uniform(0.0, extent, size=(J, 2))
    covariate = rng.normal(size=J)
    X = np.column_stack([np.ones(J), covariate])
    W = sq_exp_weights(centroids)
    G = sar_covariance(rho, W)
    L = np.linalg.cholesky(eta2 * G + 1e-12 * np.eye(J))
    theta = X @ beta + L @ rng.normal(size=J)
    # sigma2 ~ InvGamma(a/2, b/2) == (b/2) / Gamma(a/2, 1)
    sigma2 = (b / 2.0) / rng.gamma(a / 2.0, 1.0, size=J)
    n = rng.integers(lo, hi + 1, size=J)
    samples = [theta[j] + math.sqrt(sigma2[j]) * rng.normal(size=int(n[j])) for j in range(J)]
    ids = [f"area{j:03d}" for j in range(J)]
    table = AreaTable(ids=ids, samples=samples, X=X, centroids=centroids)
    truth = {
        "beta": beta.tolist(),
        "eta2": float(eta2),
        "rho": float(rho),
        "a": float(a),
        "b": float(b),
        "theta": theta.tolist(),
        "sigma2": sigma2.tolist(),
    }
    return table, truth
