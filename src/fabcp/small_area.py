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
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import gammaln

from .baselines import dta_interval
from .fab import fab_interval_from_precision
from .intervals import PredictionInterval

logger = logging.getLogger(__name__)

__all__ = [
    "AreaTable",
    "SpatialSpec",
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
        if len(self.samples) != J or self.X.shape[0] != J or self.centroids.shape[0] != J:
            raise ValueError("inconsistent area counts across table fields")
        if self.centroids.shape[1] != 2:
            raise ValueError("centroids must be (J, 2)")
        for y in self.samples:
            if y.ndim != 1 or y.size < 1 or not np.all(np.isfinite(y)):
                raise ValueError("each area needs a finite, nonempty sample")

    @property
    def J(self) -> int:
        return len(self.ids)

    @property
    def n(self) -> np.ndarray:
        return np.array([y.size for y in self.samples])

    @property
    def ybar(self) -> np.ndarray:
        return np.array([math.fsum(y) / y.size for y in self.samples])

    @property
    def s2(self) -> np.ndarray:
        """Within-area sums of squares about the mean; NaN when n_j < 2."""
        out = np.full(self.J, np.nan)
        for j, y in enumerate(self.samples):
            if y.size >= 2:
                m = math.fsum(y) / y.size
                out[j] = math.fsum((v - m) ** 2 for v in y)
        return out


@dataclass(frozen=True)
class SpatialSpec:
    """Validated spatial linking-model parameters (true or fitted)."""

    W: np.ndarray
    rho: float
    eta2: float
    beta: np.ndarray

    def __post_init__(self) -> None:
        _check_weights(self.W)
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if self.eta2 <= 0.0:
            raise ValueError(f"eta2 must be positive, got {self.eta2}")
        sar_covariance(self.rho, self.W)  # asserts (I - rho W) is invertible

    def covariance(self) -> np.ndarray:
        """The implied prior covariance of the area means, eta2 * G(rho)."""
        return self.eta2 * sar_covariance(self.rho, self.W)


@dataclass(frozen=True)
class AreaConformalParams:
    """Leave-one-out conformal prior for a single area."""

    mu_j: float
    tau2_j: float
    sigma2_hat_j: float

    def __post_init__(self) -> None:
        if self.tau2_j <= 0.0:
            raise ValueError(f"tau2_j must be positive, got {self.tau2_j}")
        if self.sigma2_hat_j <= 0.0:
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


def _zap_tiny(M: np.ndarray, rel: float = 1e-14) -> np.ndarray:
    """Zero entries negligibly small relative to the largest magnitude.

    Entries this far below the matrix scale carry no statistical content
    but breed subnormal intermediates inside LAPACK factorizations, which
    run orders of magnitude slower.
    """
    M[np.abs(M) < rel * np.abs(M).max()] = 0.0
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


def _split_s2(s2_list: Sequence[tuple[float, int]]) -> tuple[np.ndarray, np.ndarray]:
    pairs = [(float(s2), int(n)) for s2, n in s2_list if int(n) >= 2]
    if len(pairs) < 2:
        raise ValueError("need at least two areas with n >= 2")
    s2 = np.array([p[0] for p in pairs])
    n = np.array([p[1] for p in pairs])
    if np.any(s2 < 0.0) or not np.all(np.isfinite(s2)):
        raise ValueError("sums of squares must be finite and nonnegative")
    return s2, n


def ab_marginal_loglik(a: float, b: float, s2_list: Sequence[tuple[float, int]]) -> float:
    """Log marginal likelihood of the within-area sums of squares.

    Marginalizing the area variance out of the chi-square law of
    ``S2_k / sigma2_k`` under ``sigma2 ~ InvGamma(a/2, b/2)`` leaves, up
    to an (a, b)-free factor, the kernel

        Gamma((a+n_k-1)/2) (b/2)^(a/2)
        ------------------------------------------
        Gamma(a/2) ((b+s2_k)/2)^((a+n_k-1)/2)

    summed in log over areas with ``n_k >= 2``.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    s2, n = _split_s2(s2_list)
    half_post = (a + n - 1.0) / 2.0
    return float(
        np.sum(gammaln(half_post))
        - s2.size * gammaln(a / 2.0)
        + s2.size * (a / 2.0) * math.log(b / 2.0)
        - np.sum(half_post * np.log((b + s2) / 2.0))
    )


_LOG_A_BOX = (-6.0, 7.0)
_LOG_B_BOX = (-12.0, 12.0)


def estimate_ab(s2_list: Sequence[tuple[float, int]], max_iter: int = 2000) -> tuple[float, float]:
    """Maximum-likelihood inverse-gamma hyperparameters from area variances.

    Runs a Nelder-Mead search in ``(log a, log b)`` started from method-of-
    moments values. The search is clamped to a generous box: when the area
    variances look homogeneous the likelihood rises along an ``a -> inf``
    ridge, and the clamped fit settles at the box edge, i.e. near-complete
    pooling. Raises :class:`EstimationError` with the best point found if
    the simplex fails to converge.
    """
    s2, n = _split_s2(s2_list)
    v = s2 / (n - 1.0)
    m = float(np.mean(v))
    if m <= 0.0:
        m = 1e-8
    var = float(np.var(v))
    alpha0 = m * m / var + 2.0 if var > 0.0 else 10.0
    alpha0 = min(max(alpha0, 2.2), 100.0)
    beta0 = m * (alpha0 - 1.0)
    x0 = np.log([2.0 * alpha0, 2.0 * beta0])

    half_post = (n - 1.0) / 2.0  # added to a/2 inside the objective

    def clamp(x: np.ndarray) -> tuple[float, float]:
        return (
            min(max(float(x[0]), _LOG_A_BOX[0]), _LOG_A_BOX[1]),
            min(max(float(x[1]), _LOG_B_BOX[0]), _LOG_B_BOX[1]),
        )

    def neg_ll(x: np.ndarray) -> float:
        la, lb = clamp(x)
        a, b = math.exp(la), math.exp(lb)
        hp = a / 2.0 + half_post
        return -(
            np.sum(gammaln(hp))
            - s2.size * gammaln(a / 2.0)
            + s2.size * (a / 2.0) * math.log(b / 2.0)
            - np.sum(hp * np.log((b + s2) / 2.0))
        )

    res = minimize(
        neg_ll,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-11, "maxiter": max_iter, "maxfev": 2 * max_iter},
    )
    la, lb = clamp(res.x)
    a_hat, b_hat = math.exp(la), math.exp(lb)
    if not res.success:
        raise EstimationError(
            f"variance hyperparameter fit did not converge: {res.message}",
            best_point=(a_hat, b_hat),
        )
    return a_hat, b_hat


def eb_variances(
    a_hat: float,
    b_hat: float,
    s2_list: Sequence[tuple[float, int]],
) -> tuple[np.ndarray, float]:
    """Empirical-Bayes area variance estimates.

    Observed areas get the posterior mode of ``sigma2_k`` given its sum of
    squares, ``(b + s2_k) / (a + n_k + 1)``; the held-out area gets the
    prior mode ``b / (a + 2)``.
    """
    if a_hat <= 0.0 or b_hat <= 0.0:
        raise ValueError("a_hat and b_hat must be positive")
    s2 = np.array([float(p[0]) for p in s2_list])
    n = np.array([int(p[1]) for p in s2_list])
    sigma2_k = (b_hat + s2) / (a_hat + n + 1.0)
    sigma2_heldout = b_hat / (a_hat + 2.0)
    return sigma2_k, float(sigma2_heldout)


# -- spatial mean model ---------------------------------------------------------


class _RhoProfile:
    """Whitened eigenbasis of one candidate rho, shared across eta2 values.

    The SAR precision ``Q = (I - rho W)(I - rho W^T)`` is formed directly,
    never inverted. With ``M = eta2 * G + diag(d)``, ``G = Q^-1`` and
    ``S = d^1/2 Q d^1/2 = U diag(mu) U^T``, the whitened covariance
    ``d^-1/2 G d^-1/2`` has the same eigenvectors and eigenvalues
    ``1 / mu``. Every quantity the Gaussian likelihood needs then reduces
    to diagonal weights ``mu / (eta2 + mu)`` in the rotated coordinates, so
    the inner eta2 search costs O(J p^2) per evaluation and the covariance
    is positive definite for every eta2 >= 0 by construction.

    Raises ``ValueError`` when ``(I - rho W)`` is numerically singular.
    """

    def __init__(self, rho: float, W: np.ndarray, d: np.ndarray, ybar: np.ndarray, X: np.ndarray):
        if not -1.0 < rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {rho}")
        self.J, p = X.shape
        A = np.eye(self.J) - rho * W
        self.sqrt_d = np.sqrt(d)
        self.mu, self.U = np.linalg.eigh(_zap_tiny((A @ A.T) * np.outer(self.sqrt_d, self.sqrt_d)))
        if not self.mu[0] > 0.0:
            raise ValueError(f"(I - rho W) is numerically singular at rho={rho}")
        # Eigenvalues of the whitened covariance; ``1 / (eta2 * lam + 1)``
        # is the weight ``mu / (eta2 + mu)`` and ``log(eta2 * lam + 1)`` the
        # log-determinant term ``log(eta2 + mu) - log(mu)`` without the
        # cancellation between two large sums.
        self.lam = 1.0 / self.mu
        s = 1.0 / self.sqrt_d
        self.Xt = self.U.T @ (X * s[:, None])
        self.yt = self.U.T @ (ybar * s)
        # Per-eigenvector products, so the eta2 scan is two matmuls.
        self.XtXt = (self.Xt[:, :, None] * self.Xt[:, None, :]).reshape(self.J, p * p)
        self.Xtyt = self.Xt * self.yt[:, None]
        self.logdet_d = float(np.sum(np.log(d)))

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

    def max_eta2(self, rounds: int = 3) -> tuple[float, float, np.ndarray]:
        """Maximize the profiled likelihood over eta2 by zooming log grids.

        A coarse scan over log eta2 in [-14, 6] followed by ``rounds - 1``
        zooms onto the incumbent's grid cell; derivative-free and immune
        to the flat left tail when the best eta2 is effectively zero.
        Returns the maximizing eta2, its log likelihood and its GLS beta.
        """
        lo, hi = -14.0, 6.0
        for _ in range(rounds):
            grid = np.linspace(lo, hi, 41)
            eta2s = np.exp(grid)
            lls, betas = self.loglik_batch(eta2s)
            i = int(np.argmax(lls))
            span = grid[1] - grid[0]
            lo, hi = grid[i] - span, grid[i] + span
        return float(eta2s[i]), float(lls[i]), betas[i]

    def blup(self, eta2: float, beta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Shrinkage estimate ``X beta + eta2 G M^-1 (ybar - X beta)``.

        In the eigenbasis ``eta2 G M^-1 r = eta2 d^1/2 U [U^T d^-1/2 r / (eta2 + mu)]``,
        and ``U^T d^-1/2 r`` is the rotated residual ``yt - Xt beta``.
        """
        z = self.yt - self.Xt @ beta
        return X @ beta + eta2 * self.sqrt_d * (self.U @ (z / (eta2 + self.mu)))


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


def _golden_max(f, lo: float, hi: float, tol: float = 1e-3, max_iter: int = 60) -> tuple:
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
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc[0] > fd[0]:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, *fc) if fc[0] > fd[0] else (d, *fd)


def fit_mean_model(
    ybar: np.ndarray,
    sampling_var: np.ndarray,
    X: np.ndarray,
    W: np.ndarray,
    rho_bounds: tuple[float, float] = (-0.99, 0.99),
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
    if np.any(d <= 0.0):
        raise ValueError("sampling variances must be positive")
    _check_weights(W)

    def profile_rho(rho: float) -> tuple[float, _RhoProfile | None]:
        try:
            profile = _RhoProfile(rho, W, d, ybar, X)
        except ValueError:
            return -math.inf, None
        return profile.max_eta2(rounds=3)[1], profile

    # The final fit at rho_hat reuses the eigenbasis the search built there.
    rho_hat, best_ll, profile = _golden_max(profile_rho, rho_bounds[0], rho_bounds[1], tol=5e-3)
    if not math.isfinite(best_ll):
        raise EstimationError("no candidate rho admits a positive-definite covariance")

    eta2_hat, ll, beta_hat = profile.max_eta2(rounds=5)
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
    if sigma2_hat_j <= 0.0:
        raise ValueError("sigma2_hat_j must be positive")
    if not -1.0 < rho_hat < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho_hat}")
    if eta2_hat <= 0.0:
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


@dataclass(frozen=True)
class _TableStats:
    """Per-table quantities every leave-one-out fit reads, computed once."""

    n: np.ndarray
    s2: np.ndarray
    ybar: np.ndarray
    W: np.ndarray | None  # weights over all areas; None if the map is rejected

    @classmethod
    def of(cls, table: AreaTable) -> "_TableStats":
        try:
            W = sq_exp_weights(table.centroids)
        except ValueError:
            W = None
        return cls(n=table.n, s2=table.s2, ybar=table.ybar, W=W)


def loo_conformal_params(
    table: AreaTable, j: int, stats: _TableStats | None = None
) -> AreaConformalParams:
    """Estimate area ``j``'s conformal prior from every other area's data."""
    if stats is None:
        stats = _TableStats.of(table)
    J = table.J
    rest = [i for i in range(J) if i != j]
    n = stats.n
    s2 = stats.s2

    s2_pairs = [(s2[i], int(n[i])) for i in rest if n[i] >= 2]
    a_hat, b_hat = estimate_ab(s2_pairs)
    all_pairs = [(s2[i] if n[i] >= 2 else 0.0, int(n[i])) for i in rest]
    sigma2_rest, sigma2_j = eb_variances(a_hat, b_hat, all_pairs)

    W_rest = sq_exp_weights(table.centroids[rest])
    fit = fit_mean_model(
        stats.ybar[rest],
        sigma2_rest / n[rest],
        table.X[rest],
        W_rest,
    )
    # A map the full weights reject is rejected here again, so each area
    # falls back with the weights' own error.
    W_full = stats.W if stats.W is not None else sq_exp_weights(table.centroids)
    return conditional_params(
        j, fit.beta, fit.eta2, fit.rho, fit.theta, W_full, table.X, sigma2_j
    )


def _predict_area(
    table: AreaTable,
    stats: _TableStats,
    j: int,
    alpha_mode: float | str,
    methods: tuple[str, ...],
) -> list[AreaPrediction]:
    y = table.samples[j]
    n_j = y.size
    alpha_j = exact_alpha(n_j) if alpha_mode == "exact" else float(alpha_mode)
    out: list[AreaPrediction] = []

    params: AreaConformalParams | None = None
    fallback = False
    if "fab" in methods:
        try:
            params = loo_conformal_params(table, j, stats)
        except (EstimationError, ValueError, np.linalg.LinAlgError) as exc:
            logger.warning("area %s: falling back to DTA (%s)", table.ids[j], exc)
            fallback = True

    for method in methods:
        if method == "fab" and params is not None:
            interval = fab_interval_from_precision(y, params.mu_j, 1.0 / params.tau2_j, alpha_j)
            out.append(
                AreaPrediction(
                    table.ids[j], n_j, alpha_j, "fab", interval,
                    mu_j=params.mu_j, tau2_j=params.tau2_j,
                )
            )
        elif method == "fab":
            interval = dta_interval(y, alpha_j)
            out.append(
                AreaPrediction(table.ids[j], n_j, alpha_j, "fab", interval, fallback=True)
            )
        elif method == "dta":
            interval = dta_interval(y, alpha_j)
            out.append(AreaPrediction(table.ids[j], n_j, alpha_j, "dta", interval))
        else:
            raise ValueError(f"unknown method {method!r}")
    return out


def area_pipeline(
    table: AreaTable,
    alpha_mode: float | str = "exact",
    methods: tuple[str, ...] = ("fab",),
    n_jobs: int = 1,
) -> list[AreaPrediction]:
    """Leave-one-area-out prediction intervals for every area with ``n_j >= 2``.

    Parameters
    ----------
    table : AreaTable
    alpha_mode : float or "exact"
        Fixed error rate, or the per-area exact-coverage rule
        ``alpha_j = floor((n_j+1)/3) / (n_j+1)``.
    methods : tuple of {"fab", "dta"}
        Emits one record per area per method; ``("fab", "dta")`` gives the
        paired rows used for width comparisons.
    n_jobs : int
        Number of worker threads; per-area fits are independent and
        results are returned in table order regardless.

    Areas whose hyperparameter fit fails get a DTA interval flagged as a
    fallback, so every returned record keeps the conformal coverage
    guarantee.
    """
    if table.J < 3:
        raise ValueError("the pipeline needs at least three areas")
    if isinstance(alpha_mode, str) and alpha_mode != "exact":
        raise ValueError(f"alpha_mode must be a float or 'exact', got {alpha_mode!r}")
    stats = _TableStats.of(table)
    targets = [j for j in range(table.J) if stats.n[j] >= 2]

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            chunks = list(
                pool.map(lambda j: _predict_area(table, stats, j, alpha_mode, methods), targets)
            )
    else:
        chunks = [_predict_area(table, stats, j, alpha_mode, methods) for j in targets]
    return [rec for chunk in chunks for rec in chunk]


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
