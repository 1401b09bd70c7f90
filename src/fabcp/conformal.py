"""Generic conformal machinery: measures, p-values, and a grid region oracle.

The grid oracle evaluates the conformal rank count at every point of a
candidate grid directly from a conformity measure's definition. It is a
test instrument for the exact O(n log n) interval algorithms, not part of
the user-facing prediction path.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .working_model import WorkingModelParams, _as_sample, _log_t_density, _posterior_rows

__all__ = [
    "ConformityMeasure",
    "FABMeasure",
    "DTAMeasure",
    "GridSpec",
    "GridRegion",
    "default_grid",
    "conformal_pvalue",
    "grid_region",
    "step_profile",
]


class ConformityMeasure(ABC):
    """Scores how well a point conforms to a conditioning multiset.

    Implementations must be deterministic and permutation-invariant in the
    conditioning multiset. ``augmented`` selects which conditioning set
    the conformal algorithm uses for observation ``i`` of the augmented
    sample: the full augmented bag when True, or the bag with that
    observation removed when False. Only score *orderings* matter, so a
    measure may return any strictly increasing transform of its defining
    score (e.g. a log density).
    """

    augmented: bool = False

    @abstractmethod
    def scores(self, bags: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Scores of ``points`` (R, q) against ``bags`` (R, m), row by row.

        Row r of the (R, q) result scores each of ``points[r]`` against the
        conditioning multiset ``bags[r]``.
        """

    def score(self, conditioning: np.ndarray, point: float) -> float:
        """Conformity score of ``point`` against ``conditioning``: a one-row :meth:`scores`."""
        bag = np.asarray(conditioning, dtype=float).reshape(1, -1)
        return float(self.scores(bag, np.full((1, 1), float(point)))[0, 0])


class FABMeasure(ConformityMeasure):
    """Posterior predictive log density of the normal working model."""

    def __init__(self, params: WorkingModelParams, augmented: bool = True):
        self.params = params
        self.augmented = augmented

    def scores(self, bags: np.ndarray, points: np.ndarray) -> np.ndarray:
        a_sigma, mu_theta, _, _, scale = _posterior_rows(bags, self.params)
        return _log_t_density(points, mu_theta[:, None], a_sigma, scale[:, None])


class DTAMeasure(ConformityMeasure):
    """Negative distance to the average of the conditioning multiset."""

    def __init__(self, augmented: bool = True):
        self.augmented = augmented

    def scores(self, bags: np.ndarray, points: np.ndarray) -> np.ndarray:
        return -np.abs(points - bags.mean(axis=1)[:, None])


# -- rank counts --------------------------------------------------------------


def _score_matrix(sample: np.ndarray, xs: np.ndarray, measure: ConformityMeasure) -> np.ndarray:
    """Scores ``c_1(x), ..., c_{n+1}(x)`` in row j for candidate ``x = xs[j]``.

    Observation i of the augmented bag ``(sample, x)`` is scored against
    that whole bag when the measure is augmented, or else against the bag
    minus observation i.
    """
    bags = np.empty((xs.size, sample.size + 1))
    bags[:, :-1] = sample
    bags[:, -1] = xs
    if measure.augmented:
        return measure.scores(bags, bags)
    matrix = np.empty_like(bags)
    for i in range(sample.size + 1):
        matrix[:, i] = measure.scores(np.delete(bags, i, axis=1), bags[:, i:i + 1])[:, 0]
    return matrix


def _counts(sample: np.ndarray, xs: np.ndarray, measure: ConformityMeasure) -> np.ndarray:
    """Rank count ``#{i : c_i(x) <= c_{n+1}(x)}`` for each candidate ``x`` of ``xs``."""
    matrix = _score_matrix(sample, xs, measure)
    return np.count_nonzero(matrix <= matrix[:, -1:], axis=1)


def conformal_pvalue(
    sample: Sequence[float] | np.ndarray,
    y_cand: float,
    measure: ConformityMeasure,
) -> float:
    """Conformal p-value ``#{i : c_i <= c_{n+1}} / (n+1)``.

    Always at least ``1/(n+1)``: the candidate's own score satisfies
    ``<=`` against itself. Score ties count as ``<=``.
    """
    y = _as_sample(sample)
    if not math.isfinite(y_cand):
        raise ValueError(f"candidate must be finite, got {y_cand}")
    return int(_counts(y, np.array([float(y_cand)]), measure)[0]) / (y.size + 1)


# -- grid oracle --------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """A uniform candidate grid ``lo, lo+res, ..., hi``."""

    lo: float
    hi: float
    num: int = 4001

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid bounds must be finite")
        if self.lo >= self.hi:
            raise ValueError(f"degenerate grid: lo={self.lo} >= hi={self.hi}")
        if self.num < 2:
            raise ValueError("grid needs at least two points")

    @property
    def resolution(self) -> float:
        return (self.hi - self.lo) / (self.num - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.num)


def default_grid(
    sample: Sequence[float] | np.ndarray,
    num: int = 4001,
    anchors: Sequence[float] = (),
) -> GridSpec:
    """Grid spanning the hull of sample and anchors, padded by 5 spans.

    Reflection-map candidates satisfy ``|g(y_i) - center| <= 3 * diam``
    where the hull contains the sample and the measure's center of
    shrinkage, so padding that hull by five of its spans provably covers
    the conformal region. Pass the prior mean as an anchor when the
    measure shrinks toward it; the distance-to-average measure needs no
    anchor.
    """
    pts = np.concatenate([np.asarray(sample, dtype=float), np.asarray(anchors, dtype=float)])
    span = float(np.max(pts) - np.min(pts))
    if span == 0.0:
        span = 1.0
    return GridSpec(float(np.min(pts)) - 5.0 * span, float(np.max(pts)) + 5.0 * span, num)


@dataclass(frozen=True)
class GridRegion:
    """Acceptance mask of a conformal region evaluated on a uniform grid."""

    grid_lo: float
    grid_hi: float
    resolution: float
    accepted: np.ndarray
    intervals: list[tuple[float, float]] = field(default_factory=list)


def step_profile(
    sample: Sequence[float] | np.ndarray,
    measure: ConformityMeasure,
    grid: GridSpec,
) -> np.ndarray:
    """Rank count ``#{i : c_i(x) <= c_{n+1}(x)}`` at each grid point.

    Under a reflection-map measure this is a unimodal staircase rising
    1, 2, ..., n+1 and falling back to 1.
    """
    return _counts(_as_sample(sample), grid.points(), measure)


def grid_region(
    sample: Sequence[float] | np.ndarray,
    measure: ConformityMeasure,
    alpha: float,
    grid: GridSpec,
) -> GridRegion:
    """Conformal region on a grid: points where the rank count exceeds ``k``.

    ``k = floor(alpha*(n+1))``. Contiguous accepted runs are reported as
    closed intervals between their first and last grid points.
    """
    y = _as_sample(sample)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    xs = grid.points()
    counts = _counts(y, xs, measure)
    k = int(math.floor(alpha * (y.size + 1)))
    accepted = counts > k

    intervals: list[tuple[float, float]] = []
    in_run = False
    start = 0.0
    for j, ok in enumerate(accepted):
        if ok and not in_run:
            in_run, start = True, float(xs[j])
        elif not ok and in_run:
            in_run = False
            intervals.append((start, float(xs[j - 1])))
    if in_run:
        intervals.append((start, float(xs[-1])))

    return GridRegion(
        grid_lo=grid.lo,
        grid_hi=grid.hi,
        resolution=grid.resolution,
        accepted=accepted,
        intervals=intervals,
    )
