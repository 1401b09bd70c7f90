"""Shared prediction-interval record returned by every interval method."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PredictionInterval"]


@dataclass(frozen=True)
class PredictionInterval:
    """A (possibly unbounded or degenerate) prediction interval.

    Attributes
    ----------
    lower, upper : float
        Interval bounds; ``-inf``/``+inf`` for an unbounded side. Endpoints
        are closed: for continuous data the open/closed distinction has
        probability zero, and closed endpoints match the ``<=`` used in the
        conformal rank count.
    nominal_alpha : float
        The requested prediction error rate.
    achieved_level : float
        Coverage level actually guaranteed. For conformal intervals this is
        ``1 - k/(n+1)`` with ``k = floor(alpha*(n+1))``; for parametric
        intervals it equals ``1 - nominal_alpha``.
    k : int or None
        Conformal rank cutoff ``floor(alpha*(n+1))``; ``None`` for
        parametric methods.
    """

    lower: float
    upper: float
    nominal_alpha: float
    achieved_level: float
    k: int | None = None

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval bounds must not be NaN")
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")
        if not 0.0 < self.nominal_alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.nominal_alpha}")

    @property
    def degenerate(self) -> bool:
        """True when the interval has collapsed to a single point."""
        return self.lower == self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        """Closed-endpoint membership test."""
        return self.lower <= y <= self.upper
