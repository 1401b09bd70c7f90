"""Tests for the shared prediction-interval record."""

import math

import pytest

from fabcp.intervals import PredictionInterval


@pytest.mark.parametrize("lower, upper, alpha, message", [
    (math.nan, 1.0, 0.25, "^interval bounds must not be NaN$"),
    (0.0, math.nan, 0.25, "^interval bounds must not be NaN$"),
    (2.0, 1.0, 0.25, "^lower bound 2.0 exceeds upper bound 1.0$"),
    (0.0, 1.0, 0.0, r"^alpha must lie in \(0, 1\), got 0.0$"),
    (0.0, 1.0, 1.0, r"^alpha must lie in \(0, 1\), got 1.0$"),
    (0.0, 1.0, math.nan, r"^alpha must lie in \(0, 1\), got nan$"),
])
def test_invalid_interval_rejected(lower, upper, alpha, message):
    with pytest.raises(ValueError, match=message):
        PredictionInterval(lower, upper, alpha, 1.0 - alpha)


def test_unbounded_and_degenerate_intervals_accepted():
    whole = PredictionInterval(-math.inf, math.inf, 0.1, 1.0)
    point = PredictionInterval(0.5, 0.5, 0.25, 0.75, k=1)
    assert whole.width == math.inf and whole.contains(1e300)
    assert point.degenerate and point.contains(0.5) and not point.contains(0.6)
