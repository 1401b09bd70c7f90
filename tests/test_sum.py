"""The summation kernel returns ``math.fsum``'s bits, or raises its exception type."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabcp._sum import BLOCK, CUTOFF, fsum


def _assert_same_as_fsum(x: np.ndarray) -> None:
    try:
        want = math.fsum(x.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            fsum(x)
        return
    got = fsum(x)
    if math.isnan(want):
        assert math.isnan(got)
        return
    assert got.hex() == want.hex()
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


SIZES = (CUTOFF - 1, CUTOFF, CUTOFF + 1, BLOCK - 1, BLOCK, BLOCK + 1)


def _values(rng, size, low, span):
    """Signed values with exponents drawn from [low, low + span], capped at 1023."""
    mantissa = rng.choice([-1.0, 1.0], size) * (1.0 + rng.random(size))
    return np.ldexp(mantissa, rng.integers(low, min(low + span, 1023) + 1, size))


def _column(x):
    matrix = np.zeros((x.size, 3))
    matrix[:, 1] = x
    return matrix[:, 1]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from(SIZES) | st.integers(1, 3 * BLOCK),
    low=st.integers(-1100, 1023),
    span=st.integers(0, 2100),
    cancel=st.sampled_from(["none", "pairs", "pairs and minus zeros"]),
    column=st.booleans(),
)
def test_matches_math_fsum(seed, n, low, span, cancel, column):
    """Subnormals to the top of the range, exact cancellation, strided columns."""
    rng = np.random.default_rng(seed)
    if cancel == "none":
        x = _values(rng, n, low, span)
    else:
        # Pairs v, -v sum to zero exactly; the rest are signed zeros.
        v = _values(rng, n // 2 if cancel == "pairs" else n // 4, low, span)
        zero = 0.0 if cancel == "pairs" else -0.0
        x = np.concatenate([v, -v, np.full(n - 2 * v.size, zero)])
        rng.shuffle(x)
    _assert_same_as_fsum(_column(x) if column else x)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from(SIZES),
    special=st.sampled_from([math.inf, -math.inf, math.nan]),
    count=st.integers(1, 3),
    column=st.booleans(),
)
def test_non_finite_values_follow_math_fsum(seed, n, special, count, column):
    rng = np.random.default_rng(seed)
    x = _values(rng, n, -10, 20)
    x[rng.integers(n, size=count)] = special
    x[rng.integers(n)] = -special if rng.random() < 0.3 else x[0]
    _assert_same_as_fsum(_column(x) if column else x)


@pytest.mark.parametrize("n", [CUTOFF + 1, BLOCK + 5])
def test_round_half_even_ties(n):
    x = np.zeros(n)
    x[0], x[-1] = 1.0, 2.0**-53
    assert fsum(x) == 1.0
    x[n // 2] = 2.0**-100
    assert fsum(x) == math.nextafter(1.0, 2.0)
    x[n // 2] = -(2.0**-100)
    assert fsum(x) == 1.0
    _assert_same_as_fsum(x)
    # A tie whose even neighbour lies above.
    x[0], x[n // 2] = 1.0 + 2.0**-52, 0.0
    assert fsum(x) == 1.0 + 2.0**-51


@pytest.mark.parametrize(
    "head",
    [
        [math.inf],
        [-math.inf, 1.0],
        [math.nan],
        [math.inf, -math.inf],  # ValueError
        [1e308, 1e308],  # the exact sum overflows
        [1e308, 1e308, -1e308, -1e308],  # finite sum, intermediate overflow
        [2.0**1000, -(2.0**1000)],
        [-0.0, -0.0],
    ],
)
def test_non_finite_and_overflow_follow_fsum(head):
    x = np.concatenate([np.array(head), np.full(BLOCK + 3, -0.0)])
    _assert_same_as_fsum(x)


def test_integer_arrays_are_summed_exactly():
    x = np.full(CUTOFF + 7, 2**60 + 1, dtype=np.int64)
    assert fsum(x) == math.fsum(x.tolist())
