"""Correctly rounded summation of float64 arrays, bit-equal to ``math.fsum``.

``math.fsum`` reads a numpy array one boxed scalar at a time. This kernel
gives the same bits from a handful of whole-array numpy passes, by exact
accumulation per binary exponent (a "superaccumulator"; Collange, Defour,
Graillat & Iakymchuk, Parallel Computing 2015):

- ``np.frexp`` writes every finite value exactly as ``f * 2**e`` with
  ``0.5 <= |f| < 1`` (subnormals included), so ``t = f * 2**27`` splits
  exactly into an integer part ``hi`` (``|hi| < 2**27``) and a fraction
  ``lo`` that is a multiple of ``2**-26`` with ``|lo| < 1``.
- Per block of ``BLOCK`` values, ``np.bincount`` sums ``hi`` and ``lo``
  per exponent. Every partial sum is a multiple of ``2**-26`` below
  ``2**42``, so the float64 bins are exact. They are added up across
  blocks as int64: ``H_b``, the ``hi`` sums, and ``L_b``, the ``lo`` sums
  times ``2**26``.
- The exact total is the Python int ``T = sum((H_b * 2**26 + L_b) * 2**b)``
  over bins ``b = e + 1073``, and the sum is ``T / 2**1126``: CPython's
  int true division rounds correctly, half to even, as ``math.fsum`` does.

Inputs whose answer is not a correctly rounded nonzero finite sum go back
to ``math.fsum`` itself, so inf, nan, its ``OverflowError`` and the sign
of a zero total are whatever ``math.fsum`` gives on the running Python.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["fsum"]

# Up to this size ``math.fsum`` over a list beats the kernel's fixed cost
# of 35-50 us. On a 2-vCPU Xeon the two meet near 1024 values (36-57 us
# each over several runs); at 1536 values math.fsum took 69-88 us and the
# kernel 45-66 us.
CUTOFF = 1024
# Values per block: bins stay exact and a block's temporaries stay near 1 MB.
BLOCK = 1 << 15
# frexp exponents of finite doubles lie in [-1073, 1024].
_BIAS = 1073
_NBINS = 2098
_SCALE = 1 << 1126


def fsum(x: np.ndarray) -> float:
    """``math.fsum(x)``, bit for bit, for a one-dimensional array.

    Arrays of at most ``CUTOFF`` values, and arrays that are not float64,
    are summed by ``math.fsum`` over a list. So are inputs holding inf or
    nan, inputs where ``n * max|x|`` could come near overflow (``math.fsum``
    raises "intermediate overflow" there even when the exact sum is
    finite), and inputs whose exact sum is zero (for its sign).
    """
    n = x.size
    if n <= CUTOFF or x.dtype != np.float64:
        return math.fsum(x.tolist())
    # Every |x| in a block is below 2**e for its largest frexp exponent e,
    # so sum |x| < 2**(e + n.bit_length()). A block that lets this bound
    # pass 2**1021 goes back to math.fsum; below it, math.fsum's partials
    # stay below about twice sum |x| and cannot overflow.
    max_bins = _BIAS + 1022 - n.bit_length()
    hi_bins = np.zeros(_NBINS, np.int64)
    lo_bins = np.zeros(_NBINS, np.int64)
    for start in range(0, n, BLOCK):
        block = x[start:start + BLOCK]
        if not np.isfinite(block).all():
            return math.fsum(x.tolist())
        t, exp = np.frexp(block)
        t *= 2.0**27
        hi = np.trunc(t)
        t -= hi
        bins = np.add(exp, _BIAS, dtype=np.intp)
        h = np.bincount(bins, hi)
        if h.size > max_bins:
            return math.fsum(x.tolist())
        hi_bins[:h.size] += h.astype(np.int64)
        lo_bins[:h.size] += (np.bincount(bins, t) * 2.0**26).astype(np.int64)
    used = np.flatnonzero(hi_bins | lo_bins)
    total = sum(
        ((h << 26) + lo) << b
        for b, h, lo in zip(used.tolist(), hi_bins[used].tolist(), lo_bins[used].tolist())
    )
    if total == 0:
        return math.fsum(x.tolist())
    return total / _SCALE
