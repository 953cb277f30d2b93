"""Hypothesis strategies shared by the test modules."""
from __future__ import annotations

import math
from fractions import Fraction as F

from hypothesis import strategies as st


def rationals(lo, hi, max_den: int):
    """The rationals in [lo, hi] with denominator at most max_den.

    These are the values of ``st.fractions(lo, hi, max_denominator=max_den)``,
    drawn as one pair of integers (denominator, numerator offset) instead of
    through a strategy that ``st.fractions`` builds and validates on each draw.
    Needs hi - lo >= 1, so that every denominator has a numerator in range.
    """

    def build(pair):
        den, offset = pair
        n_lo, n_hi = math.ceil(lo * den), math.floor(hi * den)
        return F(n_lo + offset % (n_hi - n_lo + 1), den)

    return st.tuples(st.integers(1, max_den), st.integers(0, math.floor((hi - lo) * max_den))).map(build)
