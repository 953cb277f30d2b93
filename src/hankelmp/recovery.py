"""Recovery of the finitely supported measure behind a degenerate window.

The atoms are the real roots of the monic degree-n0 orthogonal polynomial p,
isolated with the Sturm sequence p = p_{n0}, ..., p_0 that the recurrence
pass of ``hankel`` already built; isolation, weights and extension
read the integer forms that each ``RationalPoly`` stores.  The weight of
atom x_j is w_j = N(x_j) / p'(x_j), where N(x_j) is the moment functional
applied to the synthetic-division quotient p / (x - x_j); N is one fixed
polynomial, so all weights cost O(n0**2).  When every atom is rational the
whole measure is exact, and ``DiscreteMeasure`` stores an atom interval
collapsed to a point as its rational.  Otherwise atoms are kept as
isolating intervals, N / p' is enclosed over each interval by integer
interval Horner, and the weight enclosures are rounded outward onto a 2**-P
grid, P about (digits + pad) * log2(10) + 8, so their size does not grow
with the refinement.  An independent residual check certifies every moment
up to s_{2*n0 - 1}, exactly when every atom is rational.  One routine,
``_moment_sums``, forms every sum w_j * x_j**k in the package: the residual
check and ``measure_moments`` of exact and inexact measures all call it on
atoms and weights as stored, reading an exact value v as the bounds (v, v),
and it sums over integers on one common denominator.  When every bound is
a point it takes one product per term; otherwise each term is the
interval product of a weight and a power enclosure.  The unique forward
extension of a degenerate window is always computed from the exact rational
recurrence, never from the recovered (possibly irrational) atoms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

from .errors import (
    InconsistentWindow,
    PrecisionUnattainable,
    PreconditionViolated,
)
from .exact import (
    IsolatingInterval,
    RationalInterval,
    RationalPoly,
    _at_denominator,
    _common_denominator,
    _value_at,
    refine_root,
    sturm_isolate,
)
from .hankel import _classified

__all__ = [
    "AtomValue",
    "DiscreteMeasure",
    "RationalInterval",
    "WeightValue",
    "extend",
    "measure_moments",
    "reconstruct",
]


AtomValue = Union[Fraction, IsolatingInterval]
WeightValue = Union[Fraction, RationalInterval]


def _bounds(value: AtomValue | WeightValue) -> tuple[Fraction, Fraction]:
    """(lo, hi) of an atom or weight; an exact value v gives (v, v)."""
    if isinstance(value, RationalInterval):
        return value.lo, value.hi
    return value, value


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many strictly increasing atoms with positive weights.

    Atoms are exact rationals or isolating intervals for algebraic points;
    weights are exact rationals, or rational enclosures whenever any atom is
    algebraic.  The empty measure (no atoms) is the zero measure.
    """

    atoms: tuple[AtomValue, ...]
    weights: tuple[WeightValue, ...]

    def __post_init__(self):
        # An int is an exact value, and so is an atom interval collapsed to a
        # point; as Fractions they keep the measure exact.
        atoms = (a.lo if isinstance(a, IsolatingInterval) and a.is_exact else a for a in self.atoms)
        for name, values in (("atoms", atoms), ("weights", self.weights)):
            values = tuple(Fraction(v) if isinstance(v, int) else v for v in values)
            object.__setattr__(self, name, values)
        if len(self.atoms) != len(self.weights):
            raise ValueError("atom and weight counts differ")
        for w in self.weights:
            if _bounds(w)[0] <= 0:
                raise ValueError(f"weight {w} is not certified positive")
        bounds = [_bounds(a) for a in self.atoms]
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            if hi >= lo:
                raise ValueError("atoms must be strictly increasing and disjoint")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(a, Fraction) for a in self.atoms) and all(
            isinstance(w, Fraction) for w in self.weights
        )

    def __len__(self) -> int:
        return len(self.atoms)


def _moment_sums(atoms: Sequence[AtomValue], weights: Sequence[WeightValue], count: int):
    """Enclosures of sum_j w_j * x_j**k for k < count, as integers (lo, hi, den).

    lo/den and hi/den bound the sum over x_j within ``_bounds(atoms[j])`` and
    w_j within ``_bounds(weights[j])``.  They are the endpoints of plain
    interval arithmetic: the tight enclosure of x**k over the atom interval
    (1 for k = 0), times the weight interval, summed over j.  All atom
    endpoints are written over one denominator X and all weight endpoints
    over one W, so every term of moment k shares the denominator W * X**k
    and nothing is reduced while summing.  This is the package's one moment
    sum: exact atoms and weights enter as (v, v) bounds, for which lo = hi is
    the exact moment.  When every atom and weight bound is a point, each
    term w_j * x_j**k is kept as one integer and takes one product per k.
    """
    xs, xden = _common_denominator(x for a in atoms for x in _bounds(a))
    ws, wden = _common_denominator(w for v in weights for w in _bounds(v))
    den = wden
    if xs[::2] == xs[1::2] and ws[::2] == ws[1::2]:
        x_pts, terms = xs[::2], ws[::2]
        for _ in range(count):
            total = sum(terms)
            yield total, total, den
            terms = list(map(mul, terms, x_pts))
            den *= xden
        return
    x_ints = list(zip(xs[::2], xs[1::2]))
    w_ints = list(zip(ws[::2], ws[1::2]))
    powers = [(1, 1)] * len(x_ints)
    for k in range(count):
        lo_sum = hi_sum = 0
        for (w_lo, w_hi), (x_lo, x_hi), (p_lo, p_hi) in zip(w_ints, x_ints, powers):
            if k == 0 or k % 2 == 1 or x_lo >= 0:
                a, b = p_lo, p_hi
            elif x_hi <= 0:
                a, b = p_hi, p_lo
            else:
                a, b = 0, max(p_lo, p_hi)
            products = (w_lo * a, w_lo * b, w_hi * a, w_hi * b)
            lo_sum += min(products)
            hi_sum += max(products)
        yield lo_sum, hi_sum, den
        powers = [(p_lo * x_lo, p_hi * x_hi) for (p_lo, p_hi), (x_lo, x_hi) in zip(powers, x_ints)]
        den *= xden


def measure_moments(mu: DiscreteMeasure, count: int, digits: int = 50):
    """Moments s_0..s_{count-1} of the measure.

    Exact rationals when the measure is exact; otherwise rational enclosures
    of width at most 10**-digits, obtained by refining the atom intervals as
    far as needed.  Raises ``ValueError`` for count < 1 or digits < 1.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if digits < 1:
        raise ValueError("digits must be a positive integer")
    if mu.is_exact:
        return [Fraction(lo, den) for lo, _, den in _moment_sums(mu.atoms, mu.weights, count)]
    scale = 10**digits
    atoms = mu.atoms
    # Each retry refines the last retry's intervals: refinement cells nest, so
    # this gives the intervals that refining the stored atoms would give.
    for pad in (5, 10, 20, 40, 80):
        atoms = [
            refine_root(a, digits + pad) if isinstance(a, IsolatingInterval) else a for a in atoms
        ]
        sums = list(_moment_sums(atoms, mu.weights, count))
        if all((hi - lo) * scale <= den for lo, hi, den in sums):
            return [RationalInterval(Fraction(lo, den), Fraction(hi, den)) for lo, hi, den in sums]
    raise PrecisionUnattainable(
        f"stored weight enclosures are too wide for 10^-{digits} moments"
    )


def _weight_polys(kernel: RationalPoly, moments: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """Integer polynomials N and D of degree n0 - 1 with w_j = N(x_j) / D(x_j).

    For a root x_j of the kernel p, the quotient q_j = p / (x - x_j) vanishes
    at every other atom, so sum_k [x^k]q_j * s_k = w_j * q_j(x_j) = w_j * p'(x_j).
    Synthetic division gives [x^k]q_j = sum_{i>k} c_i x_j^(i-k-1), so the
    numerator is N(x_j) with [x^m]N = sum_k c_{k+m+1} s_k, and D is p'.  Both
    are scaled by the same positive integer, which leaves N/D unchanged.
    """
    cs = kernel.primitive
    n0 = len(cs) - 1
    s_ints, scale = _common_denominator(moments[:n0])
    numer = [sum(cs[k + m + 1] * s_ints[k] for k in range(n0 - m)) for m in range(n0)]
    deriv = [j * c * scale for j, c in enumerate(cs)][1:]
    return numer, deriv


def _enclose(cs: Sequence[int], a: int, b: int, den: int) -> tuple[int, int]:
    """(lo, hi) with lo <= den**deg * f(x) <= hi for every x in [a/den, b/den].

    Interval Horner over integers: the accumulator after t steps is a
    numerator over den**t, so no step reduces a fraction.
    """
    lo = hi = cs[-1]
    dp = 1
    for c in reversed(cs[:-1]):
        dp *= den
        products = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(products) + c * dp, max(products) + c * dp
    return lo, hi


def _interval_weights(
    atom_ivs: Sequence[IsolatingInterval], numer: Sequence[int], deriv: Sequence[int], bits: int
) -> list[RationalInterval] | None:
    """Enclosures of N(x_j) / D(x_j), rounded outward onto the grid 2**-bits.

    Returns None when some enclosure of D(x_j) holds 0, so that no quotient
    can be bounded at this precision.
    """
    weights = []
    for iv in atom_ivs:
        (a, b), den = _common_denominator((iv.lo, iv.hi))
        n_lo, n_hi = _enclose(numer, a, b, den)
        d_lo, d_hi = _enclose(deriv, a, b, den)
        if d_lo <= 0 <= d_hi:
            return None
        # N and D have one degree, so their den**deg scales cancel.
        corners = [(n << bits, d) for n in (n_lo, n_hi) for d in (d_lo, d_hi)]
        lo = min(n // d for n, d in corners)
        hi = max(-(-n // d) for n, d in corners)
        weights.append(RationalInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)))
    return weights


def _residuals_certified(
    atoms: Sequence[AtomValue],
    weights: Sequence[WeightValue],
    moments: Sequence[Fraction],
    upto: int,
    tol: Fraction,
) -> bool:
    """True when sum_j w_j x_j**k is within tol of s_k for every k < upto."""
    for (lo, hi, den), s in zip(_moment_sums(atoms, weights, upto), moments[:upto]):
        floor, ceiling = s - tol, s + tol
        if lo * floor.denominator < floor.numerator * den:
            return False
        if hi * ceiling.denominator > ceiling.numerator * den:
            return False
    return True


def reconstruct(w, digits: int = 50) -> DiscreteMeasure:
    """Recover the unique n0-point measure of a consistent degenerate window.

    Atoms are the roots of the monic degree-n0 orthogonal polynomial p;
    rational roots stay exact.  Each weight is w_j = N(x_j) / p'(x_j) for the
    fixed numerator N of ``_weight_polys``, O(n0**2) in all.  With any
    irrational atom, all weights are returned as enclosures on a dyadic grid,
    refined until the moment residuals up to s_{2*n0 - 1} are certified
    within 10**-digits and every weight is certified positive.  Raises
    ``ValueError`` for digits < 1 and ``PreconditionViolated`` unless the
    window classifies as ``Degenerate`` with a consistent tail.  ``w`` may
    be a ``WindowAnalysis``, whose classification and polynomials are then
    read without another recurrence pass.
    """
    if digits < 1:
        raise ValueError("digits must be a positive integer")
    w, cls, polys = _classified(w)
    if polys is None:
        raise PreconditionViolated(f"reconstruct needs a consistent degenerate window, got {cls}")
    kernel = polys[-1]
    n0 = kernel.degree
    # p_{n0}, ..., p_0 is a Sturm sequence for the kernel: beta_1..beta_{n0-1}
    # are positive on this window, so consecutive p_k have interlacing roots
    # (Szego, Orthogonal Polynomials, Sec. 3.3) and p_{k-1} and p_{k+1} have
    # opposite signs at each root of p_k.
    roots = sturm_isolate(polys[::-1])
    if len(roots) != n0:
        raise InconsistentWindow(
            f"kernel polynomial has {len(roots)} real roots, expected {n0}"
        )
    moments = list(w[: 2 * n0])
    numer, deriv = _weight_polys(kernel, moments)
    if all(r.is_exact for r in roots):
        atoms = [r.lo for r in roots]
        weights = [
            Fraction(_value_at(_at_denominator(numer, a.denominator), a.numerator, 0),
                     _value_at(_at_denominator(deriv, a.denominator), a.numerator, 0))
            for a in atoms
        ]
        if any(weight <= 0 for weight in weights):
            raise InconsistentWindow("recovered a non-positive weight")
        if not _residuals_certified(atoms, weights, moments, 2 * n0, Fraction(0)):
            raise InconsistentWindow(f"an exact residual up to s_{2 * n0 - 1} is nonzero")
        return DiscreteMeasure(tuple(atoms), tuple(weights))
    tol = Fraction(1, 10**digits)
    refined = roots
    for pad in (10, 20, 40, 80, 160):
        # As in measure_moments, a retry refines the last retry's intervals.
        refined = [refine_root(r, digits + pad) for r in refined]
        # Grid step 2**-bits is below 10**-(digits + pad) / 256.
        bits = (10 ** (digits + pad)).bit_length() + 8
        weight_ivs = _interval_weights(refined, numer, deriv, bits)
        if (
            weight_ivs is not None
            and all(iv.lo > 0 for iv in weight_ivs)
            and _residuals_certified(refined, weight_ivs, moments, 2 * n0, tol)
        ):
            return DiscreteMeasure(tuple(refined), tuple(weight_ivs))
    raise InconsistentWindow("weight enclosures failed residual certification")


def extend(w, count: int) -> list[Fraction]:
    """The unique exact continuation s_{m+1}..s_{m+count} of a degenerate window.

    Uses the linear recurrence carried by the coefficients of the monic
    degree-n0 orthogonal polynomial; for n0 = 0 the continuation is zero.
    Raises ``PreconditionViolated`` unless the window classifies as
    ``Degenerate`` with a consistent tail.  ``w`` may be a
    ``WindowAnalysis``, read without another recurrence pass.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    w, cls, polys = _classified(w)
    if polys is None:
        raise PreconditionViolated(f"extend needs a consistent degenerate window, got {cls}")
    # The monic kernel is x**n0 + sum_{j < n0} (cs[j] / den) x**j.
    kernel = polys[-1]
    cs, n0, den = kernel.numerators[:-1], kernel.degree, kernel.denominator
    values = list(w)
    for _ in range(count):
        values.append(-sum(map(mul, cs, values[len(values) - n0 :]), Fraction(0)) / den)
    return values[len(w) :]
