"""Recovery of the finitely supported measure behind a degenerate window.

The atoms are the real roots of the monic degree-n0 orthogonal polynomial p,
which are the eigenvalues of the window's Jacobi matrix.  Floats only
propose and exact integers decide: the ``WindowAnalysis`` record turns each
float eigenvalue into a continued-fraction convergent r / q with q < 2**16,
and accepts n0 distinct ones only when the product of their q x - r is
orthogonal to 1..x**(n0-1) on the window, so they are the whole root set
and p is that product (``hankel._hinted_atoms``, once per record).  When a
hint fails, the atoms are isolated with the Sturm sequence p = p_{n0}, ...,
p_0, built from the recurrence only then.  Isolation, weights and
extension read the integer forms that each ``RationalPoly`` stores.  The
weight of atom x_j is w_j = N(x_j) / p'(x_j), where N(x_j) is the moment
functional applied to the synthetic-division quotient p / (x - x_j); N is
one fixed polynomial, so all weights cost O(n0**2).  When every atom is
rational the whole measure is exact, and ``DiscreteMeasure`` stores an atom
interval collapsed to a point as its rational.  Otherwise atoms are kept as
isolating intervals, N / p' is enclosed over each interval by integer
interval Horner, and the weight enclosures are rounded outward onto a 2**-P
grid, P about (digits + pad) * log2(10) + 8, so their size does not grow
with the refinement.  An independent residual check certifies every moment
up to s_{2*n0 - 1}, exactly when every atom is rational.  One routine,
``_moment_sums``, forms every sum w_j * x_j**k in the package: the residual
check and ``measure_moments`` of exact and inexact measures all call it on
atoms and weights as stored, reading an exact value v as the bounds (v, v).
When every bound is a point it sums one product per term over integers on
one common denominator, and the sums are exact.  Otherwise every bound is
rounded outward onto the 2**-P grid, and so is each power enclosure after
every multiplication, so entries stay O(P + k * log2 max|x_j|) bits instead
of growing by one endpoint size per power.  Outward rounding only widens an
enclosure, so a sum on the grid contains the exact one, and a residual that
passes on the grid passes exactly.  ``reconstruct`` and ``measure_moments``
share one refinement loop, ``_refinements``: each round refines the atoms
to 10**-(digits + pad) and sets P from the pad, and each caller reads its
own reach for the pads past 160 off its data.  An interval product whose
factors have known signs is formed from two end products, which are the
same integers the min and max of the four corner products give.  The
unique forward extension of a degenerate window is always computed from
the exact kernel's coefficients, never from enclosures of irrational atoms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

from .errors import InconsistentWindow, PrecisionUnattainable
from .exact import (
    MAX_DECIMAL_EXPONENT,
    IsolatingInterval,
    RationalInterval,
    RationalPoly,
    _at_denominator,
    _common_denominator,
    _is_int,
    _not_text,
    _root_bound_exponent,
    _value_at,
    refine_root,
    sturm_isolate,
)
from .hankel import _consistent_analysis

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
    algebraic.  The empty measure (no atoms) is the zero measure.  An int
    is stored as a ``Fraction``; any other atom or weight, and atoms or
    weights given as one str or bytes, raise ``ValueError``.
    """

    atoms: tuple[AtomValue, ...]
    weights: tuple[WeightValue, ...]

    def __post_init__(self):
        # An int is an exact value, and so is an atom interval collapsed to a
        # point; as Fractions they keep the measure exact.
        atoms = (
            a.lo if isinstance(a, IsolatingInterval) and a.is_exact else a
            for a in _not_text(self.atoms, "atoms")
        )
        weights = _not_text(self.weights, "weights")
        for name, values, interval in (
            ("atoms", atoms, IsolatingInterval), ("weights", weights, RationalInterval)
        ):
            values = tuple(Fraction(v) if isinstance(v, int) else v for v in values)
            for v in values:
                if not isinstance(v, (Fraction, interval)):
                    kinds = f"ints, Fractions or {interval.__name__}s"
                    raise ValueError(f"{name} must be {kinds}, not {type(v).__name__}")
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


def _product(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[int, int]:
    """(lo, hi) of {x * y : a_lo <= x <= a_hi, b_lo <= y <= b_hi}.

    When either factor has a known sign, the bounds are two end products;
    only when both hold 0 inside does it compare the four corner products.
    """
    if b_lo < 0 < b_hi:
        if a_lo < 0 < a_hi:
            return min(a_lo * b_hi, a_hi * b_lo), max(a_lo * b_lo, a_hi * b_hi)
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
    if b_lo >= 0:
        return a_lo * (b_hi if a_lo < 0 else b_lo), a_hi * (b_lo if a_hi < 0 else b_hi)
    return a_hi * (b_hi if a_hi < 0 else b_lo), a_lo * (b_lo if a_lo < 0 else b_hi)


def _on_grid(lo: Fraction, hi: Fraction, bits: int) -> tuple[int, int]:
    """Integers (a, b) with a / 2**bits <= lo <= hi <= b / 2**bits, tight."""
    return (lo.numerator << bits) // lo.denominator, -((-hi.numerator << bits) // hi.denominator)


def _moment_sums(
    atoms: Sequence[AtomValue], weights: Sequence[WeightValue], count: int, bits: int | None = None
):
    """Enclosures of sum_j w_j * x_j**k for k < count, as integers (lo, hi, den).

    lo/den and hi/den bound the sum over x_j within ``_bounds(atoms[j])`` and
    w_j within ``_bounds(weights[j])``.  This is the package's one moment
    sum, and it has two branches, chosen from the bounds alone.  When every
    atom and weight bound is a point, the atoms are written over one
    denominator X and the weights over one W, each term w_j * x_j**k is kept
    as one integer over W * X**k and takes one product per k, and lo = hi is
    the exact moment.  Otherwise ``bits`` is required: every bound is
    rounded outward onto the grid 2**-bits, the power enclosure of
    x_j**(k+1) is the interval product of that of x_j**k and the atom's,
    rounded outward onto the same grid, and den is 2**(2 * bits) for every
    k.  Each step only widens an enclosure of the exact value, so the result
    contains the exact sum's enclosure, while its integers stay
    O(bits + k * log2 max|x_j|) bits long.
    """
    x_bounds = [_bounds(a) for a in atoms]
    w_bounds = [_bounds(w) for w in weights]
    if all(lo == hi for lo, hi in x_bounds + w_bounds):
        x_pts, xden = _common_denominator(lo for lo, _ in x_bounds)
        terms, den = _common_denominator(lo for lo, _ in w_bounds)
        for _ in range(count):
            total = sum(terms)
            yield total, total, den
            terms = list(map(mul, terms, x_pts))
            den *= xden
        return
    x_ints = [_on_grid(lo, hi, bits) for lo, hi in x_bounds]
    w_ints = [_on_grid(lo, hi, bits) for lo, hi in w_bounds]
    powers = [(1 << bits, 1 << bits)] * len(x_ints)
    for _ in range(count):
        lo_sum = hi_sum = 0
        for w, p in zip(w_ints, powers):
            lo, hi = _product(*w, *p)
            lo_sum += lo
            hi_sum += hi
        yield lo_sum, hi_sum, 1 << 2 * bits
        powers = [_product(*p, *x) for p, x in zip(powers, x_ints)]
        powers = [(lo >> bits, -(-hi >> bits)) for lo, hi in powers]


def _refinements(atoms: Sequence[AtomValue], digits: int, reach: int):
    """Each round's atoms, refined to width 10**-(digits + pad), and its grid bits.

    The pads are 10, 20, 40, 80 and 160, and they go on doubling while the
    last is below reach + 10.  The grid step 2**-bits is below
    10**-(digits + pad) / 256.  A round refines the last round's intervals:
    refinement cells nest, so this gives the intervals that refining the
    given atoms would give.  Exact atoms pass unchanged.
    """
    pad = 10
    while True:
        atoms = [a if isinstance(a, Fraction) else refine_root(a, digits + pad) for a in atoms]
        yield atoms, (10 ** (digits + pad)).bit_length() + 8
        if pad >= max(160, reach + 10):
            return
        pad *= 2


def _log10(x: Fraction) -> float:
    return math.log10(x.numerator) - math.log10(x.denominator)


def measure_moments(mu: DiscreteMeasure, count: int, digits: int = 50):
    """Moments s_0..s_{count-1} of the measure.

    Exact rationals when the measure is exact; otherwise rational enclosures
    of width at most 10**-digits on a 2**-P grid, taken from the first round
    of ``_refinements`` whose enclosures are that narrow.  In s_{count-1}
    the atoms' widths are multiplied by up to about count * sum_j w_j *
    X**(count - 1), X = max(1, max |x_j|), so the pads go on past 160 until
    they exceed the digits of that factor by 10.  Raises ``ValueError``
    unless count is an integer of at least 1 and digits an integer in
    1..MAX_DECIMAL_EXPONENT, and ``PrecisionUnattainable`` when no round is
    narrow enough.  Its message names the stored weight enclosures when the
    last round's atoms, taken as points, still give a moment that is too
    wide, and the refinement rounds otherwise.
    """
    if not _is_int(count) or count < 1:
        raise ValueError("count must be an integer of at least 1")
    if not _is_int(digits) or not 1 <= digits <= MAX_DECIMAL_EXPONENT:
        raise ValueError(f"digits must be an integer in 1..{MAX_DECIMAL_EXPONENT}")
    if mu.is_exact:
        return [Fraction(lo, den) for lo, _, den in _moment_sums(mu.atoms, mu.weights, count)]
    scale = 10**digits
    x_bounds = [_bounds(a) for a in mu.atoms]
    top = max(-x_bounds[0][0], x_bounds[-1][1], Fraction(1))
    total = max(sum(_bounds(w)[1] for w in mu.weights), Fraction(1))
    reach = math.ceil(math.log10(count) + _log10(total) + (count - 1) * _log10(top))
    for atoms, bits in _refinements(mu.atoms, digits, reach):
        sums = list(_moment_sums(atoms, mu.weights, count, bits))
        if all((hi - lo) * scale <= den for lo, hi, den in sums):
            return [RationalInterval(Fraction(lo, den), Fraction(hi, den)) for lo, hi, den in sums]
    points = [_bounds(a)[0] for a in atoms]
    if any((hi - lo) * scale > den for lo, hi, den in _moment_sums(points, mu.weights, count, bits)):
        raise PrecisionUnattainable(
            f"stored weight enclosures are too wide for 10^-{digits} moments"
        )
    raise PrecisionUnattainable(
        f"atom refinement rounds ran out before the moments reached 10^-{digits}"
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
        lo, hi = _product(lo, hi, a, b)
        lo, hi = lo + c * dp, hi + c * dp
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
    bits: int | None = None,
) -> bool:
    """True when sum_j w_j x_j**k is within tol of s_k for every k < upto.

    Each enclosure of ``_moment_sums`` is compared with s_k - tol and
    s_k + tol in integers, with the moments and tol over their one common
    denominator.  ``bits`` is needed unless every bound is a point; the
    enclosures then lie on the 2**-bits grid and contain the exact interval
    sums, so a pass here implies a pass on the exact sums.  Raises
    ``ValueError`` when ``moments`` holds fewer than ``upto`` values.
    """
    if len(moments) < upto:
        raise ValueError(f"the residuals up to s_{upto - 1} need {upto} moments, got {len(moments)}")
    (*s_ints, t), sden = _common_denominator([*moments[:upto], tol])
    for (lo, hi, den), s in zip(_moment_sums(atoms, weights, upto, bits), s_ints):
        if lo * sden < (s - t) * den or hi * sden > (s + t) * den:
            return False
    return True


def reconstruct(w, digits: int = 50) -> DiscreteMeasure:
    """Recover the unique n0-point measure of a consistent degenerate window.

    Atoms are the roots of the monic degree-n0 orthogonal polynomial p;
    rational roots stay exact.  When every root is rational with a small
    denominator, the record's float eigenvalue hints find them all, checked
    exactly by orthogonality on the window (``hankel._hinted_atoms``), and p
    is their product; otherwise ``sturm_isolate`` isolates them on the
    recurrence's Sturm sequence.  Both give the same atoms.  Each weight is
    w_j = N(x_j) / p'(x_j) for the fixed numerator N of ``_weight_polys``,
    O(n0**2) in all.  With any irrational atom, all weights are returned as
    enclosures on a dyadic grid, refined until the moment residuals up to
    s_{2*n0 - 1} are certified within 10**-digits and every weight is
    certified positive.  The rounds of ``_refinements`` stop at the first
    that certifies, and go on past pad 160 up to a reach read off p's
    primitive coefficients c: (2 n0 - 1) t log10 2 digits for atoms below
    2**t (``exact._root_bound_exponent``) raised to the power 2 n0 - 1, and
    n0 - 1 times the digits of Mahler's root separation bound, n0**-((n0 +
    2) / 2) M**-(n0 - 1) with M below (n0 + 1) max |c|, for the smallest
    |p'(x_j)|.  Raises ``ValueError`` unless digits is an integer in
    1..MAX_DECIMAL_EXPONENT, and ``PreconditionViolated`` unless the window
    classifies as ``Degenerate`` with a consistent tail.  ``w`` may be a
    ``WindowAnalysis``, whose recurrence is then read without another
    recurrence pass; the atoms, the kernel, and on the Sturm path
    p_0..p_{n0-1}, are found once per record.
    """
    if not _is_int(digits) or not 1 <= digits <= MAX_DECIMAL_EXPONENT:
        raise ValueError(f"digits must be an integer in 1..{MAX_DECIMAL_EXPONENT}")
    analysis = _consistent_analysis(w, "reconstruct")
    kernel = analysis.kernel
    n0 = kernel.degree
    hint = analysis._hint
    atoms = None if hint is None else hint[0]
    if atoms is None:
        # p_{n0}, ..., p_0 is a Sturm sequence for the kernel: beta_1..beta_{n0-1}
        # are positive on this window, so consecutive p_k have interlacing roots
        # (Szego, Orthogonal Polynomials, Sec. 3.3) and p_{k-1} and p_{k+1} have
        # opposite signs at each root of p_k.
        roots = sturm_isolate(analysis.orthogonal_polys[::-1])
        if len(roots) != n0:
            raise InconsistentWindow(
                f"kernel polynomial has {len(roots)} real roots, expected {n0}"
            )
        if all(r.is_exact for r in roots):
            atoms = [r.lo for r in roots]
    moments = list(analysis.window[: 2 * n0])
    numer, deriv = _weight_polys(kernel, moments)
    if atoms is not None:
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
    cs, bit_digits = kernel.primitive, math.log10(2)
    size = max(map(abs, cs)).bit_length() * bit_digits + math.log10(n0 + 1)
    separation = (n0 - 1) * size + (n0 + 2) / 2 * math.log10(n0)
    reach = math.ceil((2 * n0 - 1) * _root_bound_exponent(cs) * bit_digits + (n0 - 1) * separation)
    tol = Fraction(1, 10**digits)
    for refined, bits in _refinements(roots, digits, reach):
        weight_ivs = _interval_weights(refined, numer, deriv, bits)
        if (
            weight_ivs is not None
            and all(iv.lo > 0 for iv in weight_ivs)
            and _residuals_certified(refined, weight_ivs, moments, 2 * n0, tol, bits)
        ):
            return DiscreteMeasure(tuple(refined), tuple(weight_ivs))
    raise InconsistentWindow("weight enclosures failed residual certification")


def extend(w, count: int) -> list[Fraction]:
    """The unique exact continuation s_{m+1}..s_{m+count} of a degenerate window.

    Uses the linear recurrence carried by the coefficients of the monic
    degree-n0 orthogonal polynomial; for n0 = 0 the continuation is zero.
    Raises ``ValueError`` unless count is a nonnegative integer, and
    ``PreconditionViolated`` unless the window classifies as
    ``Degenerate`` with a consistent tail.  ``w`` may be a
    ``WindowAnalysis``, whose kernel is then read without another recurrence
    pass.
    """
    if not _is_int(count) or count < 0:
        raise ValueError("count must be a nonnegative integer")
    analysis = _consistent_analysis(w, "extend")
    # The monic kernel is x**n0 + sum_{j < n0} (cs[j] / den) x**j.
    kernel = analysis.kernel
    cs, n0, den = kernel.numerators[:-1], kernel.degree, kernel.denominator
    values = list(analysis.window)
    for _ in range(count):
        # One common denominator d of the last n0 values, so one gcd per step.
        # The slice keeps n0 = 0 empty, where values[-0:] would take them all.
        last, d = _common_denominator(values[len(values) - n0 :])
        values.append(Fraction(-sum(map(mul, cs, last)), den * d))
    return values[len(analysis.window) :]
