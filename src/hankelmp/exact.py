"""Exact rational scalars, polynomial records, and Sturm root isolation.

Nothing in this module rounds.  ``_common_denominator`` writes rationals as
integer numerators over their lcm denominator, here and in the rest of the
package.  ``RationalPoly`` stores that row form, the one in which
``hankel._monic_from_recurrence`` builds each orthogonal polynomial from the
recurrence pass's coefficients, and its primitive integer form, on which
every kernel runs; its ``coeffs`` are ``fractions.Fraction`` values made for
printing and for readers only.
The sign of a polynomial at x = n/d is the sign of sum_j c_j n^j d^(deg-j)
over its primitive form (homogeneous Horner).
Isolation bisects the dyadic grid n / 2**k from [-2**t, 2**t], a power of
two past every root read off the coefficients' bit lengths, and refinement
takes quadratic interval refinement steps on the same grid; both keep
integer numerators over one denominator 2**k, so no step reduces a
fraction, no value carries a power of the leading coefficient, and the
endpoints are the same rationals that bisection over ``Fraction`` would
give.  ``sturm_isolate`` takes a Sturm
sequence for a square-free polynomial and isolates its real roots into
pairwise disjoint ``IsolatingInterval`` objects, each a ``RationalInterval``
(a closed interval with rational endpoints) that carries its polynomial.
``sturm_chain`` builds a Sturm sequence for any polynomial as a primitive
integer remainder sequence, and a degenerate moment window supplies its own
from the orthogonal-polynomial recurrence, so in the package only
``_check_isolating`` calls it, on the interval atoms of CLI measure files.
A root that happens to be rational is recovered exactly and its interval
collapses to a point.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .errors import NotSquareFree, ZeroPolynomial

__all__ = [
    "MAX_DECIMAL_EXPONENT",
    "IsolatingInterval",
    "RationalInterval",
    "RationalPoly",
    "format_rational",
    "parse_rational",
    "refine_root",
    "sturm_chain",
    "sturm_isolate",
]


# Largest |e| accepted in a decimal literal such as "1e-30": 10**e is built in
# full, so an unbounded exponent is an unbounded allocation.  The bound matches
# the default digit limit of Python's int <-> str conversion.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (q > 0), an integer, or an exact decimal like ``"1.25"``.

    A decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in absolute value is
    rejected with ``ValueError`` before anything is computed.
    """
    exponent = _EXPONENT.search(text)
    if exponent is not None:
        # The digits may be in any script, so a leading zero is any digit of value 0.
        digits = exponent.group(1).replace("_", "").lstrip("0")
        digits = digits[next((i for i, c in enumerate(digits) if int(c)), len(digits)):]
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"decimal exponent of {text[:40]!r} exceeds {MAX_DECIMAL_EXPONENT} in absolute value"
            )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {text!r}") from exc


def _rational(value) -> Fraction:
    """A library argument as a ``Fraction``; a string is read by ``parse_rational``."""
    try:
        return parse_rational(value) if isinstance(value, str) else Fraction(value)
    except OverflowError as exc:  # an infinite float or Decimal; NaN raises ValueError
        raise ValueError(f"not a finite rational: {value!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical string form: reduced ``p/q``, or a bare integer when q = 1.

    Integers past the interpreter's int-to-string digit limit (4300 digits by
    default) are written through ``decimal``, which has no such limit.
    """
    try:
        return str(value)
    except ValueError:
        num, den = (format(Decimal(part), "f") for part in value.as_integer_ratio())
        return num if den == "1" else f"{num}/{den}"


class RationalPoly:
    """Dense univariate polynomial over the rationals.

    ``coeffs[j]`` is the coefficient of ``x**j`` and the top coefficient is
    nonzero; the zero polynomial is the empty tuple and reports degree -1.
    Instances are immutable.  They store the coefficients as ``numerators``
    over one positive ``denominator`` with gcd(denominator, *numerators) = 1,
    the row form of the recurrence pass, and as ``primitive``, the
    numerators with their content divided out: coprime integers, a positive
    multiple of the polynomial, on which the root kernels below run.
    ``coeffs`` is derived from the numerators for printing and readers.
    """

    __slots__ = ("numerators", "denominator", "primitive")

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        self._set(*_common_denominator(map(_rational, coeffs)))

    @classmethod
    def _from_row(cls, nums: Sequence[int], den: int = 1) -> "RationalPoly":
        """sum_j nums[j] x**j / den for integers nums and den > 0, reduced here."""
        p = cls.__new__(cls)
        p._set(nums, den)
        return p

    def _set(self, nums: Sequence[int], den: int) -> None:
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        g, content = math.gcd(den, *nums), math.gcd(*nums) or 1
        self.numerators: tuple[int, ...] = tuple(v // g for v in nums)
        self.denominator: int = den // g
        self.primitive: tuple[int, ...] = tuple(v // content for v in nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.denominator) for v in self.numerators)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def derivative(self) -> "RationalPoly":
        return RationalPoly._from_row(
            [j * c for j, c in enumerate(self.numerators)][1:], self.denominator
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPoly):
            return False
        return (self.numerators, self.denominator) == (other.numerators, other.denominator)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPoly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        cs, terms = self.coeffs, []
        for j in range(self.degree, -1, -1):
            c = cs[j]
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                x = "x" if j == 1 else f"x^{j}"
                body = x if mag == 1 else f"{mag}*{x}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


def _common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over D, the lcm of their denominators, and D."""
    values = list(values)
    den = reduce(math.lcm, (v.denominator for v in values), 1)
    return [v.numerator * (den // v.denominator) for v in values], den


def _at_denominator(cs: Sequence[int], den: int) -> tuple[int, ...]:
    """``cs[j] * den**(deg - j)``, highest degree first, for ``_value_at``."""
    out, dp = [], 1
    for c in reversed(cs):
        out.append(c * dp)
        dp *= den
    return tuple(out)


def _value_at(hs: Sequence[int], n: int, k: int) -> int:
    """(den * 2**k)**deg * p(n / (den * 2**k)), with ``hs = _at_denominator(cs, den)``.

    Homogeneous Horner over integers: ``c_j * den**(deg-j) * 2**(k*(deg-j))``
    is a shift of the prepared coefficient, so no step reduces a fraction.
    The value has the sign of p there, and two values at one level k stand
    in the ratio of the polynomial's values.
    """
    acc, shift = 0, 0
    for c in hs:
        acc = acc * n + (c << shift)
        shift += k
    return acc


def _sign_at(hs: Sequence[int], n: int, k: int) -> int:
    """Sign of p(n / (den * 2**k)); see ``_value_at``."""
    v = _value_at(hs, n, k)
    return (v > 0) - (v < 0)


def _negated_remainder(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Coprime integers of a positive multiple of -rem(a, b), for deg b >= 1.

    Each step of the long division first multiplies the partial remainder by
    |lc(b)|, so the leading term cancels over the integers and the result is
    the rational remainder times a positive integer.
    """
    lead, d = b[-1], len(b) - 1
    scale, sign = abs(lead), (lead > 0) - (lead < 0)
    rem = list(a)
    while len(rem) > d:
        shift, c = len(rem) - 1 - d, sign * rem[-1]
        rem = [scale * x for x in rem]
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    g = reduce(math.gcd, rem, 0)
    return tuple(-x // g for x in rem) if g else ()


def sturm_chain(p: RationalPoly) -> list[RationalPoly]:
    """Sturm sequence ``p, p', -rem(p, p'), ...`` as a primitive remainder sequence.

    After p and p', each member is the negated remainder of the two before it
    over the integers, with its content divided out (Collins' primitive PRS;
    Basu, Pollack & Roy, *Algorithms in Real Algebraic Geometry*, Ch. 8).  It
    is a positive multiple of the remainder over the rationals, so every
    sign-variation count is unchanged.  For a square-free input the chain
    ends in a nonzero constant.
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    chain = [p, p.derivative()]
    a, b = p.primitive, chain[1].primitive
    while len(b) > 1:
        a, b = b, _negated_remainder(a, b)
        if not b:
            break
        chain.append(RationalPoly._from_row(b))
    return chain


def _variations(chain: Sequence[Sequence[int]], n: int, k: int) -> int:
    """Sign changes, zeros ignored, of ``_value_at`` chain members at n / (den * 2**k)."""
    count, last = 0, 0
    for hs in chain:
        s = _sign_at(hs, n, k)
        if s:
            count += last != 0 and s != last
            last = s
    return count


def _check_isolating(p: RationalPoly, lo: Fraction, hi: Fraction) -> None:
    """Raise ``ValueError`` unless [lo, hi], lo <= hi, isolates one real root of p != 0.

    A point interval must be a root.  Otherwise p must have opposite nonzero
    signs at lo and hi, and ``sturm_chain(p)`` must lose exactly one sign
    variation between them, read on the integer grid of ``_variations``.
    """
    if lo > hi:
        raise ValueError("interval endpoints out of order")
    (a, b), den = _common_denominator((lo, hi))
    hs = _at_denominator(p.primitive, den)
    if a == b:
        if _value_at(hs, a, 0):
            raise ValueError("point interval is not a root of its poly")
        return
    sa, sb = _sign_at(hs, a, 0), _sign_at(hs, b, 0)
    if sa * sb >= 0:
        raise ValueError("the poly does not change sign over [lo, hi]")
    chain = [_at_denominator(q.primitive, den) for q in sturm_chain(p)]
    roots = _variations(chain, a, 0) - _variations(chain, b, 0)
    if roots != 1:
        raise ValueError(f"[lo, hi] holds {roots} roots of its poly, not one")


def _root_bound_exponent(cs: Sequence[int]) -> int:
    """t >= 0 with every root of sum_j cs[j] x**j, deg >= 1, inside (-2**t, 2**t).

    Fujiwara's bound (Tohoku Math. J. 10, 1916) puts every root at |x| <= 2 *
    max_{i<n} |c_i / c_n|**(1/(n-i)).  With b_i the bit length of |c_i|,
    |c_i / c_n| < 2**(b_i - b_n + 1), so each term is below 2**e_i for
    e_i = ceil((b_i - b_n + 1) / (n - i)), and t = 1 + max e_i bounds every
    root strictly.  So p(+-2**t) != 0.
    """
    n, top = len(cs) - 1, abs(cs[-1]).bit_length()
    exponents = (-((top - 1 - abs(c).bit_length()) // (n - i)) for i, c in enumerate(cs[:-1]) if c)
    return max(0, 1 + max(exponents, default=-1))


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class IsolatingInterval(RationalInterval):
    """A ``RationalInterval`` holding exactly one simple real root of ``poly``.

    ``lo == hi`` means the root is the exact rational ``lo``.
    """

    poly: RationalPoly

    def __post_init__(self):
        super().__post_init__()
        if self.poly.is_zero:
            raise ZeroPolynomial("isolating interval for the zero polynomial")

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi


def _isolate_segments(
    chain: Sequence[Sequence[int]], a: int, b: int
) -> list[tuple[int, int, int]]:
    """Bisect (a, b) into segments holding one root each, in increasing order.

    ``chain`` is the Sturm chain as primitive integer coefficients, highest
    degree first, and a, b are integers.  A segment (a, b, k) has endpoints
    a / 2**k and b / 2**k; a bisection doubles both numerators and takes
    a + b as the midpoint one level deeper.  Each pending
    segment satisfies p(a) != 0, p(b) != 0 and has va - vb roots in (a, b).
    A last-in, first-out worklist visits them in the same left-to-right order
    as recursive bisection, but close roots need deep bisection, so no call
    stack grows with the depth.  An exact root m comes out as (m, m, k).
    """

    p = chain[0]
    out: list[tuple[int, int, int]] = []
    work = [(a, b, 0, _variations(chain, a, 0), _variations(chain, b, 0))]
    while work:
        a, b, k, va, vb = work.pop()
        count = va - vb
        if count == 0:
            continue
        if count == 1:
            out.append((a, b, k))
            continue
        mid, level = a + b, k + 1
        if _sign_at(p, mid, level):
            vm = _variations(chain, mid, level)
            work += [(mid, b << 1, level, vm, vb), (a << 1, mid, level, va, vm)]
            continue
        # Exact root at the midpoint: peel it off with a half-width of
        # (b - a) / 4, halved until one root lies in [mid - h, mid + h].
        width, mid, level = b - a, mid << 1, level + 1
        while True:
            lo, hi = mid - width, mid + width
            if _sign_at(p, lo, level) and _sign_at(p, hi, level):
                vlo, vhi = _variations(chain, lo, level), _variations(chain, hi, level)
                if vlo - vhi == 1:
                    break
            mid, level = mid << 1, level + 1
        up = level - k
        work += [
            (hi, b << up, level, vhi, vb),
            (mid, mid, level, 1, 0),
            (a << up, lo, level, va, vlo),
        ]
    return out


def _refine(
    hs: Sequence[int], den: int, a: int, b: int, k: int, width: int
) -> tuple[int, int, int]:
    """Narrow [a, b] / (den * 2**k) around its one root until no wider than 1/width.

    Quadratic interval refinement (Abbott, "Quadratic Interval Refinement for
    Real Roots", arXiv:1203.1227) on the bisection grid.  A step cuts the
    interval into 2**e cells at level k + e, lets the secant through the two
    endpoint values pick one cell, and keeps it only when the signs at both
    of its endpoints show the sign change.  A kept cell doubles e, so the
    number of cells is squared; a miss halves e and takes one bisection step.
    e never exceeds the halvings that bisection would still make, so the
    result is the cell of the last bisection level that holds the root, the
    interval that bisection returns.  A zero at an endpoint or at an
    evaluated grid point is the root, returned as (m, m, level).  Raises
    ``ValueError`` when p(a) and p(b) are nonzero with one sign.
    """
    w, deg = b - a, len(hs) - 1
    va, vb = _value_at(hs, a, k), _value_at(hs, b, k)
    if not va:
        return a, a, k
    if not vb:
        return b, b, k
    sa = va > 0
    if (vb > 0) == sa:
        raise ValueError("the polynomial does not change sign over the interval")
    # Bisection halves until (b - a) * width <= den * 2**k, so it makes
    # ceil(log2(w * width / (den * 2**k))) more steps.
    left = (-(-w * width // (den << k)) - 1).bit_length()
    e = 2
    while left:
        e = min(e, left)
        last = (1 << e) - 1
        i = min((va << e) // (va - vb), last)
        lo, level = (a << e) + i * w, k + e
        vlo = _value_at(hs, lo, level) if i else va << (deg * e)
        if not vlo:
            return lo, lo, level
        if (vlo > 0) == sa:
            vhi = _value_at(hs, lo + w, level) if i < last else vb << (deg * e)
            if not vhi:
                return lo + w, lo + w, level
            if (vhi > 0) != sa:
                a, b, k, va, vb = lo, lo + w, level, vlo, vhi
                left -= e
                e *= 2
                continue
        e = max(e // 2, 2)
        mid, k = a + b, k + 1
        vm = _value_at(hs, mid, k)
        if not vm:
            return mid, mid, k
        if (vm > 0) == sa:
            a, b, va, vb = mid, b << 1, vm, vb << deg
        else:
            a, b, va, vb = a << 1, mid, va << deg, vm
        left -= 1
    return a, b, k


def _settle_segment(
    cs: Sequence[int], hs: Sequence[int], a: int, b: int, k: int
) -> tuple[Fraction, Fraction]:
    """Shrink a single-root segment; collapse it if the root is rational.

    ``cs`` is the primitive integer form of p, ``hs`` the same highest
    degree first, and the segment is [a, b] / 2**k.  Any rational root of ``cs`` has
    a denominator dividing the leading coefficient L, so once the segment is
    no wider than min(1/4, 1/(2L)) it contains at most one candidate r/L,
    which is tested exactly.  ``_refine`` narrows it to that width in
    quadratic steps rather than log2(L) bisection steps, and returns the
    segment that bisection would give.
    """
    lead = abs(cs[-1])
    a, b, k = _refine(hs, 1, a, b, k, max(4, 2 * lead))
    for r in range(-((-a * lead) >> k), ((b * lead) >> k) + 1):
        if a * lead < r << k < b * lead and _value_at(_at_denominator(cs, lead), r, 0) == 0:
            return Fraction(r, lead), Fraction(r, lead)
    return Fraction(a, 1 << k), Fraction(b, 1 << k)


def _separate(
    hs: Sequence[int], segments: list[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Shrink left neighbours until no two closed intervals share an endpoint.

    ``hs`` is the primitive form of p, highest degree first.  Only settled
    non-point intervals are bisected; they are cells of the dyadic grid, so
    their endpoints have one power-of-two denominator 2**k.
    ``_settle_segment`` has tested every r/L inside them, L = lc(p), so by
    the rational root theorem their root is irrational and no midpoint is a
    root.
    """
    for i in range(len(segments) - 1):
        a, b = segments[i]
        if a == b or b != segments[i + 1][0]:
            continue
        (a, b), den = _common_denominator((a, b))
        k = den.bit_length() - 1
        sa = _sign_at(hs, a, k)
        while True:
            mid, k = a + b, k + 1
            if _sign_at(hs, mid, k) != sa:
                a, b = a << 1, mid
                break
            a, b = mid, b << 1
        segments[i] = (Fraction(a, 1 << k), Fraction(b, 1 << k))
    return segments


def sturm_isolate(chain: Sequence[RationalPoly]) -> list[IsolatingInterval]:
    """Isolate every real root of p = chain[0], given a Sturm sequence for p.

    ``chain`` is p = f_0, f_1, ..., f_r whose sign variations V(x) drop by
    exactly the number of roots of p in (a, b] from x = a to x = b, for p(a)
    and p(b) nonzero: ``sturm_chain(p)`` for any p, or p_n, ..., p_0 from the
    recurrence of orthogonal polynomials.  Returns pairwise disjoint closed
    intervals sorted by lower endpoint, one per distinct real root.  Rational
    roots are detected exactly and returned as point intervals.  Bisection
    starts at [-2**t, 2**t] with t from ``_root_bound_exponent``, so every
    other interval has a power-of-two denominator.  Raises
    ``ZeroPolynomial`` for p = 0 and ``NotSquareFree`` when the chain ends in
    a non-constant, which for ``sturm_chain(p)`` is a multiple of gcd(p, p'),
    and ``ValueError`` for an empty chain.
    """
    if not chain:
        raise ValueError("a Sturm sequence holds at least one polynomial")
    p = chain[0]
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    if chain[-1].degree > 0:
        raise NotSquareFree(f"{p} has a repeated factor {chain[-1]}")

    cs = p.primitive
    hchain = [q.primitive[::-1] for q in chain]
    top = 1 << _root_bound_exponent(cs)
    settled = [
        (Fraction(a, 1 << k),) * 2 if a == b else _settle_segment(cs, hchain[0], a, b, k)
        for a, b, k in _isolate_segments(hchain, -top, top)
    ]
    return [IsolatingInterval(a, b, p) for a, b in _separate(hchain[0], settled)]


def refine_root(iv: IsolatingInterval, digits: int) -> IsolatingInterval:
    """Narrow the interval until it is no wider than 10**-digits.

    ``_refine`` takes quadratic interval refinement steps on the bisection
    grid of the interval's endpoints over their common denominator, a power
    of two for every inexact interval of ``sturm_isolate``, so the result is
    the interval that bisection to this width gives,
    and a root on a grid point of its levels comes back exact, at O(log
    digits) evaluations near the root in place of O(digits).  Exact roots
    come back unchanged; the output is always nested inside the input and
    keeps isolating the same root.  Raises ``ValueError`` unless digits is a
    positive integer, or when p has the same nonzero sign at both endpoints.
    """
    if not isinstance(digits, int) or digits < 1:
        raise ValueError("digits must be a positive integer")
    if iv.is_exact:
        return iv
    p = iv.poly
    (a, b), den = _common_denominator((iv.lo, iv.hi))
    a, b, k = _refine(_at_denominator(p.primitive, den), den, a, b, 0, 10**digits)
    return IsolatingInterval(Fraction(a, den << k), Fraction(b, den << k), p)
