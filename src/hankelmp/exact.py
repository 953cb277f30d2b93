"""Exact rational scalars, dense polynomials, and Sturm root isolation.

Everything in this module computes over ``fractions.Fraction``; nothing ever
rounds.  Real roots of a square-free polynomial are isolated into pairwise
disjoint closed intervals with rational endpoints.  A root that happens to be
rational is recovered exactly and its interval collapses to a point.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .errors import NotSquareFree, ZeroPolynomial

__all__ = [
    "MAX_DECIMAL_EXPONENT",
    "Fraction",
    "IsolatingInterval",
    "RationalPoly",
    "cauchy_root_bound",
    "format_rational",
    "parse_rational",
    "poly_eval",
    "poly_gcd",
    "refine_root",
    "sign_variations",
    "sturm_chain",
    "sturm_isolate",
]


# Largest |e| accepted in a decimal literal such as "1e-30": 10**e is built in
# full, so an unbounded exponent is an unbounded allocation.  The bound matches
# the default digit limit of Python's int <-> str conversion.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"e[-+]?([0-9_]+)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (q > 0), an integer, or an exact decimal like ``"1.25"``.

    A decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in absolute value is
    rejected with ``ValueError`` before anything is computed.
    """
    exponent = _EXPONENT.search(text)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"decimal exponent of {text[:40]!r} exceeds {MAX_DECIMAL_EXPONENT} in absolute value"
            )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical string form: reduced ``p/q``, or a bare integer when q = 1."""
    return str(value)


def _sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class RationalPoly:
    """Dense univariate polynomial over the rationals.

    ``coeffs[j]`` is the coefficient of ``x**j`` and the top coefficient is
    nonzero; the zero polynomial is the empty tuple and reports degree -1.
    Instances are immutable value objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def from_roots(cls, roots: Iterable[Fraction | int | str]) -> "RationalPoly":
        """Monic polynomial with the given roots."""
        poly = cls([1])
        for r in roots:
            poly = poly * cls([-Fraction(r), 1])
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPoly":
        return RationalPoly([j * c for j, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return RationalPoly(out)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return RationalPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __divmod__(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        quo = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d, lead = other.degree, other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            quo[shift] = factor
            for j, c in enumerate(other.coeffs):
                rem[shift + j] -= factor * c
        return RationalPoly(quo), RationalPoly(rem)

    def __mod__(self, other: "RationalPoly") -> "RationalPoly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPoly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
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


def poly_eval(p: RationalPoly, x: Fraction | int | str) -> Fraction:
    """Evaluate ``p`` at ``x`` exactly (Horner order)."""
    return p(x if isinstance(x, Fraction) else Fraction(x))


def poly_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic gcd over the rationals (Euclid); gcd(0, 0) is the zero polynomial."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a * (1 / a.leading)


def _positive_primitive(p: RationalPoly) -> RationalPoly:
    """Rescale by a positive rational so coefficients are coprime integers."""
    den = reduce(math.lcm, (c.denominator for c in p.coeffs), 1)
    nums = [int(c * den) for c in p.coeffs]
    g = reduce(math.gcd, (abs(n) for n in nums), 0)
    return RationalPoly([Fraction(n // g) for n in nums]) if g else RationalPoly()


def sturm_chain(p: RationalPoly) -> list[RationalPoly]:
    """Signed remainder chain ``p, p', -rem(...), ...``.

    Intermediate polynomials are rescaled by positive rationals, which leaves
    every sign-variation count unchanged.  For a square-free input the chain
    ends in a nonzero constant.
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = -(chain[-2] % chain[-1])
        if r.is_zero:
            break
        chain.append(_positive_primitive(r))
    return chain


def sign_variations(values: Sequence[Fraction]) -> int:
    """Number of sign changes in a sequence, zeros ignored."""
    signs = [_sign(v) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_root_bound(p: RationalPoly) -> Fraction:
    """Strict bound B with every real root of ``p`` inside (-B, B)."""
    if p.degree < 1:
        raise ZeroPolynomial("root bound needs degree >= 1")
    lead = abs(p.leading)
    rest = [abs(c) for c in p.coeffs[:-1]]
    return 1 + (max(rest) / lead if rest else Fraction(0))


@dataclass(frozen=True)
class IsolatingInterval:
    """Closed interval [lo, hi] holding exactly one simple real root of ``poly``.

    ``lo == hi`` means the root is the exact rational ``lo``.
    """

    lo: Fraction
    hi: Fraction
    poly: RationalPoly

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")
        if self.poly.is_zero:
            raise ZeroPolynomial("isolating interval for the zero polynomial")

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


def _isolate_segments(
    p: RationalPoly, variations, a: Fraction, b: Fraction, va: int, vb: int
) -> list[tuple[Fraction, Fraction]]:
    """Bisect (a, b) into segments holding one root each, in increasing order.

    Each pending segment satisfies p(a) != 0, p(b) != 0 and has va - vb
    roots in (a, b).  A last-in, first-out worklist visits them in the same
    left-to-right order as recursive bisection, but close roots need deep
    bisection, so no call stack grows with the depth.
    """
    out: list[tuple[Fraction, Fraction]] = []
    # Items are pending segments (a, b, va, vb) or an exact root (mid,).
    work: list[tuple] = [(a, b, va, vb)]
    while work:
        item = work.pop()
        if len(item) == 1:
            out.append((item[0], item[0]))
            continue
        a, b, va, vb = item
        count = va - vb
        if count == 0:
            continue
        if count == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if p(mid) != 0:
            vm = variations(mid)
            work += [(mid, b, vm, vb), (a, mid, va, vm)]
            continue
        # Exact root at the midpoint: peel it off and split both sides.
        delta = (b - a) / 4
        while True:
            lo, hi = mid - delta, mid + delta
            if p(lo) != 0 and p(hi) != 0:
                vlo, vhi = variations(lo), variations(hi)
                if vlo - vhi == 1:
                    break
            delta /= 2
        work += [(hi, b, vhi, vb), (mid,), (a, lo, va, vlo)]
    return out


def _settle_segment(
    p: RationalPoly, a: Fraction, b: Fraction, lead_bound: int
) -> tuple[Fraction, Fraction]:
    """Shrink a single-root segment; collapse it if the root is rational.

    Any rational root of the primitive integer form of ``p`` has a denominator
    dividing the leading coefficient L, so once the segment is narrower than
    1/(2L) it contains at most one candidate r/L, which is tested exactly.
    """
    sa = _sign(p(a))
    target = min(Fraction(1, 4), Fraction(1, 2 * lead_bound))
    while b - a > target:
        mid = (a + b) / 2
        v = p(mid)
        if v == 0:
            return mid, mid
        if _sign(v) == sa:
            a = mid
        else:
            b = mid
    lo_i = math.ceil(a * lead_bound)
    hi_i = math.floor(b * lead_bound)
    for numerator in range(lo_i, hi_i + 1):
        x = Fraction(numerator, lead_bound)
        if a < x < b and p(x) == 0:
            return x, x
    return a, b


def _separate(
    p: RationalPoly, segments: list[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Shrink left neighbours until no two closed intervals share an endpoint."""
    for i in range(len(segments) - 1):
        a, b = segments[i]
        shared = segments[i + 1][0]
        while a != b and b == shared:
            mid = (a + b) / 2
            v = p(mid)
            if v == 0:
                a = b = mid
            elif _sign(v) == _sign(p(a)):
                a = mid
            else:
                b = mid
        segments[i] = (a, b)
    return segments


def sturm_isolate(p: RationalPoly) -> list[IsolatingInterval]:
    """Isolate every real root of a square-free polynomial.

    Returns pairwise disjoint closed intervals sorted by lower endpoint, one
    per distinct real root.  Rational roots are detected exactly and returned
    as point intervals.  Raises ``ZeroPolynomial`` for the zero polynomial and
    ``NotSquareFree`` when gcd(p, p') has positive degree.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    chain = sturm_chain(p)
    if chain[-1].degree > 0:
        raise NotSquareFree(f"{p} has a repeated factor {chain[-1]}")

    def variations(x: Fraction) -> int:
        return sign_variations([q(x) for q in chain])

    bound = cauchy_root_bound(p)
    segments = _isolate_segments(
        p, variations, -bound, bound, variations(-bound), variations(bound)
    )

    lead_bound = abs(int(_positive_primitive(p).leading))
    settled = [
        (a, b) if a == b else _settle_segment(p, a, b, lead_bound) for a, b in segments
    ]
    settled.sort(key=lambda s: s[0])
    settled = _separate(p, settled)
    return [IsolatingInterval(a, b, p) for a, b in settled]


def refine_root(iv: IsolatingInterval, digits: int) -> IsolatingInterval:
    """Bisect until the interval is no wider than 10**-digits.

    Exact roots come back unchanged; the output is always nested inside the
    input and keeps isolating the same root.
    """
    if digits < 1:
        raise ValueError("digits must be a positive integer")
    if iv.is_exact:
        return iv
    p = iv.poly
    a, b = iv.lo, iv.hi
    if p(a) == 0:
        return IsolatingInterval(a, a, p)
    if p(b) == 0:
        return IsolatingInterval(b, b, p)
    tol = Fraction(1, 10**digits)
    sa = _sign(p(a))
    while b - a > tol:
        mid = (a + b) / 2
        v = p(mid)
        if v == 0:
            return IsolatingInterval(mid, mid, p)
        if _sign(v) == sa:
            a = mid
        else:
            b = mid
    return IsolatingInterval(a, b, p)
