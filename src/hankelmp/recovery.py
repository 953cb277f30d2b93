"""Recovery of the finitely supported measure behind a degenerate window.

The atoms are the real roots of the monic degree-n0 orthogonal polynomial and
the weights solve the Vandermonde moment system.  When every atom is rational
the whole measure is exact; otherwise atoms are kept as isolating intervals
and weights become certified rational enclosures.  The unique forward
extension of a degenerate window is always computed from the exact rational
recurrence, never from the recovered (possibly irrational) atoms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    InconsistentWindow,
    PrecisionUnattainable,
    PreconditionViolated,
)
from .exact import IsolatingInterval, refine_root, sturm_isolate
from .hankel import _solve_exact, analyze

__all__ = [
    "AtomValue",
    "DiscreteMeasure",
    "RationalInterval",
    "WeightValue",
    "extend",
    "measure_moments",
    "reconstruct",
]


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval with exact rational endpoints, used as an enclosure."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def point(cls, x: Fraction | int | str) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    @staticmethod
    def _coerce(other) -> "RationalInterval":
        if isinstance(other, RationalInterval):
            return other
        return RationalInterval.point(other)

    def __add__(self, other) -> "RationalInterval":
        o = self._coerce(other)
        return RationalInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "RationalInterval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalInterval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalInterval":
        o = self._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalInterval":
        o = self._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval division by an enclosure of zero")
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return RationalInterval(min(quotients), max(quotients))

    def power(self, k: int) -> "RationalInterval":
        """Tight enclosure of {x**k : x in self} for integer k >= 0."""
        if k < 0:
            raise ValueError("negative powers are not needed here")
        if k == 0:
            return RationalInterval.point(1)
        if k % 2 == 1 or self.lo >= 0:
            return RationalInterval(self.lo**k, self.hi**k)
        if self.hi <= 0:
            return RationalInterval(self.hi**k, self.lo**k)
        return RationalInterval(Fraction(0), max(self.lo**k, self.hi**k))


AtomValue = Union[Fraction, IsolatingInterval]
WeightValue = Union[Fraction, RationalInterval]


def _atom_bounds(atom: AtomValue) -> tuple[Fraction, Fraction]:
    if isinstance(atom, IsolatingInterval):
        return atom.lo, atom.hi
    return atom, atom


def _weight_positive(weight: WeightValue) -> bool:
    if isinstance(weight, RationalInterval):
        return weight.lo > 0
    return weight > 0


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
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.atoms) != len(self.weights):
            raise ValueError("atom and weight counts differ")
        for w in self.weights:
            if not _weight_positive(w):
                raise ValueError(f"weight {w} is not certified positive")
        bounds = [_atom_bounds(a) for a in self.atoms]
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


def measure_moments(mu: DiscreteMeasure, count: int, digits: int = 50):
    """Moments s_0..s_{count-1} of the measure.

    Exact rationals when the measure is exact; otherwise rational enclosures
    of width at most 10**-digits, obtained by refining the atom intervals as
    far as needed.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if mu.is_exact:
        moments = []
        powers = [Fraction(1)] * len(mu.atoms)
        for k in range(count):
            moments.append(sum((w * p for w, p in zip(mu.weights, powers)), Fraction(0)))
            powers = [p * a for p, a in zip(powers, mu.atoms)]
        return moments
    tol = Fraction(1, 10**digits)
    for pad in (5, 10, 20, 40, 80):
        atom_ivs = []
        for atom in mu.atoms:
            if isinstance(atom, IsolatingInterval):
                refined = refine_root(atom, digits + pad)
                atom_ivs.append(RationalInterval(refined.lo, refined.hi))
            else:
                atom_ivs.append(RationalInterval.point(atom))
        weight_ivs = [RationalInterval._coerce(w) for w in mu.weights]
        moments = []
        for k in range(count):
            acc = RationalInterval.point(0)
            for w, x in zip(weight_ivs, atom_ivs):
                acc = acc + w * x.power(k)
            moments.append(acc)
        if all(mv.width <= tol for mv in moments):
            return moments
    raise PrecisionUnattainable(
        f"stored weight enclosures are too wide for 10^-{digits} moments"
    )


def _interval_weights(
    atom_ivs: Sequence[RationalInterval], moments: Sequence[Fraction]
) -> list[RationalInterval]:
    # Lagrange form: with N_j(x) = prod_{i != j} (x - x_i) it holds that
    # m_j = (sum_k [x^k]N_j * s_k) / N_j(x_j), which maps directly onto
    # interval arithmetic as long as the atom enclosures stay disjoint.
    n = len(atom_ivs)
    weights = []
    for j in range(n):
        coeffs = [RationalInterval.point(1)]
        denom = RationalInterval.point(1)
        for i in range(n):
            if i == j:
                continue
            shifted = [c * (-atom_ivs[i]) for c in coeffs] + [RationalInterval.point(0)]
            for t in range(1, len(shifted)):
                shifted[t] = shifted[t] + coeffs[t - 1]
            coeffs = shifted
            denom = denom * (atom_ivs[j] - atom_ivs[i])
        numer = RationalInterval.point(0)
        for k, c in enumerate(coeffs):
            numer = numer + c * moments[k]
        weights.append(numer / denom)
    return weights


def _residuals_certified(
    atom_ivs: Sequence[RationalInterval],
    weight_ivs: Sequence[RationalInterval],
    moments: Sequence[Fraction],
    upto: int,
    tol: Fraction,
) -> bool:
    for k in range(upto):
        acc = RationalInterval.point(0)
        for w, x in zip(weight_ivs, atom_ivs):
            acc = acc + w * x.power(k)
        diff = acc - moments[k]
        if diff.lo < -tol or diff.hi > tol:
            return False
    return True


def reconstruct(w, digits: int = 50) -> DiscreteMeasure:
    """Recover the unique n0-point measure of a consistent degenerate window.

    Atoms are the roots of the monic degree-n0 orthogonal polynomial; rational
    roots stay exact.  With any irrational atom, all weights are returned as
    enclosures refined until the moment residuals up to s_{2*n0 - 1} are
    certified within 10**-digits and every weight is certified positive.
    Raises ``PreconditionViolated`` unless the window classifies as
    ``Degenerate`` with a consistent tail.
    """
    analysis = analyze(w)
    kernel = analysis.kernel
    if kernel is None:
        raise PreconditionViolated(
            f"reconstruct needs a consistent degenerate window, got {analysis.classification}"
        )
    n0 = kernel.degree
    if n0 == 0:
        return DiscreteMeasure((), ())
    roots = sturm_isolate(kernel)
    if len(roots) != n0:
        raise InconsistentWindow(
            f"kernel polynomial has {len(roots)} real roots, expected {n0}"
        )
    moments = list(analysis.window[: 2 * n0])
    if all(r.is_exact for r in roots):
        atoms = [r.lo for r in roots]
        weights = _solve_exact([[a**k for a in atoms] for k in range(n0)], moments[:n0])
        if any(weight <= 0 for weight in weights):
            raise InconsistentWindow("recovered a non-positive weight")
        for k in range(n0, 2 * n0):
            if sum((m * a**k for m, a in zip(weights, atoms)), Fraction(0)) != moments[k]:
                raise InconsistentWindow(f"exact residual at s_{k} is nonzero")
        return DiscreteMeasure(tuple(atoms), tuple(weights))
    tol = Fraction(1, 10**digits)
    for pad in (10, 20, 40, 80, 160):
        refined = [refine_root(r, digits + pad) for r in roots]
        atom_ivs = [RationalInterval(r.lo, r.hi) for r in refined]
        weight_ivs = _interval_weights(atom_ivs, moments[:n0])
        if all(iv.lo > 0 for iv in weight_ivs) and _residuals_certified(
            atom_ivs, weight_ivs, moments, 2 * n0, tol
        ):
            atoms = tuple(r.lo if r.is_exact else r for r in refined)
            return DiscreteMeasure(atoms, tuple(weight_ivs))
    raise InconsistentWindow("weight enclosures failed residual certification")


def extend(w, count: int) -> list[Fraction]:
    """The unique exact continuation s_{m+1}..s_{m+count} of a degenerate window.

    Uses the linear recurrence carried by the coefficients of the monic
    degree-n0 orthogonal polynomial; for n0 = 0 the continuation is zero.
    Raises ``PreconditionViolated`` unless the window classifies as
    ``Degenerate`` with a consistent tail.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    analysis = analyze(w)
    if analysis.kernel is None:
        raise PreconditionViolated(
            f"extend needs a consistent degenerate window, got {analysis.classification}"
        )
    coeffs = analysis.kernel.coeffs
    n0 = len(coeffs) - 1
    values = list(analysis.window)
    for _ in range(count):
        nxt = -sum((coeffs[j] * values[len(values) - n0 + j] for j in range(n0)), Fraction(0))
        values.append(nxt)
    return values[len(analysis.window) :]
