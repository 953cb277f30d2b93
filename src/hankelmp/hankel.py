"""Hankel matrices, exact determinants, PSD testing, and window classification.

The classification follows the trichotomy induced by the sign pattern of the
Hankel determinant sequence D_0..D_N of a finite moment window: all positive,
a positive prefix followed only by zeros (the degenerate case, carrying a
finitely supported representing measure), or anything else, which cannot be a
moment sequence.

``analyze`` reads all of this off one exact O(N^2) recurrence pass
(``_pass``) over the mixed moments sigma_k(l) = <p_k, x^l> of the monic
orthogonal polynomials p_k.  At a nonzero pivot, negative included, it takes
the Chebyshev algorithm's three-term step; at a zero pivot it reads the
first nonzero entry further along the row, which gives the run of zero
determinants and the nonzero one after it, and one look-ahead step crosses
the run.  So one loop yields every D_j, and no elimination runs on this
path.  ``_verdict`` is the pass's one reader.  It reads the steps up to the
one that fixes the verdict, where library ``classify``, ``reconstruct`` and
``extend`` stop, and returns the record and the rest of the pass, which
``analyze`` reads.  A ``WindowAnalysis`` is the one record of a pass: it
stores the recurrence coefficients of a consistent degenerate window and
builds p_0..p_{n0} from them on first read, so ``classify``,
``det_sequence`` and ``analyze`` build none: p_{n0} is the kernel whose
roots are the atoms, and p_{n0}, ..., p_0 is a Sturm sequence for it.
``reconstruct`` also reads the coefficients themselves, which form the
Jacobi matrix whose eigenvalues are the atoms.  Rows and polynomials are
integer numerators over one positive denominator, the form of
``_common_denominator`` and of ``RationalPoly``, reduced once per row by a
single gcd.  One integer three-term step, ``_three_term``, forms both from
the two rows before with three integer multipliers, and the builder reads
the pass's alpha_k and beta_k as integer pairs, so no ``Fraction`` is made
but the determinants.

Matrices are plain rows.  ``hankel_matrix`` gives H_n as a tuple of row
tuples, each a slice of the window's moments, and ``is_psd`` and
``psd_witness`` take any square iterable of rows of rationals.
``is_psd`` decides positive semi-definiteness by one fraction-free integer
elimination, symmetric and without pivoting, O(n^3) operations per matrix.
The matrix is first scaled by the congruence D A D, d_i the lcm of row i's
denominators, and divided by the gcd g of its entries.  For a Hankel matrix
of moments s_k = N_k / (V L^k) that division removes the common factor
V L^(2n-2), and what is eliminated is the integer Hankel matrix of the N_k
over their gcd.  A negative pivot, or a zero pivot whose row is not zero,
means not PSD, and ``psd_witness`` then reads a rational vector v with
v^T A v < 0 off the same integer rows.  Nonnegative determinants alone do
not imply PSD, so the test does not read them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import NotSymmetric, OutOfWindow, PreconditionViolated
from .exact import RationalPoly, _common_denominator, _rational

__all__ = [
    "Classification",
    "Degenerate",
    "Invalid",
    "InvalidReason",
    "MomentWindow",
    "PositiveWindow",
    "WindowAnalysis",
    "analyze",
    "classify",
    "det_sequence",
    "hankel_matrix",
    "is_psd",
    "psd_witness",
]


class MomentWindow:
    """Finite exact moment window s_0..s_m; Hankel matrices exist up to m // 2."""

    __slots__ = ("moments",)

    def __init__(self, moments: Iterable[Fraction | int | str]):
        vals = tuple(s if isinstance(s, Fraction) else _rational(s) for s in moments)
        if not vals:
            raise ValueError("a moment window needs at least s_0")
        self.moments: tuple[Fraction, ...] = vals

    @property
    def m(self) -> int:
        """Largest stored moment index."""
        return len(self.moments) - 1

    @property
    def horizon(self) -> int:
        """Largest n for which H_n fits in the window."""
        return self.m // 2

    def __len__(self) -> int:
        return len(self.moments)

    def __iter__(self):
        return iter(self.moments)

    def __getitem__(self, k):
        return self.moments[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, MomentWindow) and self.moments == other.moments

    def __hash__(self) -> int:
        return hash(self.moments)

    def __repr__(self) -> str:
        return f"MomentWindow({[str(s) for s in self.moments]})"


def _as_window(w) -> MomentWindow:
    return w if isinstance(w, MomentWindow) else MomentWindow(w)


def hankel_matrix(w, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The (n+1) x (n+1) Hankel matrix with entry (i, j) = s_{i+j}, as row tuples."""
    w = _as_window(w)
    if n < 0 or 2 * n > w.m:
        raise OutOfWindow(f"H_{n} needs s_0..s_{2*n} but the window ends at s_{w.m}")
    return tuple(w.moments[i : i + n + 1] for i in range(n + 1))


def psd_witness(matrix) -> tuple[Fraction, ...] | None:
    """None for a positive semi-definite matrix, else a rational v with v^T A v < 0.

    The witness is read off the integer rows that the elimination of
    ``is_psd`` leaves, on the failing path only; no second elimination runs.
    Write A = L (P + S) L^T with L unit lower triangular, P the finished
    pivots and S the Schur complement at the failing step k.  A negative
    pivot S[k][k] gives v = L^-T e_k, and v^T A v = S[k][k].  A zero pivot
    with b = S[k][j] != 0, j the first such index, and c = S[j][j] gives
    v = L^-T (t e_k + e_j) with t = -(c + 1) / (2b), and v^T A v = 2tb + c =
    -1.  With d the row scales, g the content and prev the last nonzero
    pivot, row i, frozen at its own step, gives L[j][i] = (d_i / d_j)
    m[i][j] / m[i][i], and S[i][j] = g m[i][j] / (prev d_i d_j).  So v = D y,
    where y_i = -sum_{j > i} m[i][j] y_j / m[i][i] back-substitutes over the
    pivoted rows from y_k = 1 / d_k, or from y_k = t / d_k and y_j = 1 / d_j.
    Raises ``NotSymmetric`` for a non-square or non-symmetric argument.
    """
    a = [[c if isinstance(c, Fraction) else _rational(c) for c in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise NotSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    m, scales, g = _scaled(a)
    failure = _eliminate(m)
    if failure is None:
        return None
    k, prev = failure
    row = m[k]
    y = [Fraction(0)] * n
    if row[k] < 0:
        y[k] = Fraction(1, scales[k])
    else:
        # A PSD matrix with a zero diagonal entry has a zero row there.
        j = next(j for j in range(k + 1, n) if row[j])
        b = Fraction(g * row[j], prev * scales[k] * scales[j])
        c = Fraction(g * m[j][j], prev * scales[j] ** 2)
        y[k], y[j] = -(c + 1) / (2 * b * scales[k]), Fraction(1, scales[j])
    for i in range(k - 1, -1, -1):
        if m[i][i]:
            y[i] = -sum((m[i][j] * y[j] for j in range(i + 1, n)), Fraction(0)) / m[i][i]
    return tuple(d * v for d, v in zip(scales, y))


def _scaled(a: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int], int]:
    """(M, d, g) with M = D A D / g an integer matrix, upper triangle only.

    d_i is the lcm of row i's denominators and g the gcd of every entry of
    D A D, 0 for a zero matrix.  For a Hankel matrix of moments s_k =
    N_k / (V L^k), D A D carries the factor V L^(2n-2) of order n, and M is
    the integer Hankel matrix of the N_k over their gcd.  Entries below the
    diagonal are 0 and never read.
    """
    scales = [math.lcm(*(x.denominator for x in row)) for row in a]
    m = [
        [0] * i + [x.numerator * (d // x.denominator) * e for x, e in zip(row[i:], scales[i:])]
        for i, (row, d) in enumerate(zip(a, scales))
    ]
    g = math.gcd(*(x for row in m for x in row))
    if g > 1:
        m = [[x // g for x in row] for row in m]
    return m, scales, g


def _eliminate(m: list[list[int]]) -> tuple[int, int] | None:
    """Fraction-free symmetric elimination of ``m`` without pivoting, in place.

    Only the upper triangle is read and updated.  At a positive pivot p,
    each entry past step k becomes (m[i][j] p - m[k][i] m[k][j]) // prev, an
    exact division (Bareiss, *Math. Comp.* 22, 1968), and prev becomes p; so
    m[i][j] = prev S[i][j] for the Schur complement S of the scaled matrix,
    and row k stays as it was at its own step.  A zero pivot with a zero row
    is skipped and leaves prev as it is.  Returns None when every step
    passes, else (k, prev) at the first negative pivot or zero pivot with a
    nonzero row.
    """
    n = len(m)
    prev = 1
    for k in range(n):
        row = m[k]
        p = row[k]
        if p > 0:
            for i in range(k + 1, n):
                f = row[i]
                m[i][i:] = [(x * p - f * y) // prev for x, y in zip(m[i][i:], row[i:])]
            prev = p
        elif p < 0 or any(row[k + 1 :]):
            return k, prev
    return None


def is_psd(matrix) -> bool:
    """Exact positive semi-definiteness test for a symmetric matrix.

    Fraction-free symmetric elimination without pivoting (``_eliminate``),
    on the integer matrix D A D / g of ``_scaled``, reads at each step k the
    pivot p = m[k][k], a positive multiple of the Schur complement's entry
    S[k][k]: p < 0 means not PSD; p = 0 means not PSD when some m[k][j],
    j > k, is nonzero, and skips the step when that row is zero; p > 0
    eliminates row and column k.  A matrix that passes every step, the empty
    and the zero matrix included, is PSD.  ``psd_witness`` returns the vector
    that proves a "not PSD" answer.  Raises ``NotSymmetric`` for a non-square
    or non-symmetric argument.
    """
    return psd_witness(matrix) is None


class InvalidReason(Enum):
    NEGATIVE_DETERMINANT = "NegativeDeterminant"
    ZERO_THEN_POSITIVE = "ZeroThenPositive"
    ZERO_S0_NONZERO_TAIL = "ZeroS0NonzeroTail"


@dataclass(frozen=True)
class PositiveWindow:
    """Every in-window determinant is positive; nothing is claimed beyond it."""

    horizon: int


@dataclass(frozen=True)
class Degenerate:
    """D_k > 0 for k < n0 and D_k = 0 for n0 <= k <= horizon.

    ``window_consistent`` records whether every window moment past index
    2*n0 - 1 agrees with the unique recurrence extension; only then is the
    window a truncated moment sequence of an n0-point measure.
    """

    n0: int
    window_consistent: bool


@dataclass(frozen=True)
class Invalid:
    """The window cannot be a moment sequence; carries the first witness index."""

    first_violation: int
    reason: InvalidReason


Classification = Union[PositiveWindow, Degenerate, Invalid]


# A row of rationals as integer numerators over one positive denominator,
# with gcd(den, *nums) = 1: the form ``_common_denominator`` gives.
_Row = tuple[list[int], int]


class _Step(NamedTuple):
    """One step of ``_pass``, at a regular index k.

    ``alpha`` and ``beta`` are (numerator, denominator) integer pairs, not
    reduced, with a positive denominator: p_k = (x - alpha) p_{k-1} - beta
    p_{k-2} after a three-term step; None at k = 0 and after a block step.
    ``_monic_from_recurrence`` reads the pairs as integers.
    """

    dets: list[Fraction]  # D_k..D_{k+d}: d zeros, then D_{k+d} != 0; or D_k..D_N, all 0
    row: _Row  # sigma_k(l) = <p_k, x^l> for l = 0..m-k
    alpha: tuple[int, int] | None
    beta: tuple[int, int] | None


def _three_term(
    f: int, fa: int, fc: int, shifted: Sequence[int], cur: Sequence[int], prev: Sequence[int],
    den: int,
) -> _Row:
    """(f * shifted - fa * cur - fc * prev) / den, entrywise, as a reduced row.

    The three-term step of ``_pass`` and ``_monic_from_recurrence``, reduced
    once by gcd(den, *nums), with no division when that gcd is 1.  The
    output has the length of the shortest input.
    """
    nums = [f * x - fa * y - fc * z for x, y, z in zip(shifted, cur, prev)]
    g = math.gcd(den, *nums)
    if g > 1:
        den, nums = den // g, [v // g for v in nums]
    return nums, den


def _block_step(r: Sequence[int], rden: int, q: Sequence[int], qden: int, k: int, d: int) -> _Row:
    """sigma_{k+d+1}(l) for l = k+d+1..m-k-d-1 across the zero run sigma_k(k..k+d-1).

    The row is sum_i u_i sigma_k(l+i) - gamma sigma_prev(l) for the monic
    u of degree d+1 and gamma = c / sigma_prev(k-1), c = sigma_k(k+d).  Its
    entries l < k-1 vanish for every u, l = k-1 fixes gamma, and l = k..k+d
    give u_d, .., u_0 in turn, each by one division by c.  The terms are put
    over one denominator and reduced once, as in ``_three_term``.
    """
    m = len(r) - 1 + k
    c = r[k + d]
    u = [Fraction(0)] * (d + 1) + [Fraction(1)]
    for t in range(d + 1):
        # gamma * sigma_prev(k+t) / c, where the denominators cancel.
        known = Fraction(q[k + t], q[k - 1])
        u[d - t] = known - sum(u[i] * r[k + t + i] for i in range(d - t + 1, d + 2)) / c
    gamma = Fraction(c * qden, rden * q[k - 1])
    lcm = math.lcm(rden * math.lcm(*(v.denominator for v in u)), gamma.denominator * qden)
    fs = [v.numerator * (lcm // (v.denominator * rden)) for v in u]
    fg = gamma.numerator * (lcm // (gamma.denominator * qden))
    nums = [
        sum(f * x for f, x in zip(fs, r[l : l + d + 2])) - fg * q[l]
        for l in range(k + d + 1, m - k - d)
    ]
    g = math.gcd(lcm, *nums)
    return [v // g for v in nums], lcm // g


def _pass(s: Sequence[Fraction]) -> Iterator[_Step]:
    """The recurrence pass over s_0..s_m, one step per regular index k <= m // 2.

    An index k is regular when D_{k-1} != 0 (D_{-1} = 1); then the monic
    p_k with <p_k, x^l> = 0 for l < k exists, and the pass holds its row
    sigma_k and that of the previous regular index.  Step k finds the first
    nonzero c = sigma_k(k+d), d >= 0, up to N = m // 2.  In the basis p_0..
    p_{k-1}, p_k, x p_k, .., x^d p_k, H_{k+d} is block diagonal: the earlier
    blocks, and a Hankel block that is zero above its antidiagonal of c.
    So D_k..D_{k+d-1} are 0 and D_{k+d} = (-1)^{d(d+1)/2} D_{k-1} c^{d+1}.
    The next regular index is k+d+1.  For d = 0 the step is the Chebyshev
    algorithm's three-term step (Gautschi, *Orthogonal Polynomials:
    Computation and Approximation*, 2004, Sec. 2.1), with alpha_k =
    sigma_k(k+1) / sigma_k(k) - sigma_prev(k) / sigma_prev(k-1) and beta_k =
    sigma_k(k) / sigma_prev(k-1), negative pivots included.  It runs in
    integers: with row k as r / rden and row k-1 as q / qden, b =
    r_k q_{k-1}, a = r_{k+1} q_{k-1} - q_k r_k and e = r_k^2 give alpha_k =
    a / b, beta_k = e qden / (b rden) and

        sigma_{k+1}(l) = (b r_{l+1} - a r_l - e q_l) / (b rden),

    where qden cancels.  Step 0 starts from the row of p_{-1} = 0: zeros
    over qden = 1, and one more entry, q[-1] = 1, that step 0 reads as
    sigma_{-1}(-1) = D_{-1}.  So b = r_0, beta_0 = s_0 as in Gautschi, and
    the e term is zero; ``_block_step`` at k = 0 reads it the same way.  b,
    a and e are divided by their gcd before ``_three_term`` forms the row.
    For d >= 1 the zero run is a defective block of the subresultant
    structure theorem (Basu, Pollack & Roy, *Algorithms in Real Algebraic
    Geometry*, Ch. 8), and ``_block_step`` steps over it, as look-ahead
    Lanczos does (Gutknecht, SIAM J. Matrix Anal. Appl. 13, 1992).  The
    pass ends after D_N, or at a row that is zero from sigma_k(k) to
    sigma_k(N), which leaves D_k..D_N zero.  Each step is yielded before the
    next row is formed, so a reader that stops at a step pays for no later
    row.  Every row is integer numerators over one positive denominator,
    reduced once by a single gcd; a reduced row is unique, and its
    denominator is the lcm of its entries' reduced denominators, so the
    entries stay the size of the determinants.  Only the O(N) determinants
    are ``Fraction`` values; alpha_k and beta_k are integer pairs.  O(N^2)
    operations in all.
    """
    m = len(s) - 1
    horizon = m // 2
    (q, qden), (r, rden) = ([0] * (m + 1) + [1], 1), _common_denominator(s)
    # det is D_{k-1}.
    zero, det, alpha, beta = Fraction(0), Fraction(1), None, None
    k = 0
    while True:
        d = 0
        while k + d <= horizon and not r[k + d]:
            d += 1
        if k + d > horizon:
            yield _Step([zero] * d, (r, rden), alpha, beta)
            return
        c = Fraction(r[k + d], rden)
        det *= (-1) ** (d * (d + 1) // 2) * c ** (d + 1) if d else c
        yield _Step([zero] * d + [det], (r, rden), alpha, beta)
        if k + d == horizon:
            return
        if d:
            nums, den = _block_step(r, rden, q, qden, k, d)
            alpha = beta = None
        else:
            b, a, e = r[k] * q[k - 1], r[k + 1] * q[k - 1] - q[k] * r[k], r[k] * r[k]
            g = math.gcd(b, a, e) if b > 0 else -math.gcd(b, a, e)
            b, a, e = b // g, a // g, e // g
            den = b * rden
            alpha, beta = (a, b), (e * qden, den)
            # Entries l <= k of the new row vanish by orthogonality and are never read.
            nums, den = _three_term(
                b, a, e, r[k + 2 : m - k + 1], r[k + 1 : m - k], q[k + 1 : m - k], den
            )
        (q, qden), (r, rden) = (r, rden), ([0] * (k + d + 1) + nums, den)
        k += d + 1


def _monic_from_recurrence(
    alphas: Sequence[tuple[int, int]], betas: Sequence[tuple[int, int]]
) -> list[_Row]:
    """p_0..p_n for n = len(alphas), from p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}.

    alpha_k = a/b and beta_k = c/e are the integer pairs of ``_Step``, read
    as integers and reduced by their gcd.  ``_three_term`` puts p_k over den
    and p_{k-1} over prev_den onto lcm(b * den, e * prev_den), and each p_k
    is returned as its integer coefficients over one denominator, the form a
    ``RationalPoly`` stores, so no polynomial is made here.
    """
    (prev, prev_den), (cur, den) = ([], 1), ([1], 1)
    rows = [(cur, den)]
    for (a, b), (c, e) in zip(alphas, betas):
        g, h = math.gcd(a, b), math.gcd(c, e)
        a, b, c, e = a // g, b // g, c // h, e // h
        lcm = math.lcm(b * den, e * prev_den)
        nxt = _three_term(
            lcm // den, a * (lcm // (b * den)), c * (lcm // (e * prev_den)),
            [0] + cur, cur + [0], prev + [0, 0], lcm,
        )
        (prev, prev_den), (cur, den) = (cur, den), nxt
        rows.append(nxt)
    return rows


# The recurrence coefficients alpha_0..alpha_{n0-1} and beta_0..beta_{n0-1}
# of a consistent degenerate window, as the integer pairs of ``_Step``.
# beta_0 = s_0, which the builder multiplies by p_{-1} = 0.
_Recurrence = tuple[list[tuple[int, int]], list[tuple[int, int]]]


@dataclass(frozen=True)
class WindowAnalysis:
    """The determinants, classification and orthogonal polynomials of a window.

    ``determinants`` is D_0..D_N for N = horizon.  ``orthogonal_polys`` is
    p_0..p_{n0}, the monic orthogonal polynomials of the window, when it is
    ``Degenerate`` with a consistent tail, and None otherwise; its last entry
    is the ``kernel``, whose roots are the n0 atoms.  The record stores only
    their recurrence coefficients, in a private field left out of ``==``,
    hash and repr; the first read of either property builds the integer
    rows of p_0..p_{n0} once, and the kernel alone wraps one of them.
    """

    window: MomentWindow
    classification: Classification
    determinants: tuple[Fraction, ...]
    _recurrence: _Recurrence | None = field(default=None, compare=False, repr=False)

    @cached_property
    def _rows(self) -> list[_Row] | None:
        return None if self._recurrence is None else _monic_from_recurrence(*self._recurrence)

    @cached_property
    def kernel(self) -> RationalPoly | None:
        """The monic p_{n0} of a consistent degenerate window, else None."""
        return None if self._rows is None else RationalPoly._from_row(*self._rows[-1])

    @cached_property
    def orthogonal_polys(self) -> tuple[RationalPoly, ...] | None:
        """p_0..p_{n0} of a consistent degenerate window, else None; p_{n0} is ``kernel``."""
        if self._rows is None:
            return None
        return (*(RationalPoly._from_row(*row) for row in self._rows[:-1]), self.kernel)


def _verdict(w) -> tuple[WindowAnalysis, Iterator[_Step]]:
    """The record of ``w`` read up to the step that fixes its verdict, and the rest of the pass.

    A ``WindowAnalysis`` is returned as it is, with an empty rest.  A window
    with s_0 = 0 and a nonzero moment reads no step: it is ``Invalid`` with
    ``first_violation`` at the first nonzero moment.  Otherwise the first
    D_k <= 0 decides; an all-zero window reads one step, with D_0 = 0 and a
    zero row, and is the zero measure, Degenerate(0, True) with p_0 = 1.
    D_k < 0 gives ``Invalid`` with a negative determinant at k.  At D_k = 0
    the window is degenerate at n0 = k when its tail obeys the recurrence of
    p_{n0}, i.e. <p_{n0}, x^l> = 0 for every l up to m - n0, which is the
    row of that step.  Every later D_j is then zero: for n0 <= j <= N and t
    <= j - n0 the coefficient vector c of x^t p_{n0} is nonzero, and (H_j
    c)_i = <p_{n0}, x^{i+t}> = 0 because i + t <= 2j - n0 <= m - n0.  So that
    step, the pass's last, yields D_k..D_N.  Otherwise the same step ends
    with the first later nonzero D_j, whose sign tells ``ZeroThenPositive``
    from a negative determinant, or with none, which leaves the window
    degenerate with an inconsistent tail.  No D_k <= 0 gives
    ``PositiveWindow``.  The record holds the D_j read; only a consistent
    degenerate window gets the recurrence coefficients alpha_k and beta_k of
    its steps.
    """
    if isinstance(w, WindowAnalysis):
        return w, iter(())
    w = _as_window(w)
    steps = _pass(w.moments)
    dets: list[Fraction] = []
    alphas: list[tuple[int, int]] = []
    betas: list[tuple[int, int]] = []
    cls, recurrence = PositiveWindow(w.horizon), None
    if w[0] == 0 and any(w):
        first_nonzero = next(j for j, s in enumerate(w) if s)
        cls = Invalid(first_nonzero, InvalidReason.ZERO_S0_NONZERO_TAIL)
    else:
        for step in steps:
            k = len(dets)
            dets += step.dets
            if step.alpha is not None:
                alphas.append(step.alpha)
                betas.append(step.beta)
            # D_k has the sign of its numerator, read without a Fraction comparison.
            sign = step.dets[0].numerator
            if sign > 0:
                continue
            if sign < 0:
                cls = Invalid(k, InvalidReason.NEGATIVE_DETERMINANT)
            elif not any(step.row[0][k:]):
                cls, recurrence = Degenerate(k, True), (alphas, betas)
            elif dets[-1] == 0:
                cls = Degenerate(k, False)
            elif dets[-1] < 0:
                cls = Invalid(len(dets) - 1, InvalidReason.NEGATIVE_DETERMINANT)
            else:
                cls = Invalid(len(dets) - 1, InvalidReason.ZERO_THEN_POSITIVE)
            break
    return WindowAnalysis(w, cls, tuple(dets), recurrence), steps


def _consistent_analysis(w, caller: str) -> WindowAnalysis:
    """``analyze`` up to the verdict, for ``reconstruct`` and ``extend``.

    A ``WindowAnalysis`` is read without a pass.  On a consistent
    degenerate window the verdict step is the pass's last, so the record is
    whole.  Raises ``PreconditionViolated``, naming ``caller``, for a record
    without the recurrence of p_0..p_{n0}.
    """
    record = _verdict(w)[0]
    if record._recurrence is None:
        cls = record.classification
        raise PreconditionViolated(f"{caller} needs a consistent degenerate window, got {cls}")
    return record


def analyze(w) -> WindowAnalysis:
    """Determinants, classification and orthogonal polynomials in one exact pass.

    ``_verdict`` reads the steps of ``_pass`` up to the step that fixes the
    classification, and ``analyze`` reads the rest to D_N.  Library
    ``classify``, ``reconstruct`` and ``extend`` stop at the verdict.  No
    polynomial is built until the record's ``orthogonal_polys`` or
    ``kernel`` is read.  A ``WindowAnalysis`` is returned as it is, with no
    pass step.
    """
    record, rest = _verdict(w)
    later = tuple(d for step in rest for d in step.dets)
    return replace(record, determinants=record.determinants + later) if later else record


def det_sequence(w) -> list[Fraction]:
    """The Hankel determinants [D_0, ..., D_N] for N = horizon of the window.

    They are the determinants of ``analyze``, and no orthogonal polynomial
    is built.
    """
    return list(analyze(w).determinants)


def classify(w) -> Classification:
    """Classify a window by the sign pattern of its Hankel determinants.

    A positive prefix D_0..D_{n0-1} followed only by zeros gives
    ``Degenerate`` (with the tail-consistency bit), all positive gives
    ``PositiveWindow``, and a negative determinant or a zero followed by a
    positive one gives ``Invalid``; see ``analyze``.  The pass stops at the
    step that fixes the verdict, and no orthogonal polynomial is built.
    """
    return _verdict(w)[0].classification
