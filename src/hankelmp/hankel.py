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
stores the recurrence coefficients of a consistent degenerate window, and
``classify``, ``det_sequence`` and ``analyze`` build no polynomial from
them.  p_{n0} is the kernel whose roots are the atoms.  On its first read
the coefficients form the Jacobi matrix, whose float eigenvalues are the
atoms (Golub & Welsch), and ``_hinted_atoms`` turns them into
convergents with small denominators.  When n0 distinct ones pass one exact
orthogonality check on the window, they are the atoms and the kernel is
the product of their linear factors, cached on the record with them.
Otherwise the builder forms p_0..p_{n0} from the coefficients, and
p_{n0}, ..., p_0 is a Sturm sequence for the kernel.  Rows and polynomials are
integer numerators over one positive denominator, the form of
``_common_denominator`` and of ``RationalPoly``, reduced once per row by a
single gcd.  One integer three-term step, ``_three_term``, forms both from
the two rows before with three integer multipliers, the look-ahead step
``_block_step`` crosses a zero run by gcd-reduced two-term integer
eliminations, and the builder reads the pass's alpha_k and beta_k as integer
pairs, so no ``Fraction`` is made but the determinants.

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
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import NotSymmetric, OutOfWindow, PreconditionViolated
from .exact import RationalPoly, _common_denominator, _is_int, _not_text, _rational

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
        vals = tuple(
            s if isinstance(s, Fraction) else _rational(s) for s in _not_text(moments, "moments")
        )
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
    """The (n+1) x (n+1) Hankel matrix with entry (i, j) = s_{i+j}, as row tuples.

    Raises ``ValueError`` unless n is an integer, and ``OutOfWindow`` unless
    0 <= n and s_{2n} is in the window.
    """
    if not _is_int(n):
        raise ValueError("n must be an integer")
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
    ``_monic_from_recurrence`` reads the pairs as integers.  Both steps form
    ``row`` in integers.
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


def _block_step(r: Sequence[int], rden: int, q: Sequence[int], k: int, d: int) -> _Row:
    """sigma_{k+d+1}(l) for l = k+d+1..m-k-d-1 across the zero run sigma_k(k..k+d-1).

    Fraction-free integer eliminations (Bareiss, *Math. Comp.* 22, 1968) on
    the row r of p_k and the row q of the previous regular index, with c =
    r[k+d] and c' = q[k-1] (``c_prev``).  R(l) = (c'/g) r[l+d+1] - (c/g) q[l], with g =
    gcd(c, c') signed like c', vanishes at l = k-1.  For t = 0..d, the row
    of x^(d-t) p_k, zero below l = k+t and c there, clears entry k+t: R <-
    (c/h) R - (R(k+t)/h) r[l+d-t], with h = gcd(c, R(k+t)) signed like c.
    Then R over (c'/g) rden prod_t (c/h), a positive denominator in which
    q's own denominator cancels, is the row of the monic p_{k+d+1}, and it
    is reduced once, as in ``_three_term``.  From l = k+t+1 on, the row of
    x^(d-t) p_k is r[k+d+1:] for every t, so each elimination drops the
    entry it clears.  Every slice starts at l = k: at k = 0, q[k-1] is the
    sentinel 1 of p_{-1}, and q[k-1:] would wrap.
    """
    c, c_prev, tail = r[k + d], q[k - 1], r[k + d + 1 :]
    g = math.gcd(c, c_prev) if c_prev > 0 else -math.gcd(c, c_prev)
    lead, cg = c_prev // g, c // g
    row, den = [lead * x - cg * y for x, y in zip(tail, q[k:])], lead * rden
    for _ in range(d + 1):
        h = math.gcd(c, row[0]) if c > 0 else -math.gcd(c, row[0])
        f, e = c // h, row[0] // h
        row, den = [f * x - e * y for x, y in zip(row[1:], tail)], den * f
    g = math.gcd(den, *row)
    return [v // g for v in row], den // g


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
    Lanczos does (Gutknecht, SIAM J. Matrix Anal. Appl. 13, 1992), by d + 2
    fraction-free integer eliminations in which qden cancels too.  The
    pass ends after D_N, or at a row that is zero from sigma_k(k) to
    sigma_k(N), which leaves D_k..D_N zero.  Each step is yielded before the
    next row is formed, so a reader that stops at a step pays for no later
    row.  Every row is integer numerators over one positive denominator,
    reduced once by a single gcd; a reduced row is unique, and its
    denominator is the lcm of its entries' reduced denominators, so the
    entries stay the size of the determinants.  Both steps run in integers:
    only the O(N) determinants are ``Fraction`` values, and alpha_k and
    beta_k are integer pairs.  O(N^2) operations in all.
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
            nums, den = _block_step(r, rden, q, k, d)
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


def _jacobi_eigenvalues(diag: list[float], off: list[float]):
    """Eigenvalues of a symmetric tridiagonal matrix, each yielded as it deflates.

    ``diag`` is the diagonal and ``off[i]`` the entry (i, i+1); both are
    overwritten.  Implicit-shift QL, the tql1 of EISPACK (Bowdler, Martin,
    Reinsch & Wilkinson, Numer. Math. 11, 1968): for each l in turn, shifted
    QL sweeps run on the block from l to the first negligible off-diagonal
    entry until off[l] is negligible, and diag[l] is then an eigenvalue.  The
    generator stops early when one l takes more than 30 sweeps.
    """
    n = len(diag)
    off.append(0.0)
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(diag[m]) + abs(diag[m + 1])
                if abs(off[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            if sweeps == 30:
                return
            sweeps += 1
            g = (diag[l + 1] - diag[l]) / (2.0 * off[l])
            r = math.hypot(g, 1.0)
            g = diag[m] - diag[l] + off[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * off[i], c * off[i]
                r = off[i + 1] = math.hypot(f, g)
                if r == 0.0:
                    # The block splits at i + 1: sweep again from l.
                    diag[i + 1] -= p
                    off[m] = 0.0
                    break
                s, c = f / r, g / r
                g = diag[i + 1] - p
                r = (diag[i] - g) * s + 2.0 * c * b
                p = s * r
                diag[i + 1] = g + p
                g = c * r - b
            else:
                diag[l] -= p
                off[l], off[m] = g, 0.0
        yield diag[l]


# Candidate atoms r / q have q below this bound.  Past it, irrational
# eigenvalues begin to meet the 2**-40 test by chance, and each such miss
# costs a failed orthogonality check.
_MAX_HINT_DEN = 1 << 16


def _convergent(x: float, tol: float) -> tuple[int, int] | None:
    """(r, q): the first continued-fraction convergent r / q of x within tol, or None.

    The convergents of x = n / d, read off ``x.as_integer_ratio()``, are in
    lowest terms and have increasing denominators q > 0; None when q reaches
    ``_MAX_HINT_DEN`` first.  |x - r / q| <= tol is tested in integers, as
    |n q - r d| * tden <= tnum * d * q for tol = tnum / tden.  A rational
    atom r / q with q below the bound is a convergent of every float close
    enough to it (Legendre's theorem; Khinchin, *Continued Fractions*, 1964,
    Thm. 19), and the expansion of x ends at x itself, which always passes.
    """
    n, d = x.as_integer_ratio()
    tnum, tden = tol.as_integer_ratio()
    num, den, (r0, q0), (r, q) = n, d, (0, 1), (1, 0)
    while True:
        a, rem = divmod(num, den)
        (r0, q0), (r, q) = (r, q), (a * r + r0, a * q + q0)
        if q >= _MAX_HINT_DEN:
            return None
        if abs(n * q - r * d) * tden <= tnum * d * q:
            return r, q
        num, den = den, rem


# The n0 atoms of a window, increasing, and the coefficients, lowest first,
# of the primitive integer kernel that is the product of their linear factors.
_Hint = tuple[tuple[Fraction, ...], list[int]]


def _hinted_atoms(recurrence: _Recurrence, moments: Sequence[Fraction]) -> _Hint | None:
    """All n0 atoms and their product kernel, when each is rational with a small denominator.

    The atoms are the eigenvalues of the window's Jacobi matrix, with
    diagonal alpha_0..alpha_{n0-1} and off-diagonal sqrt(beta_1)..
    sqrt(beta_{n0-1}) (Golub & Welsch, Math. Comp. 23, 1969).  Each float
    eigenvalue proposes its ``_convergent`` within tol = 2**-40 * max(1,
    max |alpha| + 2 max sqrt(beta)), the last term Gershgorin's bound on
    every |eigenvalue|, and floats only propose: the product K
    of the q_j x - r_j over the distinct candidates r_j / q_j is primitive
    by Gauss's lemma, and it is accepted only when sum_i K_i S_{l+i} = 0 for
    every l < n0, S the integers of s_0..s_{2n0-1} over their common
    denominator.  D_{n0-1} != 0, so no nonzero polynomial of degree below
    n0 passes, and p_{n0} is the one monic polynomial of degree n0 that
    does: so K has n0 distinct roots, K / K_{n0} is the kernel, and the
    candidates are all its roots.  None at the first eigenvalue without a
    candidate, so an irrational kernel costs one eigenvalue, without any
    hint when a float overflows, and when the candidates collide, fall
    short or fail the check.
    """
    alphas, betas = recurrence
    n0 = len(alphas)
    try:
        diag = [a / b for a, b in alphas]
        off = [math.sqrt(c / e) for c, e in betas[1:]]
    except OverflowError:
        return None
    tol = 2.0**-40 * max(1.0, max(map(abs, diag), default=0.0) + 2.0 * max(off, default=0.0))
    found: set[tuple[int, int]] = set()
    for x in _jacobi_eigenvalues(diag, off):
        if not math.isfinite(x) or (atom := _convergent(x, tol)) is None:
            return None
        found.add(atom)
    kernel = [1]
    for r, q in found:
        kernel = [q * b - r * a for a, b in zip(kernel + [0], [0] + kernel)]
    s = _common_denominator(moments[: 2 * n0])[0]
    if any(sum(map(mul, kernel, s[l : l + n0 + 1])) for l in range(n0)):
        return None
    return tuple(sorted(Fraction(r, q) for r, q in found)), kernel


@dataclass(frozen=True)
class WindowAnalysis:
    """The determinants, classification and orthogonal polynomials of a window.

    ``determinants`` is D_0..D_N for N = horizon.  ``orthogonal_polys`` is
    p_0..p_{n0}, the monic orthogonal polynomials of the window, when it is
    ``Degenerate`` with a consistent tail, and None otherwise; its last entry
    is the ``kernel``, whose roots are the n0 atoms.  The record stores only
    their recurrence coefficients, in a private field left out of ``==``,
    hash and repr.  The kernel's first read tries the atoms first: when
    ``_hinted_atoms`` finds them all, the kernel is the product of their
    linear factors and no row is built.  Otherwise, and on the first read
    of ``orthogonal_polys``, the integer rows of p_0..p_{n0} are built once.
    """

    window: MomentWindow
    classification: Classification
    determinants: tuple[Fraction, ...]
    _recurrence: _Recurrence | None = field(default=None, compare=False, repr=False)

    @cached_property
    def _hint(self) -> _Hint | None:
        """The atoms and product kernel of ``_hinted_atoms``, when it finds them all, else None."""
        if self._recurrence is None:
            return None
        return _hinted_atoms(self._recurrence, self.window.moments)

    @cached_property
    def _rows(self) -> list[_Row] | None:
        return None if self._recurrence is None else _monic_from_recurrence(*self._recurrence)

    @cached_property
    def kernel(self) -> RationalPoly | None:
        """The monic p_{n0} of a consistent degenerate window, else None."""
        if self._hint is not None:
            # Primitive with a positive leading coefficient, so this is the reduced monic row.
            cs = self._hint[1]
            return RationalPoly._from_row(cs, cs[-1])
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
