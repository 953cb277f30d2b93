"""Hankel matrices, exact determinants, PSD testing, and window classification.

The classification follows the trichotomy induced by the sign pattern of the
Hankel determinant sequence D_0..D_N of a finite moment window: all positive,
a positive prefix followed only by zeros (the degenerate case, carrying a
finitely supported representing measure), or anything else, which cannot be a
moment sequence.

``analyze`` reads all of this off one exact O(N^2) pass of the Chebyshev
algorithm (Gautschi, *Orthogonal Polynomials: Computation and Approximation*,
2004, Sec. 2.1).  The pass tracks the mixed moments sigma_k(l) = <p_k, x^l> of
the monic orthogonal polynomials p_k, whose pivots h_k = sigma_k(k) give
D_k = D_{k-1} * h_k and whose recurrence coefficients build p_{k+1} =
(x - alpha_k) p_k - beta_k p_{k-1}.  It stops at the first h_k <= 0.  On a
consistent degenerate window it keeps p_0..p_{n0}: p_{n0} is the kernel whose
roots are the atoms, and p_{n0}, ..., p_0 is a Sturm sequence for it.
Past a zero or negative pivot, which only a window that is no moment
sequence has, the determinants are signed subresultant coefficients: a
look-ahead continuation of the pass (``_continuation``) gives D_{k+1}..D_N
from its last two rows in O(N^2) more operations, across zero blocks too.
Bareiss elimination (``det_exact``) is for general matrices and is not on
this path.  Every row of the pass, of the continuation and of the
polynomials p_k is integer numerators over one positive denominator, the
form of ``_common_denominator``, reduced once per row by a single gcd; each
p_k is handed to ``RationalPoly`` in that form, and only the O(N) pivots and
recurrence coefficients are ``Fraction`` values.  A reduced row's
denominator is the lcm of its entries' reduced denominators, so the entries
do not grow like determinants, as those of a fraction-free pass would.

``is_psd`` decides positive semi-definiteness by exact symmetric (LDL^T)
elimination without pivoting, O(n^3) per matrix: a negative pivot, or a zero
pivot whose row is not zero, means not PSD, and ``psd_witness`` then returns a
rational vector v with v^T A v < 0.  Nonnegative determinants alone do not
imply PSD, so the test does not read them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import NotSymmetric, OutOfWindow
from .exact import RationalPoly, _common_denominator

__all__ = [
    "Classification",
    "Degenerate",
    "Invalid",
    "InvalidReason",
    "MomentWindow",
    "PositiveWindow",
    "SymMatrix",
    "WindowAnalysis",
    "analyze",
    "classify",
    "det_exact",
    "det_sequence",
    "hankel_matrix",
    "is_psd",
    "psd_witness",
]


class MomentWindow:
    """Finite exact moment window s_0..s_m; Hankel matrices exist up to m // 2."""

    __slots__ = ("moments",)

    def __init__(self, moments: Iterable[Fraction | int | str]):
        vals = tuple(s if isinstance(s, Fraction) else Fraction(s) for s in moments)
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


class SymMatrix:
    """Symmetric square matrix with exact rational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int | str]]):
        rs = tuple(tuple(c if isinstance(c, Fraction) else Fraction(c) for c in row) for row in rows)
        n = len(rs)
        if any(len(row) != n for row in rs):
            raise NotSymmetric("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if rs[i][j] != rs[j][i]:
                    raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
        self.rows: tuple[tuple[Fraction, ...], ...] = rs

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"SymMatrix({[[str(c) for c in row] for row in self.rows]})"


def hankel_matrix(w, n: int) -> SymMatrix:
    """The (n+1) x (n+1) Hankel matrix with entry (i, j) = s_{i+j}."""
    w = _as_window(w)
    if n < 0 or 2 * n > w.m:
        raise OutOfWindow(f"H_{n} needs s_0..s_{2*n} but the window ends at s_{w.m}")
    return SymMatrix([[w[i + j] for j in range(n + 1)] for i in range(n + 1)])


def _as_rows(matrix) -> list[list[Fraction]]:
    if isinstance(matrix, SymMatrix):
        return [list(row) for row in matrix.rows]
    rows = [[c if isinstance(c, Fraction) else Fraction(c) for c in row] for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    return rows


def det_exact(matrix) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination.

    Rows are first scaled to integers (the scale is divided back out at the
    end); elimination then uses exact integer divisions only.  A zero pivot is
    repaired by a sign-tracked row swap, and a fully zero pivot column short
    circuits to zero.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = 1
    m: list[list[int]] = []
    for row in rows:
        nums, den = _common_denominator(row)
        m.append(nums)
        scale *= den
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot_val = pivot_row[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot_val - factor * pivot_row[j]) // prev
            row_i[k] = 0
        prev = pivot_val
    return Fraction(sign * m[n - 1][n - 1], scale)


def psd_witness(matrix) -> tuple[Fraction, ...] | None:
    """None for a positive semi-definite matrix, else a rational v with v^T A v < 0.

    Runs exact symmetric elimination without pivoting; see ``is_psd`` for the
    rule.  At a negative pivot d_k of the Schur complement S, v = L^-T e_k gives
    v^T A v = d_k.  At a zero pivot with b = S[k][j] != 0 and c = S[j][j],
    v = L^-T (t e_k + e_j) with t = -(c + 1) / (2b) gives v^T A v =
    2tb + c = -1.  Here A = L (D + S) L^T with L unit lower triangular.
    Raises ``NotSymmetric`` for a non-symmetric argument.
    """
    if not isinstance(matrix, SymMatrix):
        matrix = SymMatrix(matrix)
    # Only the upper triangle is updated and read.  Row i is final once step i
    # has run, so row i of ``a`` then holds pivot d_i and the multipliers
    # L[m][i] = a[i][m] / d_i that the witness needs.
    a = [list(row) for row in matrix.rows]
    n = len(a)
    for k in range(n):
        row = a[k]
        d = row[k]
        if d > 0:
            for i in range(k + 1, n):
                if row[i]:
                    f = row[i] / d
                    a[i][i:] = [x - f * y for x, y in zip(a[i][i:], row[i:])]
            continue
        if d < 0:
            return _back_substitute(a, {k: Fraction(1)})
        j = next((j for j in range(k + 1, n) if row[j]), None)
        if j is not None:
            # A PSD matrix with a zero diagonal entry has a zero row there.
            return _back_substitute(a, {k: -(a[j][j] + 1) / (2 * row[j]), j: Fraction(1)})
    return None


def _back_substitute(a: list[list[Fraction]], u: dict[int, Fraction]) -> tuple[Fraction, ...]:
    """v = L^-T u for u supported past every finished step, L read off ``a``."""
    n = len(a)
    v = [u.get(i, Fraction(0)) for i in range(n)]
    for i in range(min(u) - 1, -1, -1):
        if a[i][i]:
            v[i] = -sum((a[i][m] * v[m] for m in range(i + 1, n)), Fraction(0)) / a[i][i]
    return tuple(v)


def is_psd(matrix) -> bool:
    """Exact positive semi-definiteness test for a symmetric matrix.

    Symmetric elimination without pivoting reads the pivot d = a[k][k] of the
    current Schur complement at each step k: d < 0 means not PSD; d = 0 means
    not PSD when some a[k][j], j > k, is nonzero, and skips the step when that
    row is zero; d > 0 eliminates row and column k.  A matrix that passes every
    step is PSD.  ``psd_witness`` returns the vector that proves a "not PSD"
    answer.  Raises ``NotSymmetric`` for a non-symmetric argument.
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


class _Recurrence(NamedTuple):
    pivots: list[Fraction]  # h_0..h_k, where the pass stopped after h_k
    alphas: list[Fraction]  # alpha_0..
    betas: list[Fraction]  # beta_0 = s_0, beta_1..
    prev: _Row  # sigma_{k-1}(l) for l = 0..m-k+1; zeros when k = 0
    row: _Row  # sigma_k(l) for l = 0..m-k, i.e. <p_k, x^l>


def _three_term(
    shifted: Sequence[int],
    cur: Sequence[int],
    den: int,
    prev: Sequence[int],
    prev_den: int,
    alpha: Fraction,
    beta: Fraction,
) -> _Row:
    """shifted - alpha * cur - beta * prev, entrywise, as a reduced row.

    ``shifted`` and ``cur`` are numerators over ``den`` and ``prev`` over
    ``prev_den``.  With alpha = a/b and beta = c/e every term is put over
    L = lcm(b * den, e * prev_den) by three integer factors, and the result
    is reduced once by gcd(L, *nums).  The output has the length of the
    shortest input.
    """
    a, b = alpha.numerator, alpha.denominator
    c, e = beta.numerator, beta.denominator
    lcm = math.lcm(b * den, e * prev_den)
    f, fa, fc = lcm // den, a * (lcm // (b * den)), c * (lcm // (e * prev_den))
    nums = [f * x - fa * y - fc * z for x, y, z in zip(shifted, cur, prev)]
    g = math.gcd(lcm, *nums)
    return [v // g for v in nums], lcm // g


def _chebyshev(s: Sequence[Fraction]) -> _Recurrence:
    """The Chebyshev algorithm over s_0..s_m, up to the first pivot h_k <= 0.

    Step k reads the pivot h_k = sigma_k(k) = D_k / D_{k-1}; the pass ends
    there when h_k <= 0 or k = m // 2.  Otherwise it forms alpha_k, beta_k and
    the next row sigma_{k+1}(l) = sigma_k(l+1) - alpha_k sigma_k(l) -
    beta_k sigma_{k-1}(l), whose pivot needs s_{2k+2}, in the window since
    k < m // 2.  Each row is integer numerators over one denominator, reduced
    once per row by ``_three_term``, so its entries stay as small as the
    lcm of their reduced denominators; only the O(N) pivots and recurrence
    coefficients are ``Fraction`` values.
    """
    m = len(s) - 1
    pivots: list[Fraction] = []
    alphas: list[Fraction] = []
    betas: list[Fraction] = []
    (q, qden), (r, rden) = ([0] * (m + 1), 1), _common_denominator(s)
    k = 0
    while True:
        h = Fraction(r[k], rden)
        pivots.append(h)
        if h <= 0 or k == m // 2:
            break
        if k == 0:
            alphas.append(Fraction(r[1], r[0]))
            betas.append(h)
        else:
            alphas.append(Fraction(r[k + 1], r[k]) - Fraction(q[k], q[k - 1]))
            betas.append(h / pivots[k - 1])
        # Entries l <= k of the new row vanish by orthogonality and are never read.
        shifted, cur, prev = r[k + 2 : m - k + 1], r[k + 1 : m - k], q[k + 1 : m - k]
        nums, den = _three_term(shifted, cur, rden, prev, qden, alphas[k], betas[k])
        (q, qden), (r, rden) = (r, rden), ([0] * (k + 1) + nums, den)
        k += 1
    return _Recurrence(pivots, alphas, betas, (q, qden), (r, rden))


def _continuation(rec: _Recurrence, m: int, known: Sequence[Fraction]) -> list[Fraction]:
    """D_k..D_{m // 2} past the pass's stop at h_k <= 0, given known = D_0..D_k.

    D_j is the signed subresultant coefficient sRes_{m-j}(P, Q) of P = x^{m+1}
    and Q = sum_l s_l x^{m-l} (Basu, Pollack & Roy, *Algorithms in Real
    Algebraic Geometry*, Ch. 8-9).  Read as the coefficients of x^{m-l} for
    l = k..m-k, the row sigma_k is the top of sResP_{m-k} / D_{k-1}, and
    sigma_{k-1} / h_{k-1} is the monic sResP_{m-k+1} (P itself for k = 0).
    From these two rows the signed subresultant recursion (BPR Alg. 8.21)
    goes on with every remainder row monic and its scale in two scalars: t,
    the leading coefficient of the current sResP, and s_j, the last nonzero
    sRes.  A row whose first ``lead`` entries vanish is a defective block:
    sRes is 0 at those indices, and t_{j-d-1} = (-1)^d t_{j-1} t_{j-d} / s_j
    for d = 1..lead gives the sRes below them.  Each long division keeps only
    the coefficients the window determines, one fewer per quotient
    coefficient, which is the triangle of the Chebyshev rows; without a
    defect the step is the Chebyshev step.  A row that is zero as far as it
    is determined makes every later D_j zero.  O(N^2) field operations.
    Rows are integer numerators over one denominator, as in ``_chebyshev``:
    the monic row is the remainder's numerators over its leading one, each
    division step multiplies the remainder's denominator by that lead, and
    the remainder is reduced once at the end; t, s_j and the scale are
    ``Fraction`` values.
    """
    k = len(rec.pivots) - 1
    count = m // 2 - k + 1
    if k == 0:
        (a, aden), s_j = ([1] + [0] * (m + 1), 1), Fraction(1)
    else:
        # h_{k-1} > 0, so its numerator is a positive denominator.
        q = rec.prev[0]
        (a, aden), s_j = (q[k - 1 : m - k + 2], q[k - 1]), known[k - 1]
    # r / rden holds the leading coefficients of sResP / scale, from the
    # degree below that of the monic row a / aden down.
    (r, rden), scale = (rec.row[0][k : m - k + 1], rec.row[1]), s_j
    dets: list[Fraction] = []
    while True:
        lead = next((i for i, v in enumerate(r) if v), None)
        if lead is None:
            break
        c = r[lead]
        t = scale * Fraction(c, rden)
        # The t_{j-d-1} recursion multiplied out over d = 1..lead.
        s_new = t ** (lead + 1) / s_j**lead
        if lead * (lead + 1) // 2 % 2:
            s_new = -s_new
        dets += [Fraction(0)] * lead + [s_new]
        if len(dets) >= count:
            break
        b, bden = (r[lead:], c) if c > 0 else ([-v for v in r[lead:]], -c)
        # b is always the shorter row, and a coefficient of a past len(b)
        # would only meet undetermined ones of b.
        rem, rem_den = a[: len(b)], aden
        for i in range(lead + 2):
            q = rem[i]
            if q:
                rem[i + 1 :] = [x * bden - q * y for x, y in zip(rem[i + 1 :], b[1:])]
                rem_den *= bden
        rem = rem[lead + 2 :]
        g = math.gcd(rem_den, *rem)
        a, aden = b, bden
        r, rden = [v // g for v in rem], rem_den // g
        scale, s_j = -s_new * t / s_j, s_new
    return dets[:count] + [Fraction(0)] * (count - len(dets))


def _monic_from_recurrence(
    alphas: Sequence[Fraction], betas: Sequence[Fraction]
) -> tuple[RationalPoly, ...]:
    """p_0..p_n for n = len(alphas), from p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}.

    Each p_k is built as integer coefficients over one denominator by
    ``_three_term``, the form a ``RationalPoly`` stores, and kept as it is.
    """
    (prev, prev_den), (cur, den) = ([], 1), ([1], 1)
    rows = [(cur, den)]
    for alpha, beta in zip(alphas, betas):
        padded = prev + [0] * (len(cur) + 1 - len(prev))
        nxt = _three_term([0] + cur, cur + [0], den, padded, prev_den, alpha, beta)
        (prev, prev_den), (cur, den) = (cur, den), nxt
        rows.append(nxt)
    return tuple(RationalPoly._from_row(nums, d) for nums, d in rows)


@dataclass(frozen=True)
class WindowAnalysis:
    """The determinants, classification and orthogonal polynomials of a window.

    ``determinants`` is D_0..D_N for N = horizon.  ``orthogonal_polys`` is
    p_0..p_{n0}, the monic orthogonal polynomials of the window, when it is
    ``Degenerate`` with a consistent tail, and None otherwise; its last entry
    is the ``kernel``, whose roots are the n0 atoms.
    """

    window: MomentWindow
    classification: Classification
    orthogonal_polys: tuple[RationalPoly, ...] | None
    determinants: tuple[Fraction, ...]

    @property
    def kernel(self) -> RationalPoly | None:
        """The monic p_{n0} of a consistent degenerate window, else None."""
        return self.orthogonal_polys[-1] if self.orthogonal_polys else None


def analyze(w) -> WindowAnalysis:
    """Determinants, classification and orthogonal polynomials in one exact pass.

    The Chebyshev pass gives D_0..D_k up to the first pivot h_k <= 0.  All
    positive gives ``PositiveWindow``; h_k < 0 gives ``Invalid`` with a
    negative determinant at k.  At h_k = 0 the window is degenerate at n0 = k
    when its tail obeys the recurrence of p_{n0}, i.e. <p_{n0}, x^l> = 0 for
    every l up to m - n0, which the pass has just computed, and D_{k+1}..D_N
    are then zero.  Otherwise a pass that stops short of D_N is continued
    once past the stop for D_{k+1}..D_N, and the first later nonzero D_j
    tells ``ZeroThenPositive`` from a negative determinant, or none leaves
    the window degenerate with an inconsistent tail.  A window with s_0 = 0
    is the zero measure when every moment is zero and ``Invalid`` otherwise,
    with ``first_violation`` pointing at the first nonzero moment.  Only a
    consistent degenerate window gets p_0..p_{n0}, built from the recurrence
    coefficients of the same pass.
    """
    w = _as_window(w)
    horizon = w.horizon
    rec = _chebyshev(w.moments)
    dets = list(accumulate(rec.pivots, mul))
    k = len(dets) - 1
    consistent = rec.pivots[k] == 0 and not any(rec.row[0][k:])
    if consistent:
        # Every later D_j is 0 with no elimination: for n0 <= j <= horizon
        # and t <= j - n0 the coefficient vector c of x^t p_{n0} is nonzero
        # (p_{n0} is monic), and (H_j c)_i = <x^i, x^t p_{n0}> =
        # <p_{n0}, x^{i+t}> = 0 because i + t <= 2j - n0 <= m - n0.
        dets += [Fraction(0)] * (horizon - k)
    elif k < horizon:
        # Past a zero or negative pivot the continuation gives D_k..D_N.
        dets[k:] = _continuation(rec, w.m, dets)
    if w[0] == 0:
        first_nonzero = next((j for j, s in enumerate(w) if s != 0), None)
        cls: Classification = (
            Degenerate(0, True)
            if first_nonzero is None
            else Invalid(first_nonzero, InvalidReason.ZERO_S0_NONZERO_TAIL)
        )
    elif rec.pivots[k] > 0:
        cls = PositiveWindow(horizon)
    elif rec.pivots[k] < 0:
        cls = Invalid(k, InvalidReason.NEGATIVE_DETERMINANT)
    elif consistent:
        cls = Degenerate(k, True)
    else:
        # Past a zero pivot with an inconsistent tail the recurrence breaks
        # down, and the later D_j from the continuation tell the cases apart.
        later = next((j for j in range(k + 1, horizon + 1) if dets[j] != 0), None)
        if later is None:
            cls = Degenerate(k, False)
        elif dets[later] < 0:
            cls = Invalid(later, InvalidReason.NEGATIVE_DETERMINANT)
        else:
            cls = Invalid(later, InvalidReason.ZERO_THEN_POSITIVE)
    polys = _monic_from_recurrence(rec.alphas, rec.betas) if consistent else None
    return WindowAnalysis(w, cls, polys, tuple(dets))


def det_sequence(w) -> list[Fraction]:
    """The Hankel determinants [D_0, ..., D_N] for N = horizon of the window."""
    return list(analyze(w).determinants)


def classify(w) -> Classification:
    """Classify a window by the sign pattern of its Hankel determinants.

    A positive prefix D_0..D_{n0-1} followed only by zeros gives
    ``Degenerate`` (with the tail-consistency bit), all positive gives
    ``PositiveWindow``, and a negative determinant or a zero followed by a
    positive one gives ``Invalid``; see ``analyze``.
    """
    return analyze(w).classification
