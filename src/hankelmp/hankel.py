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
(x - alpha_k) p_k - beta_k p_{k-1}.  It stops at the first h_k <= 0.  Bareiss
elimination computes the determinants past that point only for a window
that is no moment sequence, and only when the verdict or a reader needs them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import NotSymmetric, OutOfWindow
from .exact import RationalPoly

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
    "principal_minor_sums",
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

    def with_appended(self, extra: Iterable[Fraction | int | str]) -> "MomentWindow":
        return MomentWindow(self.moments + tuple(Fraction(s) for s in extra))

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

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

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
        den = reduce(math.lcm, (c.denominator for c in row), 1)
        m.append([int(c * den) for c in row])
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


def _solve_exact(rows, rhs) -> list[Fraction] | None:
    """Solve rows @ x = rhs exactly by Gaussian elimination; None if singular."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, n):
            if aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                for j in range(col, n + 1):
                    aug[r][j] -= f * aug[col][j]
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n] - sum((aug[i][j] * out[j] for j in range(i + 1, n)), Fraction(0))
        out[i] = acc / aug[i][i]
    return out


def _matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def principal_minor_sums(matrix) -> list[Fraction]:
    """[e_1, ..., e_n] where e_k is the sum of all k x k principal minors.

    Computed exactly by the Faddeev-LeVerrier trace recursion, so the cost is
    polynomial in the order; det(xI - M) = x^n - e_1 x^(n-1) + e_2 x^(n-2) - ...
    """
    a = _as_rows(matrix)
    n = len(a)
    b = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    sums: list[Fraction] = []
    for k in range(1, n + 1):
        ab = _matmul(a, b)
        d = -sum((ab[i][i] for i in range(n)), Fraction(0)) / k
        sums.append(d if k % 2 == 0 else -d)
        for i in range(n):
            ab[i][i] += d
        b = ab
    return sums


def is_psd(matrix) -> bool:
    """Exact positive semi-definiteness test for a symmetric matrix.

    With det(xI - M) = x^n - c_1 x^(n-1) + c_2 x^(n-2) - ..., the matrix is PSD
    iff every c_k >= 0 (the eigenvalues are real by symmetry).  Raises
    ``NotSymmetric`` for a non-symmetric argument.
    """
    if not isinstance(matrix, SymMatrix):
        matrix = SymMatrix(matrix)
    return all(c >= 0 for c in principal_minor_sums(matrix))


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


class _Recurrence(NamedTuple):
    pivots: list[Fraction]  # h_0..h_k, where the pass stopped after h_k
    alphas: list[Fraction]  # alpha_0..
    betas: list[Fraction]  # beta_0 = s_0, beta_1..
    row: list[Fraction]  # sigma_k(l) for l = 0..m-k, i.e. <p_k, x^l>


def _chebyshev(s: Sequence[Fraction]) -> _Recurrence:
    """The Chebyshev algorithm over s_0..s_m, up to the first pivot h_k <= 0.

    Step k reads the pivot h_k = sigma_k(k) = D_k / D_{k-1}; the pass ends
    there when h_k <= 0 or k = m // 2.  Otherwise it forms alpha_k, beta_k and
    the next row sigma_{k+1}(l) = sigma_k(l+1) - alpha_k sigma_k(l) -
    beta_k sigma_{k-1}(l), whose pivot needs s_{2k+2}, in the window since
    k < m // 2.
    """
    m = len(s) - 1
    pivots: list[Fraction] = []
    alphas: list[Fraction] = []
    betas: list[Fraction] = []
    prev, row = [Fraction(0)] * (m + 1), list(s)
    k = 0
    while True:
        h = row[k]
        pivots.append(h)
        if h <= 0 or k == m // 2:
            break
        if k == 0:
            alphas.append(row[1] / h)
            betas.append(h)
        else:
            alphas.append(row[k + 1] / h - prev[k] / pivots[k - 1])
            betas.append(h / pivots[k - 1])
        alpha, beta = alphas[k], betas[k]
        # Entries l <= k of the new row vanish by orthogonality and are never read.
        prev, row = row, [0] * (k + 1) + [
            row[l + 1] - alpha * row[l] - beta * prev[l] for l in range(k + 1, m - k)
        ]
        k += 1
    return _Recurrence(pivots, alphas, betas, row)


def _monic_from_recurrence(alphas: Sequence[Fraction], betas: Sequence[Fraction]) -> RationalPoly:
    """p_n for n = len(alphas), from p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}."""
    prev: list[Fraction] = []
    cur = [Fraction(1)]
    for alpha, beta in zip(alphas, betas):
        nxt = [Fraction(0)] + cur
        for j, c in enumerate(cur):
            nxt[j] -= alpha * c
        for j, c in enumerate(prev):
            nxt[j] -= beta * c
        prev, cur = cur, nxt
    return RationalPoly(cur)


@dataclass(frozen=True)
class WindowAnalysis:
    """The determinants, classification and kernel of a window, from one pass.

    ``determinants`` is D_0..D_N for N = horizon.  ``kernel`` is the monic
    orthogonal polynomial p_{n0}, whose roots are the n0 atoms, when the
    window is ``Degenerate`` with a consistent tail, and None otherwise.
    ``known`` holds the determinants the verdict needed; when it stops short
    of D_N, which happens after a negative pivot or on an s_0 = 0 window with
    a nonzero moment, the rest come from Bareiss elimination on first read.
    """

    window: MomentWindow
    classification: Classification
    kernel: RationalPoly | None
    known: tuple[Fraction, ...]

    @cached_property
    def determinants(self) -> tuple[Fraction, ...]:
        w, start = self.window, len(self.known)
        return self.known + tuple(det_exact(hankel_matrix(w, j)) for j in range(start, w.horizon + 1))


def analyze(w) -> WindowAnalysis:
    """Determinants, classification and kernel of a window in one exact pass.

    The Chebyshev pass gives D_0..D_k up to the first pivot h_k <= 0.  All
    positive gives ``PositiveWindow``; h_k < 0 gives ``Invalid`` with a
    negative determinant at k.  At h_k = 0 the window is degenerate at n0 = k
    when its tail obeys the recurrence of p_{n0}, i.e. <p_{n0}, x^l> = 0 for
    every l up to m - n0, which the pass has just computed.  A window with
    s_0 = 0 is the zero measure when every moment is zero and ``Invalid``
    otherwise, with ``first_violation`` pointing at the first nonzero moment.
    """
    w = _as_window(w)
    horizon = w.horizon
    rec = _chebyshev(w.moments)
    dets = list(accumulate(rec.pivots, mul))
    k = len(dets) - 1
    consistent = rec.pivots[k] == 0 and all(v == 0 for v in rec.row[k:])
    if consistent:
        # Every later D_j is 0 with no elimination: for n0 <= j <= horizon
        # and t <= j - n0 the coefficient vector c of x^t p_{n0} is nonzero
        # (p_{n0} is monic), and (H_j c)_i = <x^i, x^t p_{n0}> =
        # <p_{n0}, x^{i+t}> = 0 because i + t <= 2j - n0 <= m - n0.
        dets += [Fraction(0)] * (horizon - k)
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
        # down, and only Bareiss elimination tells the later D_j apart.
        dets += [det_exact(hankel_matrix(w, j)) for j in range(k + 1, horizon + 1)]
        later = next((j for j in range(k + 1, horizon + 1) if dets[j] != 0), None)
        if later is None:
            cls = Degenerate(k, False)
        elif dets[later] < 0:
            cls = Invalid(later, InvalidReason.NEGATIVE_DETERMINANT)
        else:
            cls = Invalid(later, InvalidReason.ZERO_THEN_POSITIVE)
    kernel = _monic_from_recurrence(rec.alphas, rec.betas) if consistent else None
    return WindowAnalysis(w, cls, kernel, tuple(dets))


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
