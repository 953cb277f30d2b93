"""Independent brute-force oracles used to cross-check the library kernels.

These deliberately use the most naive correct algorithm available so they
share no code path with the implementations under test.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def det_cofactor(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    rows = [[Fraction(c) for c in row] for row in rows]
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def psd_all_principal_minors(rows) -> bool:
    """PSD test by checking every one of the 2^n - 1 principal minors."""
    rows = [[Fraction(c) for c in row] for row in rows]
    n = len(rows)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = [[rows[i][j] for j in subset] for i in subset]
            if det_cofactor(sub) < 0:
                return False
    return True


def principal_minor_sums(rows) -> list[Fraction]:
    """[e_1, ..., e_n] where e_k is the sum of all k x k principal minors.

    The characteristic-polynomial route: the Faddeev-LeVerrier trace recursion
    gives det(xI - M) = x^n - e_1 x^(n-1) + e_2 x^(n-2) - ..., and a symmetric
    M (real eigenvalues) is PSD iff every e_k >= 0.
    """
    a = [[Fraction(c) for c in row] for row in rows]
    n = len(a)
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    sums: list[Fraction] = []
    for k in range(1, n + 1):
        ab = [
            [sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        d = -sum((ab[i][i] for i in range(n)), Fraction(0)) / k
        sums.append(d if k % 2 == 0 else -d)
        for i in range(n):
            ab[i][i] += d
        b = ab
    return sums


def eval_power_sum(coeffs, x: Fraction) -> Fraction:
    """Polynomial evaluation as an explicit power sum (no Horner)."""
    return sum((Fraction(c) * x**j for j, c in enumerate(coeffs)), Fraction(0))


def orthogonal_poly(moments, n: int) -> list[Fraction]:
    """Coefficients of the determinantal orthogonal polynomial p_n, lowest first.

    p_n is the determinant whose top rows are the moment rows
    (s_i, ..., s_{i+n}) for i < n and whose bottom row is (1, x, ..., x^n);
    each coefficient is one cofactor minor, so the leading one is D_{n-1}.
    Needs s_0..s_{2n-1}.
    """
    s = [Fraction(c) for c in moments]
    if n < 0:
        raise ValueError("polynomial index must be nonnegative")
    if 2 * n - 1 >= len(s):
        raise IndexError(f"p_{n} needs s_0..s_{2 * n - 1}")
    top = [[s[i + t] for t in range(n + 1)] for i in range(n)]
    coeffs = []
    for j in range(n + 1):
        minor = det_cofactor([row[:j] + row[j + 1 :] for row in top])
        coeffs.append(minor if (n + j) % 2 == 0 else -minor)
    return coeffs


def classify_brute(moments) -> tuple:
    """Classification by cofactor determinants and the determinantal kernel.

    Returns ("positive", N), ("degenerate", n0, consistent) or
    ("invalid", first_violation, reason) with the reason named as in the
    library's ``InvalidReason`` values.
    """
    s = [Fraction(c) for c in moments]
    horizon = (len(s) - 1) // 2
    if s[0] == 0:
        first = next((k for k, v in enumerate(s) if v != 0), None)
        return ("degenerate", 0, True) if first is None else ("invalid", first, "ZeroS0NonzeroTail")
    n0 = None
    for n in range(horizon + 1):
        d = det_cofactor([[s[i + j] for j in range(n + 1)] for i in range(n + 1)])
        if d < 0:
            return ("invalid", n, "NegativeDeterminant")
        if n0 is None and d == 0:
            n0 = n
        elif n0 is not None and d > 0:
            return ("invalid", n, "ZeroThenPositive")
    if n0 is None:
        return ("positive", horizon)
    p = orthogonal_poly(s, n0)
    consistent = all(
        sum(p[j] * s[k - n0 + j] for j in range(n0 + 1)) == 0 for k in range(2 * n0, len(s))
    )
    return ("degenerate", n0, consistent)
