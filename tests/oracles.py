"""Independent brute-force oracles used to cross-check the library kernels.

These deliberately use the most naive correct algorithm available so they
share no code path with the implementations under test.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import ceil, floor, gcd
from typing import NamedTuple

from hankelmp.errors import InfeasibleSpec, NotSquareFree, ZeroPolynomial
from hankelmp.exact import IsolatingInterval, RationalPoly
from hankelmp.recovery import RationalInterval


def det_cofactor(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row.

    After the first r rows are expanded, the minor left depends only on the
    set of columns they used, so each one is computed once: O(n 2**n)
    products in place of n!.
    """
    rows = [[Fraction(c) for c in row] for row in rows]
    n = len(rows)

    @cache
    def minor(used: int) -> Fraction:
        r = used.bit_count()
        if r == n:
            return Fraction(1)
        total, sign = Fraction(0), 1
        for j in range(n):
            if used >> j & 1:
                continue
            if rows[r][j] != 0:
                term = rows[r][j] * minor(used | 1 << j)
                total += term if sign > 0 else -term
            sign = -sign
        return total

    return minor(0)


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


def fraction_psd_witness(rows) -> tuple[Fraction, ...] | None:
    """``hankel.psd_witness`` by symmetric elimination over ``Fraction``.

    The LDL^T form without pivoting: at a positive pivot d of the Schur
    complement S, row and column k are eliminated; a zero pivot with a zero
    row is skipped.  A negative pivot gives v = L^-T e_k, and a zero pivot
    with b = S[k][j] != 0, j the first such index, and c = S[j][j] gives
    v = L^-T (t e_k + e_j) with t = -(c + 1) / (2b).  None if every step
    passes.  Only the upper triangle is updated; row i is final after step
    i and holds d_i and the multipliers L[m][i] = a[i][m] / d_i.
    """
    a = [[Fraction(c) for c in row] for row in rows]
    n = len(a)

    def back_substitute(u: dict[int, Fraction]) -> tuple[Fraction, ...]:
        v = [u.get(i, Fraction(0)) for i in range(n)]
        for i in range(min(u) - 1, -1, -1):
            if a[i][i]:
                v[i] = -sum((a[i][m] * v[m] for m in range(i + 1, n)), Fraction(0)) / a[i][i]
        return tuple(v)

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
            return back_substitute({k: Fraction(1)})
        j = next((j for j in range(k + 1, n) if row[j]), None)
        if j is not None:
            return back_substitute({k: -(a[j][j] + 1) / (2 * row[j]), j: Fraction(1)})
    return None


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


def moment_inner_product(p, q, moments) -> Fraction:
    """<p, q> = sum over j, k of p_j q_k s_{j+k}, as a double sum."""
    s = [Fraction(c) for c in moments]
    total = Fraction(0)
    for j, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            if j + k >= len(s):
                raise IndexError(f"<p, q> needs s_{j + k} but the window ends at s_{len(s) - 1}")
            total += a * b * s[j + k]
    return total


def hilbert_window(n0: int) -> list[Fraction]:
    """Moments 1/(k+1) of Lebesgue measure on [0, 1] for k < 2*n0, then s_{2n0}
    from the degree-n0 orthogonal polynomial, so the window is the moment
    sequence of the n0-point Gauss-Legendre rule on [0, 1].  The monic
    polynomial's low coefficients c solve H_{n0-1} c = -(s_n0, .., s_{2n0-1})."""
    s = [Fraction(1, k + 1) for k in range(2 * n0)]
    c = solve_exact([s[i : i + n0] for i in range(n0)], [-v for v in s[n0:]])
    return s + [-sum(c[j] * s[n0 + j] for j in range(n0))]


def solve_exact(rows, rhs) -> list[Fraction] | None:
    """Solve rows @ x = rhs by Gaussian elimination over Fraction; None if singular."""
    n = len(rows)
    aug = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, n):
            f = aug[r][col] / aug[col][col]
            aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n] - sum((aug[i][j] * out[j] for j in range(i + 1, n)), Fraction(0))
        out[i] = acc / aug[i][i]
    return out


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


# --- Polynomials as plain Fraction tuples: the reference for RationalPoly ----


def fraction_coeffs(coeffs) -> tuple[Fraction, ...]:
    """Coefficients as Fractions, lowest degree first, trailing zeros dropped."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fraction_derivative(cs) -> tuple[Fraction, ...]:
    """The derivative of a Fraction coefficient tuple, term by term."""
    return tuple(j * c for j, c in enumerate(cs) if j > 0)


# --- Polynomial arithmetic over Fraction: the reference for exact.sturm_chain -


def poly_mul(p, q) -> RationalPoly:
    """Product of two polynomials by the schoolbook double loop."""
    if p.is_zero or q.is_zero:
        return RationalPoly()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return RationalPoly(out)


def poly_from_roots(roots) -> RationalPoly:
    """Monic polynomial with the given roots; a repeated root is a repeated factor."""
    poly = RationalPoly([1])
    for r in roots:
        poly = poly_mul(poly, RationalPoly([-Fraction(r), 1]))
    return poly


def poly_rem(a, b) -> RationalPoly:
    """Remainder of long division over ``Fraction``."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    rem = list(a.coeffs)
    while len(rem) >= len(b.coeffs):
        shift = len(rem) - len(b.coeffs)
        factor = rem[-1] / b.coeffs[-1]
        for j, c in enumerate(b.coeffs):
            rem[shift + j] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return RationalPoly(rem)


def fraction_sturm_chain(p) -> list[RationalPoly]:
    """p, p', -rem(p, p'), ... over ``Fraction``, each remainder divided by |lc|.

    Dividing by a positive rational keeps every sign; the leading
    coefficient becomes -1 or 1, which keeps the coefficients small.
    """
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = poly_rem(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(RationalPoly([-c / abs(r.coeffs[-1]) for c in r.coeffs]))
    return chain


def fraction_isolating_check(p, lo, hi) -> str | None:
    """Why [lo, hi] does not isolate one root of p, as ``exact`` words it, or None.

    The checks run in the library's order: endpoint order, a point interval
    on a root, opposite nonzero signs at the ends, and one distinct root
    between them by ``fraction_sturm_chain``.
    """
    if lo > hi:
        return "interval endpoints out of order"
    at_lo, at_hi = eval_power_sum(p.coeffs, lo), eval_power_sum(p.coeffs, hi)
    if lo == hi:
        return None if at_lo == 0 else "point interval is not a root of its poly"
    if _sign(at_lo) * _sign(at_hi) >= 0:
        return "the poly does not change sign over [lo, hi]"
    chain = fraction_sturm_chain(p)
    roots = _variations(chain, lo) - _variations(chain, hi)
    return None if roots == 1 else f"[lo, hi] holds {roots} roots of its poly, not one"


def poly_gcd(a, b):
    """Monic gcd over the rationals (Euclid); gcd(0, 0) is the zero polynomial."""
    while not b.is_zero:
        a, b = b, poly_rem(a, b)
    if a.is_zero:
        return a
    return RationalPoly([c / a.coeffs[-1] for c in a.coeffs])


# --- Fraction bisection: the reference for the integer kernels in exact.py ----
# These start from the library's power-of-two root bound, computed here on
# their own, build their own Sturm chain with ``fraction_sturm_chain`` and
# count its sign variations themselves.
# Every bisection point is a ``Fraction``; only the sign of p there is read.


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_at(p, x: Fraction) -> int:
    """The sign of p(x), read from sum_j c_j a^j b^(deg-j) for x = a/b.

    The c_j are p's numerators, so the sum is p(x) b^deg times p's positive
    denominator and stays an integer, where p(x) reduces a Fraction.
    """
    a, b = x.numerator, x.denominator
    total, power = 0, 1
    for c in reversed(p.numerators):
        total = total * a + c * power
        power *= b
    return _sign(total)


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _primitive(p) -> list[int]:
    """The coprime integer coefficients of a positive multiple of p != 0."""
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    nums = [int(c * den) for c in p.coeffs]
    g = 0
    for n in nums:
        g = gcd(g, n)
    return [n // g for n in nums]


def _lead_bound(p) -> int:
    """|leading coefficient| of the primitive integer form of p."""
    return abs(_primitive(p)[-1])


def power_of_two_root_bound(p) -> Fraction:
    """2**t, the start [-2**t, 2**t] of ``exact.sturm_isolate``, for deg p >= 1.

    Fujiwara's bound, |x| <= 2 max_{i<n} |c_i / c_n|**(1/(n-i)) over the
    primitive coefficients, with each ratio bounded through bit lengths:
    t = max(0, 1 + max over c_i != 0 of ceil((b_i - b_n + 1) / (n - i))).
    """
    cs = _primitive(p)
    n, top = len(cs) - 1, abs(cs[-1]).bit_length()
    t = 0
    for i, c in enumerate(cs[:-1]):
        if c:
            t = max(t, 1 + ceil(Fraction(abs(c).bit_length() - top + 1, n - i)))
    return Fraction(2) ** t


def _isolate_segments(p, variations, a, b, va, vb):
    out = []
    work = [(a, b, va, vb)]
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
        if _sign_at(p, mid) != 0:
            vm = variations(mid)
            work += [(mid, b, vm, vb), (a, mid, va, vm)]
            continue
        delta = (b - a) / 4
        while True:
            lo, hi = mid - delta, mid + delta
            if _sign_at(p, lo) != 0 and _sign_at(p, hi) != 0:
                vlo, vhi = variations(lo), variations(hi)
                if vlo - vhi == 1:
                    break
            delta /= 2
        work += [(hi, b, vhi, vb), (mid,), (a, lo, va, vlo)]
    return out


def _settle_segment(p, a, b, lead_bound):
    sa = _sign_at(p, a)
    target = min(Fraction(1, 4), Fraction(1, 2 * lead_bound))
    while b - a > target:
        mid = (a + b) / 2
        v = _sign_at(p, mid)
        if v == 0:
            return mid, mid
        if v == sa:
            a = mid
        else:
            b = mid
    for numerator in range(ceil(a * lead_bound), floor(b * lead_bound) + 1):
        x = Fraction(numerator, lead_bound)
        if a < x < b and _sign_at(p, x) == 0:
            return x, x
    return a, b


def _separate(p, segments):
    for i in range(len(segments) - 1):
        a, b = segments[i]
        shared = segments[i + 1][0]
        while a != b and b == shared:
            mid = (a + b) / 2
            v = _sign_at(p, mid)
            if v == 0:
                a = b = mid
            elif v == _sign_at(p, a):
                a = mid
            else:
                b = mid
        segments[i] = (a, b)
    return segments


def fraction_sturm_isolate(p):
    """Sturm isolation with every bisection step over ``Fraction``.

    The same midpoint order, rational-root collapse and neighbour separation
    as ``exact.sturm_isolate``, so both return identical intervals.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    chain = fraction_sturm_chain(p)
    if chain[-1].degree > 0:
        raise NotSquareFree(f"{p} has a repeated factor {chain[-1]}")

    def variations(x):
        return _variations(chain, x)

    bound = power_of_two_root_bound(p)
    segments = _isolate_segments(p, variations, -bound, bound, variations(-bound), variations(bound))
    lead_bound = _lead_bound(p)
    settled = [(a, b) if a == b else _settle_segment(p, a, b, lead_bound) for a, b in segments]
    settled.sort(key=lambda s: s[0])
    return [IsolatingInterval(a, b, p) for a, b in _separate(p, settled)]


def fraction_refine_root(iv, digits: int):
    """``exact.refine_root`` with every bisection step over ``Fraction``."""
    if digits < 1:
        raise ValueError("digits must be a positive integer")
    if iv.is_exact:
        return iv
    p = iv.poly
    a, b = iv.lo, iv.hi
    if _sign_at(p, a) == 0:
        return IsolatingInterval(a, a, p)
    if _sign_at(p, b) == 0:
        return IsolatingInterval(b, b, p)
    tol = Fraction(1, 10**digits)
    sa = _sign_at(p, a)
    while b - a > tol:
        mid = (a + b) / 2
        v = _sign_at(p, mid)
        if v == 0:
            return IsolatingInterval(mid, mid, p)
        if v == sa:
            a = mid
        else:
            b = mid
    return IsolatingInterval(a, b, p)


# --- Rational draws over Fraction: the reference for SplitMix64.rational -----


def fraction_rational(rng, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    """``rng.rational(lo, hi, max_den)`` with ceil(lo * q) and floor(hi * q) over ``Fraction``."""
    for _ in range(10_000):
        q = rng.randint(1, max_den)
        p_lo = ceil(lo * q)
        p_hi = floor(hi * q)
        if p_lo > p_hi:
            continue
        return Fraction(rng.randint(p_lo, p_hi), q)
    raise InfeasibleSpec(f"no rational with denominator <= {max_den} in [{lo}, {hi}]")


# --- Interval power sums: the reference for recovery._moment_sums ------------


def interval_mul(a: RationalInterval, b: RationalInterval) -> RationalInterval:
    """Tight enclosure of {x * y : x in a, y in b}."""
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RationalInterval(min(products), max(products))


def interval_power(iv: RationalInterval, k: int) -> RationalInterval:
    """Tight enclosure of {x**k : x in iv} for k >= 0."""
    if k == 0:
        return RationalInterval(Fraction(1), Fraction(1))
    if k % 2 == 1 or iv.lo >= 0:
        return RationalInterval(iv.lo**k, iv.hi**k)
    if iv.hi <= 0:
        return RationalInterval(iv.hi**k, iv.lo**k)
    return RationalInterval(Fraction(0), max(iv.lo**k, iv.hi**k))


def interval_power_sum(atom_ivs, weight_ivs, k: int) -> RationalInterval:
    """Enclosure of sum_j w_j * x_j**k, one term at a time over ``Fraction``."""
    lo = hi = Fraction(0)
    for x, w in zip(atom_ivs, weight_ivs):
        term = interval_mul(w, interval_power(x, k))
        lo, hi = lo + term.lo, hi + term.hi
    return RationalInterval(lo, hi)


def interval_horner(cs, iv: RationalInterval) -> RationalInterval:
    """Interval Horner enclosure of sum_j cs[j] * x**j over iv, lowest first,
    each step one four-product ``interval_mul`` over ``Fraction``."""
    acc = RationalInterval(Fraction(cs[-1]), Fraction(cs[-1]))
    for c in reversed(cs[:-1]):
        step = interval_mul(acc, iv)
        acc = RationalInterval(step.lo + c, step.hi + c)
    return acc


# --- The recurrence pass over Fraction: the reference for hankel's integer rows


class FractionRecurrence(NamedTuple):
    pivots: list[Fraction]  # h_0..h_k, where the pass stopped after h_k
    alphas: list[Fraction]  # alpha_0..
    betas: list[Fraction]  # beta_0 = s_0, beta_1..
    prev: list[Fraction]  # sigma_{k-1}(l) for l = 0..m-k+1; zeros when k = 0
    row: list[Fraction]  # sigma_k(l) for l = 0..m-k, i.e. <p_k, x^l>


def fraction_chebyshev(s) -> FractionRecurrence:
    """The three-term steps of ``hankel._pass`` with every row entry a ``Fraction``.

    Step k reads the pivot h_k = sigma_k(k) = D_k / D_{k-1}; the pass ends
    there when h_k <= 0 or k = m // 2.  Otherwise it forms alpha_k, beta_k and
    the next row sigma_{k+1}(l) = sigma_k(l+1) - alpha_k sigma_k(l) -
    beta_k sigma_{k-1}(l).
    """
    s = [Fraction(c) for c in s]
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
    return FractionRecurrence(pivots, alphas, betas, prev, row)


def fraction_continuation(rec: FractionRecurrence, m: int, known) -> list[Fraction]:
    """The determinants of ``hankel._pass`` past its first pivot h_k <= 0,
    with every row entry a ``Fraction``.

    D_k..D_{m // 2} past ``fraction_chebyshev``'s stop at h_k <= 0, given
    known = D_0..D_k, by the signed subresultant recursion with monic
    remainder rows, independent of the pass's look-ahead steps.
    """
    k = len(rec.pivots) - 1
    count = m // 2 - k + 1
    if k == 0:
        a, s_j = [Fraction(1)] + [Fraction(0)] * (m + 1), Fraction(1)
    else:
        a, s_j = [v / rec.pivots[k - 1] for v in rec.prev[k - 1 : m - k + 2]], known[k - 1]
    r, scale = rec.row[k : m - k + 1], s_j
    dets: list[Fraction] = []
    while True:
        lead = next((i for i, v in enumerate(r) if v), None)
        if lead is None:
            break
        c = r[lead]
        t = scale * c
        s_new = t ** (lead + 1) / s_j**lead
        if lead * (lead + 1) // 2 % 2:
            s_new = -s_new
        dets += [Fraction(0)] * lead + [s_new]
        if len(dets) >= count:
            break
        b = [v / c for v in r[lead:]]
        rem = a[: len(b)]
        for i in range(lead + 2):
            q = rem[i]
            if q:
                rem[i + 1 :] = [x - q * y for x, y in zip(rem[i + 1 :], b[1:])]
        a, r, scale, s_j = b, rem[lead + 2 :], -s_new * t / s_j, s_new
    return dets[:count] + [Fraction(0)] * (count - len(dets))


def fraction_monic_polys(alphas, betas) -> tuple[RationalPoly, ...]:
    """p_0..p_n for n = len(alphas), from p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}."""
    prev: list[Fraction] = []
    cur = [Fraction(1)]
    polys = [RationalPoly(cur)]
    for alpha, beta in zip(alphas, betas):
        nxt = [Fraction(0)] + cur
        for j, c in enumerate(cur):
            nxt[j] -= alpha * c
        for j, c in enumerate(prev):
            nxt[j] -= beta * c
        prev, cur = cur, nxt
        polys.append(RationalPoly(cur))
    return tuple(polys)
