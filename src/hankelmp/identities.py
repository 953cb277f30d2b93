"""Seeded exact verification campaigns over moments of random discrete measures.

``det1`` checks that a square matrix whose first n+1 rows are shifted moment
rows of an n-atom measure has determinant zero; ``det2`` that the
almost-Hankel bordered determinant factors as
(-1)^(p(p+1)/2) * D_{n-1} * prod_j (x_j - s_{2n+p}); ``roundtrip`` that the
measure comes back exactly from its moments, and that ``extend`` of the
window gives its next moments exactly; ``psd-theorem`` that every H_k
of a degenerate window is PSD.  All checks are exact; a single failing trial
disproves the implementation (or the identity).

Every campaign runs on one driver, ``_campaign``: each trial draws n, then p
(det1 and det2 only), then its measure (``_draw_measure``), from one
SplitMix64 stream seeded by the campaign's seed, and then makes its own
draws; each failure record begins with ``trial``, ``n``, [``p``],
``measure``.  SplitMix64 yields the same stream on every platform, so
failing instances replay bit for bit.

Each trial reads its measure's moments from one integer table
(``_moment_table``): with A and V the lcm of the atom and of the weight
denominators, s_k = N_k / (V A^k).  The determinants and the passing PSD
test run on integer matrices scaled from it, which are zero, equal or PSD
exactly when the rational ones are: ``det1`` and ``det2`` scale rows and
columns by known powers of 840 V and A, and ``_bareiss`` takes their
determinants, det2's factor D_{n-1} among them: it is read off the leading
n x n block of the det2 matrix itself.  ``psd-theorem`` eliminates the
integer Hankel matrix (N_{i+j}), which is V diag(A^i) H_N diag(A^i).  Only
``roundtrip`` (``analyze``) and ``psd-theorem`` (``classify``) run the
recurrence pass, on the rational window s_k.  Failure records print the
rational matrices, determinants and witnesses, rebuilt on the failing path
only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import hankel
from .errors import InfeasibleSpec
from .exact import format_rational
from .hankel import Degenerate, MomentWindow, analyze, classify, hankel_matrix, is_psd, psd_witness
from .recovery import _moment_sums, extend, reconstruct

__all__ = [
    "CampaignReport",
    "SplitMix64",
    "verify_det1",
    "verify_det2",
    "verify_psd_theorem",
    "verify_roundtrip",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64), identical on all platforms."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled to avoid modulo bias."""
        if lo > hi:
            raise ValueError("empty integer range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def rational(self, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
        """A rational p/q with q <= max_den inside [lo, hi]."""
        lo_num, lo_den = lo.as_integer_ratio()
        hi_num, hi_den = hi.as_integer_ratio()
        for _ in range(10_000):
            q = self.randint(1, max_den)
            # ceil(lo * q) and floor(hi * q), by integer division.
            p_lo = -(-lo_num * q // lo_den)
            p_hi = hi_num * q // hi_den
            if p_lo > p_hi:
                continue
            return Fraction(self.randint(p_lo, p_hi), q)
        raise InfeasibleSpec(f"no rational with denominator <= {max_den} in [{lo}, {hi}]")

    def increasing_ints(self, count: int, lo: int, hi: int) -> list[int]:
        """``count`` distinct integers from [lo, hi], sorted ascending."""
        if hi - lo + 1 < count:
            raise ValueError("range too small for the requested count")
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.randint(lo, hi))
        return sorted(chosen)


# Atoms and weights of the campaigns' measures: [-4, 4] and [1/6, 5],
# denominators at most 6.  [-4, 4] holds 97 such rationals.
_ATOM_CHOICES = 97


def _draw_measure(rng: SplitMix64, n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """n distinct atoms in [-4, 4], sorted, and n weights in [1/6, 5].

    A SplitMix64 seeded by one ``rng.next_u64()`` draws atoms p/q, q from 1
    to 6 and p from -4q to 4q, until n are distinct, then the weights, q
    from 1 to 6 and p from 1 to 5q: the ``rational`` draws with these
    bounds, which never reject a denominator.  Raises ``InfeasibleSpec``
    when n exceeds the atoms available.
    """
    if n > _ATOM_CHOICES:
        raise InfeasibleSpec(f"[-4, 4] holds fewer than {n} rationals with denominator <= 6")
    own = SplitMix64(rng.next_u64())
    atoms: set[Fraction] = set()
    while len(atoms) < n:
        q = own.randint(1, 6)
        atoms.add(Fraction(own.randint(-4 * q, 4 * q), q))
    weights = []
    for _ in range(n):
        q = own.randint(1, 6)
        weights.append(Fraction(own.randint(1, 5 * q), q))
    return tuple(sorted(atoms)), tuple(weights)


def _moment_table(
    atoms: Sequence[Fraction], weights: Sequence[Fraction], count: int
) -> tuple[list[int], int, int]:
    """(N, V, A) with s_k = N_k / (V A^k), k < count, the moments of the measure.

    A and V are the lcm of the atom and of the weight denominators, so N_k =
    sum_j W_j X_j^k for the integers X_j = A x_j and W_j = V w_j, the exact
    sums of ``_moment_sums``.
    """
    table = [total for total, _, _ in _moment_sums(atoms, weights, count)]
    v = math.lcm(*(w.denominator for w in weights))
    return table, v, math.lcm(*(x.denominator for x in atoms))


def _fractions(table: Sequence[int], v: int, a: int) -> list[Fraction]:
    """The moments s_k = N_k / (V A^k) of a moment table."""
    out, den = [], v
    for total in table:
        out.append(Fraction(total, den))
        den *= a
    return out


def _bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Step k forms (m[i][j] p - m[i][k] m[k][j]) // prev past row and column k,
    an exact division (Bareiss, *Math. Comp.* 22, 1968), so the last pivot
    is the determinant.  A zero pivot is repaired by a sign-tracked row swap,
    and a zero pivot column gives zero.  ``rows`` is not modified.
    """
    rows = list(rows)
    sign, prev = 1, 1
    while len(rows) > 1:
        if not rows[0][0]:
            k = next((i for i, row in enumerate(rows) if row[0]), None)
            if k is None:
                return 0
            rows[0], rows[k] = rows[k], rows[0]
            sign = -sign
        (p, *pivot), rest = rows[0], rows[1:]
        rows = [[(x * p - row[0] * y) // prev for x, y in zip(row[1:], pivot)] for row in rest]
        prev = p
    return sign * rows[0][0] if rows else 1


# lcm(1..8): every drawn filler, x and fill entry has a denominator of at most 8.
_SCALE = 840


def _times(f: Fraction, scale: int) -> int:
    """f * scale, for a scale that f's denominator divides."""
    return f.numerator * (scale // f.denominator)


def _det1_rows(moments: Sequence, cs: Sequence[int], width: int, filler: list[list]) -> list[list]:
    """The det1 matrix: the moment rows s_c..s_{c+width-1}, one per shift c, on the filler.

    The entries are rationals, or the integers of ``_det1_trial``.
    """
    return [list(moments[c : c + width]) for c in cs] + filler


def _det1_filler_scaled(filler: list[list[Fraction]], a: int) -> list[list[int]]:
    """The det1 filler rows times 840, and column j times A^j."""
    return [[_times(f, _SCALE * a**j) for j, f in enumerate(row)] for row in filler]


def _det2_rows(n: int, p: int, moments: Sequence, xs: Sequence, fill: Sequence) -> list[list]:
    """The almost-Hankel bordered matrix of order n + p + 1.

    Entries are s_{i+j} for i + j <= 2n+p-1, the anti-diagonal i + j = 2n+p
    holds x_0..x_p (top right to bottom left), and ``fill`` supplies the
    entries below it row by row: row n + k ends with k of them.  The
    entries are rationals, or the integers of ``_det2_trial``.
    """
    order, anti = n + p + 1, 2 * n + p
    rows = [list(moments[i : i + order]) for i in range(n)]
    rest = iter(fill)
    for i in range(n, order):
        rows.append([*moments[i:anti], xs[i - n], *(next(rest) for _ in range(i - n))])
    return rows


def _det2_fill_scaled(fill: Sequence[Fraction], p: int, scale: int, a: int) -> list[int]:
    """The det2 fill entries times scale A^k, k the place of each in its row.

    With scale = 840 V A^(2n+p+1), entry (i, j) of the det2 matrix is taken
    times 840 V A^(i+j), as ``_det2_trial`` scales the rest.
    """
    rest = iter(fill)
    return [_times(next(rest), scale * a**k) for r in range(p + 1) for k in range(r)]


# --- seeded verification campaigns -------------------------------------------


@dataclass
class CampaignReport:
    """Outcome of a seeded campaign; byte-deterministic given the parameters."""

    campaign: str
    trials: int
    seed: int
    params: dict
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = {
            "campaign": self.campaign,
            "trials": self.trials,
            "seed": self.seed,
        }
        out.update(self.params)
        out["failures"] = len(self.failures)
        out["ok"] = self.passed
        if self.failures:
            out["failing"] = self.failures
        return out


def _measure_doc(atoms: Sequence[Fraction], weights: Sequence[Fraction]) -> dict:
    return {
        "atoms": [format_rational(a) for a in atoms],
        "weights": [format_rational(w) for w in weights],
    }


def _matrix_doc(rows: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    return [[format_rational(c) for c in row] for row in rows]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _campaign(name: str, trials: int, seed: int, max_n: int, max_p: int | None,
              trial: Callable[..., dict | None]) -> CampaignReport:
    """Run ``trials`` trials, each ``trial(rng, n, p, atoms, weights)`` after the shared draws.

    p is None when ``max_p`` is.  A record that ``trial`` returns is a failure,
    written after the head ``trial``, ``n``, [``p``], ``measure``.  Raises
    ``ValueError`` unless ``trials``, ``max_n`` and ``max_p`` (when given)
    are integers of at least 1 and ``seed`` is one of the 2^64 SplitMix64
    states, 0..2^64 - 1; a bool is not an integer here.
    """
    named = [("trials", trials), ("max_n", max_n)] + ([] if max_p is None else [("max_p", max_p)])
    for arg, value in named:
        if not _is_int(value) or value < 1:
            raise ValueError(f"{arg} must be an integer of at least 1")
    if not _is_int(seed) or not 0 <= seed <= _MASK64:
        raise ValueError("seed must be an integer in 0..2^64 - 1")
    rng = SplitMix64(seed)
    params = {"maxN": max_n} if max_p is None else {"maxN": max_n, "maxP": max_p}
    report = CampaignReport(name, trials, seed, params)
    for index in range(trials):
        n = rng.randint(1, max_n)
        p = None if max_p is None else rng.randint(1, max_p)
        atoms, weights = _draw_measure(rng, n)
        record = trial(rng, n, p, atoms, weights)
        if record is not None:
            head = {"trial": index, "n": n} if p is None else {"trial": index, "n": n, "p": p}
            report.failures.append({**head, "measure": _measure_doc(atoms, weights), **record})
    return report


def _det1_trial(
    rng: SplitMix64, n: int, p: int, atoms: Sequence[Fraction], weights: Sequence[Fraction]
) -> dict | None:
    cs = rng.increasing_ints(n + 1, 0, max(8, n))
    filler = [
        [rng.rational(Fraction(-5), Fraction(5), 8) for _ in range(n + p)] for _ in range(p - 1)
    ]
    width = n + p
    table, v, a = _moment_table(atoms, weights, cs[-1] + width)
    # Moment row i times V A^c_i, filler rows times 840, column j times A^j.
    value = _bareiss(_det1_rows(table, cs, width, _det1_filler_scaled(filler, a)))
    if value == 0:
        return None
    matrix = _det1_rows(_fractions(table, v, a), cs, width, filler)
    scale = v ** (n + 1) * a ** (sum(cs) + width * (width - 1) // 2) * _SCALE ** (p - 1)
    return {
        "cs": cs,
        "filler": _matrix_doc(filler),
        "matrix": _matrix_doc(matrix),
        "determinant": format_rational(Fraction(value, scale)),
    }


def verify_det1(trials: int = 200, seed: int = 0, max_n: int = 4, max_p: int = 3) -> CampaignReport:
    """Random det1 instances; every determinant must vanish exactly."""
    return _campaign("det1", trials, seed, max_n, max_p, _det1_trial)


def _det2_fill(rng: SplitMix64, p: int) -> list[Fraction]:
    """The p(p+1)/2 free entries below the det2 anti-diagonal, in row order."""
    return [rng.rational(Fraction(-5), Fraction(5), 8) for _ in range(p * (p + 1) // 2)]


def _det2_trial(
    rng: SplitMix64, n: int, p: int, atoms: Sequence[Fraction], weights: Sequence[Fraction]
) -> dict | None:
    xs = [rng.rational(Fraction(-6), Fraction(6), 8) for _ in range(p + 1)]
    order, anti = n + p + 1, 2 * n + p
    # One table serves all three matrices: they share the measure.  Entry
    # (i, j) times c A^(i+j), c = 840 V, scales both sides by c^order
    # A^(order(order-1)) and the moment entries to 840 N_{i+j}.  On the right
    # each x_j - s_{2n+p} takes c A^(2n+p), and D_{n-1} the rest: the leading
    # n x n block (840 N_{i+j}), positive definite, so Bareiss swaps no row,
    # has determinant 840^n V^n A^(n(n-1)) D_{n-1}.
    table, v, a = _moment_table(atoms, weights, anti + 1)
    c = _SCALE * v
    moments = [_SCALE * t for t in table]
    d_prev = _bareiss([moments[i : i + n] for i in range(n)])
    xs_scaled = [_times(x, c * a**anti) for x in xs]

    def det(anti_entries: list[int], fill: list[Fraction]) -> int:
        scaled = _det2_fill_scaled(fill, p, c * a ** (anti + 1), a)
        return _bareiss(_det2_rows(n, p, moments, anti_entries, scaled))

    fill = _det2_fill(rng, p)
    lhs = det(xs_scaled, fill)
    rhs = (-1) ** (p * (p + 1) // 2) * d_prev * math.prod(x - moments[anti] for x in xs_scaled)
    problems = []
    if lhs != rhs:
        problems.append("factorization mismatch")
    if det(xs_scaled, _det2_fill(rng, p)) != lhs:
        problems.append("determinant depends on the free fill entries")
    # With every x_j = s_{2n+p} the factored value is zero.
    if det([moments[anti]] * (p + 1), _det2_fill(rng, p)) != 0:
        problems.append("forced collision x_j = s_{2n+p} did not vanish")
    if not problems:
        return None
    scale = c**order * a ** (order * (order - 1))
    return {
        "xs": [format_rational(x) for x in xs],
        "matrix": _matrix_doc(_det2_rows(n, p, _fractions(table, v, a), xs, fill)),
        "lhs": format_rational(Fraction(lhs, scale)),
        "rhs": format_rational(Fraction(rhs, scale)),
        "problems": problems,
    }


def verify_det2(trials: int = 200, seed: int = 0, max_n: int = 4, max_p: int = 3) -> CampaignReport:
    """Random det2 instances: factorization, fill independence, forced collisions."""
    return _campaign("det2", trials, seed, max_n, max_p, _det2_trial)


# Moments past the roundtrip window that ``extend`` of it must give exactly.
_EXTENSION = 4


def _roundtrip_trial(
    rng: SplitMix64, n: int, p: None, atoms: Sequence[Fraction], weights: Sequence[Fraction]
) -> dict | None:
    moments = _fractions(*_moment_table(atoms, weights, 2 * n + 5 + _EXTENSION))
    moments, beyond = moments[:-_EXTENSION], moments[-_EXTENSION:]
    analysis = analyze(MomentWindow(moments))
    dets, cls = analysis.determinants, analysis.classification
    rec = None
    problems = []
    if not (all(d > 0 for d in dets[:n]) and all(d == 0 for d in dets[n:])):
        problems.append("determinant sign pattern broken")
    if cls != Degenerate(n, True):
        # ``reconstruct`` would raise; the trial is recorded without it.
        problems.append(f"classification {cls!r} instead of Degenerate({n}, True)")
    else:
        rec = reconstruct(analysis)
        if rec.atoms != atoms or rec.weights != weights:
            problems.append("reconstruction differs from the source measure")
        if extend(analysis, _EXTENSION) != beyond:
            problems.append("extension differs from the source measure's moments")
    if not problems:
        return None
    return {
        "moments": [format_rational(s) for s in moments],
        "determinants": [format_rational(d) for d in dets],
        "reconstructed": (
            _measure_doc(rec.atoms, rec.weights) if rec is not None and rec.is_exact else None
        ),
        "problems": problems,
    }


def verify_roundtrip(trials: int = 200, seed: int = 0, max_n: int = 5) -> CampaignReport:
    """Measure -> moments -> classify -> reconstruct must return exactly.

    ``extend`` of the window must also equal the measure's next 4 moments,
    taken from the same moment table.
    """
    return _campaign("roundtrip", trials, seed, max_n, None, _roundtrip_trial)


def _psd_theorem_trial(
    rng: SplitMix64, n: int, p: None, atoms: Sequence[Fraction], weights: Sequence[Fraction]
) -> dict | None:
    table, v, a = _moment_table(atoms, weights, 2 * n + 5)
    window = MomentWindow(_fractions(table, v, a))
    cls = classify(window)
    problems = []
    if cls != Degenerate(n, True):
        problems.append(f"classification {cls!r} instead of Degenerate({n}, True)")
    # Each H_k is a leading principal submatrix of H_N: one elimination clears
    # all.  (N_{i+j}) = V diag(A^i) H_N diag(A^i) is PSD exactly when H_N is.
    order = window.horizon + 1
    bad = [] if hankel._eliminate([table[i : i + order] for i in range(order)]) is None else [
        k for k in range(order) if not is_psd(hankel_matrix(window, k))
    ]
    if bad:
        problems.append(f"H_k not PSD for k in {bad}")
    if not problems:
        return None
    failure = {"moments": [format_rational(s) for s in window], "problems": problems}
    if bad:
        witness = psd_witness(hankel_matrix(window, bad[0]))
        failure["witness"] = {"k": bad[0], "v": [format_rational(c) for c in witness]}
    return failure


def verify_psd_theorem(trials: int = 200, seed: int = 0, max_n: int = 5) -> CampaignReport:
    """Every Hankel matrix of a degenerate moment window must test PSD."""
    return _campaign("psd-theorem", trials, seed, max_n, None, _psd_theorem_trial)
