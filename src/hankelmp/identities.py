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
(det1 and det2 only), then its measure, from one SplitMix64 stream seeded by
the campaign's seed, and then makes its own draws; each failure record
begins with ``trial``, ``n``, [``p``], ``measure``.  SplitMix64 yields the
same stream on every platform, so failing instances replay bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InfeasibleSpec
from .exact import format_rational
from .hankel import (
    Degenerate,
    MomentWindow,
    analyze,
    classify,
    det_exact,
    det_sequence,
    hankel_matrix,
    is_psd,
    psd_witness,
)
from .recovery import DiscreteMeasure, extend, measure_moments, reconstruct

__all__ = [
    "CampaignReport",
    "MeasureGenSpec",
    "SplitMix64",
    "random_measure",
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


@dataclass(frozen=True)
class MeasureGenSpec:
    """Deterministic recipe for a random rational measure."""

    atom_count: int
    atom_range: tuple[Fraction, Fraction]
    weight_range: tuple[Fraction, Fraction]
    denominator_bound: int
    seed: int

    def __post_init__(self):
        if self.atom_count < 1:
            raise ValueError("atom_count must be at least 1")
        if self.denominator_bound < 1:
            raise ValueError("denominator_bound must be at least 1")
        if self.atom_range[0] > self.atom_range[1]:
            raise ValueError("empty atom range")
        if self.weight_range[0] > self.weight_range[1] or self.weight_range[0] <= 0:
            raise ValueError("weight range must be positive")


def _count_rationals(lo: Fraction, hi: Fraction, max_den: int, needed: int) -> int:
    """Count reduced rationals with denominator <= max_den in [lo, hi], capped."""
    lo_num, lo_den = lo.as_integer_ratio()
    hi_num, hi_den = hi.as_integer_ratio()
    total = 0
    for q in range(1, max_den + 1):
        # p from ceil(lo * q) to floor(hi * q), by integer division.
        for p in range(-(-lo_num * q // lo_den), hi_num * q // hi_den + 1):
            if math.gcd(abs(p), q) == 1:
                total += 1
                if total >= needed:
                    return total
    return total


def random_measure(spec: MeasureGenSpec) -> DiscreteMeasure:
    """Deterministic random measure: distinct sorted atoms, positive weights.

    Raises ``InfeasibleSpec`` when the atom range cannot host ``atom_count``
    distinct rationals under the denominator bound.
    """
    lo, hi = spec.atom_range
    if _count_rationals(lo, hi, spec.denominator_bound, spec.atom_count) < spec.atom_count:
        raise InfeasibleSpec(
            f"[{lo}, {hi}] holds fewer than {spec.atom_count} rationals "
            f"with denominator <= {spec.denominator_bound}"
        )
    rng = SplitMix64(spec.seed)
    atoms: set[Fraction] = set()
    attempts = 0
    while len(atoms) < spec.atom_count:
        attempts += 1
        if attempts > 100_000:
            raise InfeasibleSpec("atom sampling failed to find enough distinct values")
        atoms.add(rng.rational(lo, hi, spec.denominator_bound))
    w_lo, w_hi = spec.weight_range
    weights = [
        rng.rational(w_lo, w_hi, spec.denominator_bound) for _ in range(spec.atom_count)
    ]
    return DiscreteMeasure(tuple(sorted(atoms)), tuple(weights))


def _det1_rows(
    moments: Sequence[Fraction], cs: Sequence[int], width: int, filler: list[list[Fraction]]
) -> list[list[Fraction]]:
    """The det1 matrix: the moment rows s_c..s_{c+width-1}, one per shift c, on the filler."""
    return [list(moments[c : c + width]) for c in cs] + filler


def _det2_rows(
    n: int, p: int, moments: Sequence[Fraction], xs: Sequence[Fraction], fill: Sequence[Fraction]
) -> list[list[Fraction]]:
    """The almost-Hankel bordered matrix of order n + p + 1.

    Entries are s_{i+j} for i + j <= 2n+p-1, the anti-diagonal i + j = 2n+p
    holds x_0..x_p (top right to bottom left), and ``fill`` supplies the
    entries below it row by row: row n + k ends with k of them.
    """
    order, anti = n + p + 1, 2 * n + p
    rows = [list(moments[i : i + order]) for i in range(n)]
    rest = iter(fill)
    for i in range(n, order):
        rows.append([*moments[i:anti], xs[i - n], *(next(rest) for _ in range(i - n))])
    return rows


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


def _measure_doc(mu: DiscreteMeasure) -> dict:
    return {
        "atoms": [format_rational(a) for a in mu.atoms],
        "weights": [format_rational(w) for w in mu.weights],
    }


def _matrix_doc(rows: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    return [[format_rational(c) for c in row] for row in rows]


def _campaign(name: str, trials: int, seed: int, max_n: int, max_p: int | None,
              trial: Callable[..., dict | None]) -> CampaignReport:
    """Run ``trials`` trials, each ``trial(rng, n, p, mu)`` after the shared draws.

    p is None when ``max_p`` is.  A record that ``trial`` returns is a failure,
    written after the head ``trial``, ``n``, [``p``], ``measure``.
    """
    rng = SplitMix64(seed)
    params = {"maxN": max_n} if max_p is None else {"maxN": max_n, "maxP": max_p}
    report = CampaignReport(name, trials, seed, params)
    for index in range(trials):
        n = rng.randint(1, max_n)
        p = None if max_p is None else rng.randint(1, max_p)
        mu = random_measure(MeasureGenSpec(
            atom_count=n,
            atom_range=(Fraction(-4), Fraction(4)),
            weight_range=(Fraction(1, 6), Fraction(5)),
            denominator_bound=6,
            seed=rng.next_u64(),
        ))
        record = trial(rng, n, p, mu)
        if record is not None:
            head = {"trial": index, "n": n} if p is None else {"trial": index, "n": n, "p": p}
            report.failures.append({**head, "measure": _measure_doc(mu), **record})
    return report


def _det1_trial(rng: SplitMix64, n: int, p: int, mu: DiscreteMeasure) -> dict | None:
    cs = rng.increasing_ints(n + 1, 0, max(8, n))
    filler = [
        [rng.rational(Fraction(-5), Fraction(5), 8) for _ in range(n + p)] for _ in range(p - 1)
    ]
    matrix = _det1_rows(measure_moments(mu, cs[-1] + n + p), cs, n + p, filler)
    value = det_exact(matrix)
    if value == 0:
        return None
    return {
        "cs": cs,
        "filler": _matrix_doc(filler),
        "matrix": _matrix_doc(matrix),
        "determinant": format_rational(value),
    }


def verify_det1(trials: int = 200, seed: int = 0, max_n: int = 4, max_p: int = 3) -> CampaignReport:
    """Random det1 instances; every determinant must vanish exactly."""
    return _campaign("det1", trials, seed, max_n, max_p, _det1_trial)


def _det2_fill(rng: SplitMix64, p: int) -> list[Fraction]:
    """The p(p+1)/2 free entries below the det2 anti-diagonal, in row order."""
    return [rng.rational(Fraction(-5), Fraction(5), 8) for _ in range(p * (p + 1) // 2)]


def _det2_trial(rng: SplitMix64, n: int, p: int, mu: DiscreteMeasure) -> dict | None:
    xs = [rng.rational(Fraction(-6), Fraction(6), 8) for _ in range(p + 1)]
    # One moment list and one D_{n-1} serve all three matrices: they share the measure.
    moments = measure_moments(mu, 2 * n + p + 1)
    d_prev = det_sequence(moments[: 2 * n - 1])[n - 1]
    s_top = moments[2 * n + p]
    matrix = _det2_rows(n, p, moments, xs, _det2_fill(rng, p))
    lhs = det_exact(matrix)
    rhs = (-1) ** (p * (p + 1) // 2) * d_prev * math.prod(x - s_top for x in xs)
    problems = []
    if lhs != rhs:
        problems.append("factorization mismatch")
    if det_exact(_det2_rows(n, p, moments, xs, _det2_fill(rng, p))) != lhs:
        problems.append("determinant depends on the free fill entries")
    # With every x_j = s_{2n+p} the factored value is zero.
    if det_exact(_det2_rows(n, p, moments, [s_top] * (p + 1), _det2_fill(rng, p))) != 0:
        problems.append("forced collision x_j = s_{2n+p} did not vanish")
    if not problems:
        return None
    return {
        "xs": [format_rational(x) for x in xs],
        "matrix": _matrix_doc(matrix),
        "lhs": format_rational(lhs),
        "rhs": format_rational(rhs),
        "problems": problems,
    }


def verify_det2(trials: int = 200, seed: int = 0, max_n: int = 4, max_p: int = 3) -> CampaignReport:
    """Random det2 instances: factorization, fill independence, forced collisions."""
    return _campaign("det2", trials, seed, max_n, max_p, _det2_trial)


# Moments past the roundtrip window that ``extend`` of it must give exactly.
_EXTENSION = 4


def _roundtrip_trial(rng: SplitMix64, n: int, p: None, mu: DiscreteMeasure) -> dict | None:
    moments = measure_moments(mu, 2 * n + 5 + _EXTENSION)
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
        if rec.atoms != mu.atoms or rec.weights != mu.weights:
            problems.append("reconstruction differs from the source measure")
        if extend(analysis, _EXTENSION) != beyond:
            problems.append("extension differs from the source measure's moments")
    if not problems:
        return None
    return {
        "moments": [format_rational(s) for s in moments],
        "determinants": [format_rational(d) for d in dets],
        "reconstructed": _measure_doc(rec) if rec is not None and rec.is_exact else None,
        "problems": problems,
    }


def verify_roundtrip(trials: int = 200, seed: int = 0, max_n: int = 5) -> CampaignReport:
    """Measure -> moments -> classify -> reconstruct must return exactly.

    ``extend`` of the window must also equal the measure's next 4 moments,
    taken from the same ``measure_moments`` call.
    """
    return _campaign("roundtrip", trials, seed, max_n, None, _roundtrip_trial)


def _psd_theorem_trial(rng: SplitMix64, n: int, p: None, mu: DiscreteMeasure) -> dict | None:
    moments = measure_moments(mu, 2 * n + 5)
    window = MomentWindow(moments)
    cls = classify(window)
    problems = []
    if cls != Degenerate(n, True):
        problems.append(f"classification {cls!r} instead of Degenerate({n}, True)")
    # Each H_k is a leading principal submatrix of H_N: one elimination clears all.
    bad = [] if is_psd(hankel_matrix(window, window.horizon)) else [
        k for k in range(window.horizon + 1) if not is_psd(hankel_matrix(window, k))
    ]
    if bad:
        problems.append(f"H_k not PSD for k in {bad}")
    if not problems:
        return None
    failure = {"moments": [format_rational(s) for s in moments], "problems": problems}
    if bad:
        v = psd_witness(hankel_matrix(window, bad[0]))
        failure["witness"] = {"k": bad[0], "v": [format_rational(c) for c in v]}
    return failure


def verify_psd_theorem(trials: int = 200, seed: int = 0, max_n: int = 5) -> CampaignReport:
    """Every Hankel matrix of a degenerate moment window must test PSD."""
    return _campaign("psd-theorem", trials, seed, max_n, None, _psd_theorem_trial)
