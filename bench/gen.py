"""Seeded request streams for the hankelmp benchmark.

Nothing here imports hankelmp: the generator has its own SplitMix64, its own
exact Gaussian elimination and its own moment arithmetic, so a change to the
package can change neither the inputs nor the time it takes to make them.
The same seed gives the same requests and byte-identical input files.

A workload is a list of *rounds*.  Every round holds the same strata (a
stratum is a request kind at a fixed size) in the same proportions, with
fresh random values, and the runner only stops at a round boundary.  So the
mix of sizes in a run does not depend on how many requests fit in it, and
the quantiles of a run fall inside strata rather than on gaps between them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("screen", "recover-rational", "recover-algebraic", "verify")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64; the same seed gives the same stream on every platform."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] by rejection (no modulo bias)."""
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


@dataclass
class Request:
    """One CLI invocation.  ``window`` (if any) is written to a JSON file whose
    path replaces the ``{file}`` placeholder in ``argv``."""

    stratum: str
    check: str
    argv: list[str]
    expect: dict
    window: list[Fraction] | None = None
    size: int = 0

    def resolved(self, path: str | None) -> list[str]:
        return [path if a == "{file}" else a for a in self.argv]


# --- exact measures and moments ----------------------------------------------


def _coprime(rng: SplitMix64, q: int, lo: int, hi: int) -> Fraction:
    while True:
        p = rng.randint(lo, hi)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def rational_measure(rng: SplitMix64, atoms: int, max_den: int) -> tuple[list, list]:
    """Distinct atoms in [-4, 4] and weights in (0, 5].

    The k-th atom and weight get denominator k % max_den + 1 exactly, so the
    bit-length of the moments (which sets their cost) depends on the atom
    count and not on the luck of the draw.
    """
    xs: set[Fraction] = set()
    for k in range(atoms):
        q = k % max_den + 1
        while True:
            x = _coprime(rng, q, -4 * q, 4 * q)
            if x not in xs:
                xs.add(x)
                break
    weights = [_coprime(rng, k % max_den + 1, 1, 5 * (k % max_den + 1)) for k in range(atoms)]
    rng.shuffle(weights)
    return sorted(xs), weights


def moments(atoms, weights, count: int) -> list[Fraction]:
    """s_k = sum_j w_j x_j^k for k < count, in integer arithmetic over the
    common denominators L (atoms) and V (weights): s_k = N_k / (V L^k)."""
    big_l = math.lcm(*(x.denominator for x in atoms))
    big_v = math.lcm(*(w.denominator for w in weights))
    xs = [int(x * big_l) for x in atoms]
    terms = [int(w * big_v) for w in weights]
    out = []
    scale = big_v
    for _ in range(count):
        out.append(Fraction(sum(terms), scale))
        terms = [t * x for t, x in zip(terms, xs)]
        scale *= big_l
    return out


def _nonzero_nudge(rng: SplitMix64) -> Fraction:
    return Fraction(rng.randint(1, 9) * (1 if rng.randint(0, 1) else -1), rng.randint(1, 12))


def solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination with row pivoting on nonzero entries."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, n):
            f = aug[r][col] / aug[col][col]
            if f:
                for j in range(col, n + 1):
                    aug[r][j] -= f * aug[col][j]
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n] - sum((aug[i][j] * out[j] for j in range(i + 1, n)), Fraction(0))
        out[i] = acc / aug[i][i]
    return out


def gauss_window(prefix: list[Fraction], n0: int, length: int) -> tuple[list[Fraction], list[Fraction]]:
    """Continue s_0..s_{2n0-1} by its own degree-n0 recurrence.

    The monic kernel p(x) = x^n0 + c_{n0-1} x^{n0-1} + ... + c_0 solves
    H_{n0-1} c = -(s_n0, ..., s_{2n0-1}); the continued window holds the
    moments of the n0-point Gauss quadrature of the prefix, whose atoms are
    the roots of p.  Returns the window and p's coefficients (c_0..c_{n0-1}, 1).
    """
    s = [Fraction(v) for v in prefix[: 2 * n0]]
    c = solve_exact(
        [[s[i + j] for j in range(n0)] for i in range(n0)], [-s[n0 + i] for i in range(n0)]
    )
    while len(s) < length:
        k = len(s)
        s.append(-sum((c[j] * s[k - n0 + j] for j in range(n0)), Fraction(0)))
    return s, c + [Fraction(1)]


def _strs(values) -> list[str]:
    return [str(v) for v in values]


# --- workloads ----------------------------------------------------------------

SCREEN_HORIZONS = range(8, 17)
SCREEN_KINDS = ("positive", "inconsistent", "negative", "zero-s0")


def _screen_request(rng: SplitMix64, kind: str, h: int) -> Request:
    if kind == "positive":
        atoms, weights = rational_measure(rng, h + 2, 12)
        window = moments(atoms, weights, 2 * h + 1)
        expect = {"variant": "positive_window", "horizon": h}
    elif kind == "inconsistent":
        atoms, weights = rational_measure(rng, h, 12)
        window = moments(atoms, weights, 2 * h + 2)
        window[-1] += _nonzero_nudge(rng)
        expect = {"variant": "degenerate", "n0": h, "windowConsistent": False}
    elif kind == "negative":
        n0 = h - 1
        atoms, weights = rational_measure(rng, n0, 12)
        window = moments(atoms, weights, 2 * n0 + 3)
        window[2 * n0 + 1] += _nonzero_nudge(rng)
        expect = {"variant": "invalid", "firstViolation": n0 + 1, "reason": "NegativeDeterminant"}
    else:
        atoms, weights = rational_measure(rng, h + 1, 12)
        window = moments(atoms, weights, 2 * h + 1)
        for k in range(rng.randint(1, 3)):
            window[k] = Fraction(0)
        first = next(k for k, v in enumerate(window) if v != 0)
        expect = {"variant": "invalid", "firstViolation": first, "reason": "ZeroS0NonzeroTail"}
    expect["s0"] = str(window[0])
    expect["horizon"] = h
    return Request(f"{kind}/h={h}", "screen", ["classify", "{file}"], expect, window, h)


def _screen(rng: SplitMix64, rounds: int) -> list[list[Request]]:
    pool = []
    for _ in range(rounds):
        rnd = [_screen_request(rng, kind, h) for h in SCREEN_HORIZONS for kind in SCREEN_KINDS]
        rng.shuffle(rnd)
        pool.append(rnd)
    return pool


# Windows per round for each n0; each window gives a reconstruct and an extend
# request.  One n0 = 16 window costs about as much as all the others together.
# In latency order the strata are e4 r4 e8 r8 e12 r12 e16 r16 (e: extend,
# r: reconstruct), and these counts put p50 at the middle of e8 and p90 at the
# middle of r12, not on the gap between two strata.
RATIONAL_MIX = {4: 6, 8: 6, 12: 2, 16: 1}
RATIONAL_TAIL = 3
EXTEND_COUNT = 4


def _rational(rng: SplitMix64, rounds: int) -> list[list[Request]]:
    pool = []
    for _ in range(rounds):
        pairs = []
        for n0, count in RATIONAL_MIX.items():
            for _ in range(count):
                atoms, weights = rational_measure(rng, n0, 12)
                full = moments(atoms, weights, 2 * n0 + RATIONAL_TAIL + EXTEND_COUNT)
                window = full[: 2 * n0 + RATIONAL_TAIL]
                measure = {"atoms": _strs(atoms), "weights": _strs(weights)}
                extension = _strs(full[len(window):])
                pairs.append(
                    [
                        Request(f"reconstruct/n0={n0}", "measure-exact",
                                ["reconstruct", "{file}"], measure, window, n0),
                        Request(f"extend/n0={n0}", "extension",
                                ["extend", "{file}", "--count", str(EXTEND_COUNT)],
                                {"extension": extension}, window, n0),
                    ]
                )
        rng.shuffle(pairs)
        pool.append([r for pair in pairs for r in pair])
    return pool


# (source, n0) -> windows per round.  "measure": the first 2*n0 moments of a
# seeded rational measure with n0 + 3 atoms; "hilbert": s_k = 1/(k+1), the
# Lebesgue measure on [0, 1] (Gauss-Legendre nodes, the same every round);
# "demo": the `demo --a` family 1, 1, a, a, a^2, ... with a >= 1 not a
# rational square (atoms +-sqrt a).  Listed in latency order; the counts put
# p50 at the middle of measure/n0=4 and p90 inside hilbert/n0=8, with room
# for a few measure/n0=6 windows that cost more than it.
ALGEBRAIC_MIX = {
    ("demo", 2): 3,
    ("hilbert", 2): 1,
    ("measure", 2): 1,
    ("hilbert", 4): 1,
    ("measure", 4): 5,
    ("hilbert", 6): 1,
    ("measure", 6): 2,
    ("hilbert", 8): 2,
    ("measure", 8): 1,
}
ALGEBRAIC_TAIL = 3
ALGEBRAIC_DIGITS = 50
ALGEBRAIC_MAX_DEN = 6


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _demo_a(rng: SplitMix64) -> Fraction:
    while True:
        a = Fraction(rng.randint(13, 16 * 12), rng.randint(1, 12))
        if a >= 1 and not (_is_square(a.numerator) and _is_square(a.denominator)):
            return a


def _algebraic_prefix(rng: SplitMix64, source: str, n0: int) -> list[Fraction]:
    if source == "measure":
        atoms, weights = rational_measure(rng, n0 + 3, ALGEBRAIC_MAX_DEN)
        return moments(atoms, weights, 2 * n0)
    if source == "hilbert":
        return [Fraction(1, k + 1) for k in range(2 * n0)]
    a = _demo_a(rng)
    return [Fraction(1), Fraction(1), a, a]


def _algebraic(rng: SplitMix64, rounds: int) -> list[list[Request]]:
    pool = []
    for _ in range(rounds):
        rnd = []
        for (source, n0), count in ALGEBRAIC_MIX.items():
            for _ in range(count):
                prefix = _algebraic_prefix(rng, source, n0)
                window, kernel = gauss_window(prefix, n0, 2 * n0 + ALGEBRAIC_TAIL)
                expect = {
                    "n0": n0,
                    "kernel": _strs(kernel),
                    "moments": _strs(window[: 2 * n0]),
                    "digits": ALGEBRAIC_DIGITS,
                }
                rnd.append(
                    Request(f"{source}/n0={n0}", "measure-enclosed",
                            ["reconstruct", "{file}", "--digits", str(ALGEBRAIC_DIGITS)],
                            expect, window, n0)
                )
        rng.shuffle(rnd)
        pool.append(rnd)
    return pool


# Requests per round for each campaign, and trials per request.  The trial
# counts give four cost levels, det1 < det2 < roundtrip < psd-theorem, and the
# counts (1, 1, 2, 1) put p50 at the middle of roundtrip and p90 at the middle
# of psd-theorem.  Enough trials per request keep each level narrow, although
# every trial draws its own atom count.
VERIFY_MIX = {"det1": (1, 16), "det2": (1, 8), "roundtrip": (2, 6), "psd-theorem": (1, 8)}


def _verify(rng: SplitMix64, rounds: int) -> list[list[Request]]:
    pool = []
    for _ in range(rounds):
        rnd = []
        for campaign, (count, trials) in VERIFY_MIX.items():
            for _ in range(count):
                seed = rng.randint(0, 2**31 - 1)
                argv = ["verify", campaign, "--trials", str(trials), "--seed", str(seed)]
                expect = {"campaign": campaign, "trials": trials, "seed": seed}
                rnd.append(Request(campaign, "verify", argv, expect, None, trials))
        pool.append(rnd)
    return pool


# Rounds in the pool: more than a run at the parent commit consumes, so a run
# rarely sees the same input twice; a faster program cycles through the pool.
POOL_ROUNDS = {"screen": 12, "recover-rational": 10, "recover-algebraic": 14, "verify": 120}
_BUILDERS = {
    "screen": _screen,
    "recover-rational": _rational,
    "recover-algebraic": _algebraic,
    "verify": _verify,
}


def generate(workload: str, seed: int, rounds: int | None = None) -> list[list[Request]]:
    """The request pool of ``workload`` for ``seed``, as rounds; deterministic.
    ``rounds`` defaults to the workload's full pool."""
    index = WORKLOADS.index(workload)
    rng = SplitMix64(seed * 0x100000001B3 + index)
    return _BUILDERS[workload](rng, POOL_ROUNDS[workload] if rounds is None else rounds)


def subprocess_request(requests: list[tuple[Request, list[str]]]) -> tuple[Request, list[str]]:
    """What ``python -m hankelmp`` is timed on: ``classify`` of the workload's
    smallest window, or its smallest request if it writes no windows."""
    req, argv = min(requests, key=lambda pair: pair[0].size)
    if req.window is None or req.check == "screen":
        return req, argv
    expect = {
        "variant": "degenerate",
        "n0": req.size,
        "windowConsistent": True,
        "horizon": (len(req.window) - 1) // 2,
        "s0": str(req.window[0]),
    }
    classify = Request(f"classify/{req.stratum}", "screen", ["classify", "{file}"], expect,
                       req.window, req.size)
    return classify, ["classify", argv[1]]


def write_inputs(pool: list[list[Request]], directory: Path) -> list[tuple[Request, list[str]]]:
    """Write every window file; return each request with its resolved argv."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[int, str] = {}
    out = []
    for req in (r for rnd in pool for r in rnd):
        path = None
        if req.window is not None:
            path = paths.get(id(req.window))
            if path is None:
                file = directory / f"{len(paths):05d}.json"
                file.write_text(json.dumps(_strs(req.window)) + "\n", encoding="utf-8")
                path = paths[id(req.window)] = str(file)
        out.append((req, req.resolved(path)))
    return out
