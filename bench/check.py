"""Per-request answer checks for the hankelmp benchmark, and their self-test.

Each check takes the request's expectation (known by construction in
``gen.py``), the exit code and the captured stdout, and returns ``None`` for
a correct answer or a short reason.  Nothing here imports hankelmp.
"""
from __future__ import annotations

import copy
import json
from fractions import Fraction


class Wrong(Exception):
    """The answer is wrong; the message says why."""


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise Wrong(why)


def _q(text) -> Fraction:
    _require(isinstance(text, str), f"expected a rational string, got {text!r}")
    return Fraction(text)


def _screen(expect: dict, doc: dict) -> None:
    variant = expect["variant"]
    _require(doc.get("variant") == variant, f"verdict {doc.get('variant')!r}, expected {variant!r}")
    for key in ("horizon", "n0", "windowConsistent", "firstViolation", "reason"):
        if key in expect and (key != "horizon" or variant == "positive_window"):
            _require(doc.get(key) == expect[key], f"{key} {doc.get(key)!r}, expected {expect[key]!r}")
    dets = [_q(d) for d in doc["determinants"]]
    h = expect["horizon"]
    _require(len(dets) == h + 1, f"{len(dets)} determinants for horizon {h}")
    _require(dets[0] == _q(expect["s0"]), "D_0 differs from s_0")
    if variant == "positive_window":
        _require(all(d > 0 for d in dets), "a determinant of a positive window is not positive")
    elif variant == "degenerate":
        n0 = expect["n0"]
        _require(all(d > 0 for d in dets[:n0]) and all(d == 0 for d in dets[n0:]),
                 "determinant signs do not match Degenerate(n0)")
    elif expect["reason"] == "NegativeDeterminant":
        k = expect["firstViolation"]
        _require(all(d > 0 for d in dets[: k - 1]) and dets[k - 1] == 0 and dets[k] < 0,
                 "determinant signs do not match the negative-determinant construction")


def _measure_exact(expect: dict, doc: dict) -> None:
    atoms = [entry.get("exact") if isinstance(entry, dict) else None for entry in doc["atoms"]]
    _require(all(a is not None for a in atoms), "an atom of a rational measure is not exact")
    _require([_q(a) for a in atoms] == [_q(a) for a in expect["atoms"]], "atoms differ from the source")
    _require([_q(w) for w in doc["weights"]] == [_q(w) for w in expect["weights"]],
             "weights differ from the source")


def _extension(expect: dict, doc: dict) -> None:
    _require([_q(s) for s in doc["extension"]] == [_q(s) for s in expect["extension"]],
             "extension differs from the source measure's moments")


def _poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ipow(iv, k: int) -> tuple[Fraction, Fraction]:
    lo, hi = iv
    if k % 2 == 1 or lo >= 0:
        return lo**k, hi**k
    if hi <= 0:
        return hi**k, lo**k
    return Fraction(0), max(lo**k, hi**k)


def _moment_enclosure(weights, atoms, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Enclosure of sum_j w_j x_j^k for positive weight intervals, as
    unreduced (numerator, denominator) pairs: no gcd, so large sums stay cheap."""
    lo_n, lo_d, hi_n, hi_d = 0, 1, 0, 1
    for (w_lo, w_hi), x in zip(weights, atoms):
        a, b = _ipow(x, k)
        t_lo = w_lo * a if a >= 0 else w_hi * a
        t_hi = w_hi * b if b >= 0 else w_lo * b
        lo_n, lo_d = lo_n * t_lo.denominator + t_lo.numerator * lo_d, lo_d * t_lo.denominator
        hi_n, hi_d = hi_n * t_hi.denominator + t_hi.numerator * hi_d, hi_d * t_hi.denominator
    return (lo_n, lo_d), (hi_n, hi_d)


def _measure_enclosed(expect: dict, doc: dict) -> None:
    n0 = expect["n0"]
    kernel = [_q(c) for c in expect["kernel"]]
    _require(len(doc["atoms"]) == n0 and len(doc["weights"]) == n0, "wrong number of atoms")
    atoms = []
    for entry in doc["atoms"]:
        if "exact" in entry:
            x = _q(entry["exact"])
            _require(_poly(kernel, x) == 0, "an exact atom is not a root of the kernel")
            atoms.append((x, x))
            continue
        lo, hi = (_q(v) for v in entry["interval"])
        plo, phi = _poly(kernel, lo), _poly(kernel, hi)
        _require(lo < hi and plo != 0 and phi != 0 and (plo > 0) != (phi > 0),
                 "an atom interval does not bracket a sign change of the kernel")
        atoms.append((lo, hi))
    _require(all(a[1] < b[0] for a, b in zip(atoms, atoms[1:])), "atoms overlap or are unsorted")
    weights = []
    for w in doc["weights"]:
        iv = (_q(w["lo"]), _q(w["hi"])) if isinstance(w, dict) else (_q(w), _q(w))
        _require(Fraction(0) < iv[0] <= iv[1], "a weight enclosure is not certified positive")
        weights.append(iv)
    tol = Fraction(1, 10 ** expect["digits"])
    for k, moment in enumerate(_q(v) for v in expect["moments"]):
        (lo_n, lo_d), (hi_n, hi_d) = _moment_enclosure(weights, atoms, k)
        floor, ceiling = moment - tol, moment + tol
        _require(lo_n * floor.denominator >= floor.numerator * lo_d
                 and hi_n * ceiling.denominator <= ceiling.numerator * hi_d,
                 f"enclosure of s_{k} is not within 10^-{expect['digits']}")


def _verify(expect: dict, doc: dict) -> None:
    for key in ("campaign", "trials", "seed"):
        _require(doc.get(key) == expect[key], f"{key} {doc.get(key)!r}, expected {expect[key]!r}")
    _require(doc.get("failures") == 0 and doc.get("ok") is True, "the campaign reports failures")


_CHECKS = {
    "screen": _screen,
    "measure-exact": _measure_exact,
    "extension": _extension,
    "measure-enclosed": _measure_enclosed,
    "verify": _verify,
}


def check(kind: str, expect: dict, code: int, stdout: str) -> str | None:
    """None if the answer is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
        _CHECKS[kind](expect, doc)
    except Wrong as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
    return None


# --- self-test: corrupted answers must be caught -----------------------------

_NUDGE = Fraction(1, 10**9)


def _corrupt_screen(doc: dict) -> list[tuple[str, dict]]:
    out = []
    flipped = copy.deepcopy(doc)
    flipped["variant"] = "degenerate" if doc["variant"] != "degenerate" else "positive_window"
    flipped.setdefault("n0", len(doc["determinants"]) - 1)
    flipped.setdefault("windowConsistent", True)
    out.append(("flipped verdict", flipped))
    for key, new in (("firstViolation", lambda v: v + 1), ("windowConsistent", lambda v: not v)):
        if key in doc:
            bad = copy.deepcopy(doc)
            bad[key] = new(doc[key])
            out.append((f"changed {key}", bad))
    bad = copy.deepcopy(doc)
    bad["determinants"][0] = str(_q(doc["determinants"][0]) + 1)
    out.append(("changed D_0", bad))
    return out


def _corrupt_measure(doc: dict) -> list[tuple[str, dict]]:
    out = []
    nudged = copy.deepcopy(doc)
    atom = nudged["atoms"][0]
    if "exact" in atom:
        atom["exact"] = str(_q(atom["exact"]) + _NUDGE)
    else:
        lo, hi = (_q(v) for v in atom["interval"])
        shift = 4 * (hi - lo)
        atom["interval"] = [str(lo + shift), str(hi + shift)]
    out.append(("nudged atom", nudged))
    widened = copy.deepcopy(doc)
    w = widened["weights"][-1]
    if isinstance(w, dict):
        w["lo"] = str(_q(w["lo"]) - Fraction(1, 10**40))
        w["hi"] = str(_q(w["hi"]) + Fraction(1, 10**40))
    else:
        widened["weights"][-1] = {"lo": str(_q(w) - _NUDGE), "hi": str(_q(w) + _NUDGE)}
    out.append(("widened weight", widened))
    dropped = copy.deepcopy(doc)
    del dropped["atoms"][-1], dropped["weights"][-1]
    out.append(("dropped atom", dropped))
    return out


def _corrupt_extension(doc: dict) -> list[tuple[str, dict]]:
    bad = copy.deepcopy(doc)
    bad["extension"][-1] = str(_q(doc["extension"][-1]) + _NUDGE)
    return [("nudged extension", bad)]


def _corrupt_verify(doc: dict) -> list[tuple[str, dict]]:
    bad = copy.deepcopy(doc)
    bad["ok"], bad["failures"] = False, 1
    return [("failed campaign", bad)]


_CORRUPTERS = {
    "screen": _corrupt_screen,
    "measure-exact": _corrupt_measure,
    "extension": _corrupt_extension,
    "measure-enclosed": _corrupt_measure,
    "verify": _corrupt_verify,
}


def self_test(kind: str, expect: dict, code: int, stdout: str) -> tuple[int, list[str]]:
    """Feed the checker one genuine answer and corrupted copies of it.

    The genuine answer must pass; the same answer with exit code 1, and every
    corrupted copy, must fail.  Returns how many bad answers were fed and the
    problems found (empty when the checker caught them all).
    """
    reason = check(kind, expect, code, stdout)
    if reason is not None:
        return 0, [f"genuine answer rejected: {reason}"]
    bad = [("exit code 1", 1, stdout)] + [
        (label, code, json.dumps(doc)) for label, doc in _CORRUPTERS[kind](json.loads(stdout))
    ]
    problems = [f"{label} accepted" for label, c, out in bad if check(kind, expect, c, out) is None]
    return len(bad), problems
