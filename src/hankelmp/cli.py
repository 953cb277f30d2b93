"""Command-line front end.

Subcommands: classify, determinants, reconstruct, extend, moments, verify,
demo.  Reports are a single JSON object on stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 domain failure (bad classification for the requested
operation, a failed verification campaign, or an internal error, reported
without a traceback), 2 usage or parse error.  When the reader of stdout
closes it early, as ``| head`` does, ``main`` exits 1 silently: the rest of
the report is dropped and no traceback is printed.
``--digits`` takes 1..MAX_DECIMAL_EXPONENT (4300); ``--count`` takes
0..MAX_COUNT (10000) for extend and 1..MAX_COUNT for moments.  ``verify``
takes ``--trials`` 1..MAX_TRIALS (10000), ``--max-n`` 1..MAX_VERIFY_N (32),
``--max-p`` 1..MAX_VERIFY_P (16) and ``--seed`` 0..2^64 - 1.  An input file
whose JSON nests deeper than the parser's recursion limit is a parse error
(exit 2).
A decimal exponent in any decimal digits is bounded by MAX_DECIMAL_EXPONENT.
A measure file's interval atom needs lo <= hi and a poly of degree at most
MAX_ATOM_DEGREE (100), checked before the poly is built, where its one-root
check takes about 0.05 s with small integer coefficients; a ``reconstruct``
output with n0 > 100 is not accepted.

Rationals are serialized as canonical strings ("p/q" or an integer), never as
JSON numbers; enclosures are {"lo", "hi", "decimal"} objects where the decimal
field is a human-convenience rendering of the midpoint.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .errors import MomentProblemError
from .exact import (
    MAX_DECIMAL_EXPONENT,
    IsolatingInterval,
    RationalInterval,
    RationalPoly,
    _check_isolating,
    _is_int,
    format_rational,
    parse_rational,
)
from .hankel import (
    Classification,
    Degenerate,
    Invalid,
    MomentWindow,
    PositiveWindow,
    analyze,
    det_sequence,
)
from .identities import (
    verify_det1,
    verify_det2,
    verify_psd_theorem,
    verify_roundtrip,
)
from .recovery import (
    DiscreteMeasure,
    extend,
    measure_moments,
    reconstruct,
)

__all__ = ["main", "run"]


class _InputError(Exception):
    """A file or argument failed to parse; maps to exit code 2."""


def _decimal_str(x: Fraction, digits: int = 15) -> str:
    """x rounded to ``digits`` significant digits, all of them printed.

    A quotient that is exact in fewer digits, such as 1/2, is padded with
    trailing zeros ("0.500000000000000"); zero prints as "0".
    """
    with localcontext() as ctx:
        ctx.prec = digits
        q = Decimal(x.numerator) / Decimal(x.denominator)
        if not q:
            return "0"
        return str(q.quantize(Decimal(1).scaleb(q.adjusted() - digits + 1)))


def _rational_from_json(value, where: str) -> Fraction:
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise _InputError(f"{where}: {exc}") from exc
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, float):
        raise _InputError(f"{where}: write decimals as strings to keep them exact")
    raise _InputError(f"{where}: expected a rational string, got {value!r}")


def _read_input(path: str, csv: bool = False):
    """The JSON document in ``path``, or with ``csv`` its stripped text when
    that opens with neither [ nor {.  Every failure is an ``_InputError``."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    if csv:
        text = text.strip()
        if not text.startswith(("[", "{")):
            return text
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise _InputError(f"{path}: JSON nested too deeply") from None


def _load_sequence(path: str) -> MomentWindow:
    """A JSON array, a JSON object with a "moments" field, or CSV lines."""
    doc = _read_input(path, csv=True)
    if not isinstance(doc, str):
        if isinstance(doc, dict):
            doc = doc.get("moments")
        if not isinstance(doc, list):
            raise _InputError(f"{path}: expected a JSON array of rational strings")
        values = [_rational_from_json(v, path) for v in doc]
    else:
        values = [
            _rational_from_json(line.strip(), path)
            for line in doc.splitlines()
            if line.strip()
        ]
    if not values:
        raise _InputError(f"{path}: the sequence is empty")
    return MomentWindow(values)


def _parse_atom(entry, where: str):
    if isinstance(entry, dict) and "exact" in entry:
        return _rational_from_json(entry["exact"], where)
    if isinstance(entry, dict) and "interval" in entry:
        pair = entry["interval"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise _InputError(f"{where}: interval must be a [lo, hi] pair")
        lo = _rational_from_json(pair[0], where)
        hi = _rational_from_json(pair[1], where)
        coeffs = entry.get("poly")
        if not isinstance(coeffs, list) or not coeffs:
            raise _InputError(f"{where}: an algebraic atom needs its defining poly")
        values = [_rational_from_json(c, where) for c in coeffs]
        while values and values[-1] == 0:
            values.pop()
        # Both bounds are checked before RationalPoly puts every coefficient
        # over one common denominator, whose cost grows with the degree.
        if not values:
            raise _InputError(f"{where}: the defining poly must be nonzero")
        if len(values) - 1 > MAX_ATOM_DEGREE:
            raise _InputError(f"{where}: the defining poly has degree {len(values) - 1}, "
                              f"above {MAX_ATOM_DEGREE}")
        poly = RationalPoly(values)
        try:
            _check_isolating(poly, lo, hi)
        except ValueError as exc:
            raise _InputError(f"{where}: {exc}") from exc
        return IsolatingInterval(lo, hi, poly)
    raise _InputError(f"{where}: atom must be an 'exact' or 'interval' object")


def _parse_weight(entry, where: str):
    if isinstance(entry, (str, int)) and not isinstance(entry, bool):
        return _rational_from_json(entry, where)
    if isinstance(entry, dict) and "lo" in entry and "hi" in entry:
        pair = (entry["lo"], entry["hi"])
    elif isinstance(entry, list) and len(entry) == 2:
        pair = (entry[0], entry[1])
    else:
        raise _InputError(f"{where}: weight must be a rational string or an enclosure")
    lo = _rational_from_json(pair[0], where)
    hi = _rational_from_json(pair[1], where)
    if lo > hi:
        raise _InputError(f"{where}: enclosure endpoints out of order")
    return RationalInterval(lo, hi)


def _load_measure(path: str) -> DiscreteMeasure:
    doc = _read_input(path)
    if not isinstance(doc, dict) or "atoms" not in doc or "weights" not in doc:
        raise _InputError(f"{path}: expected an object with 'atoms' and 'weights'")
    if not isinstance(doc["atoms"], list) or not isinstance(doc["weights"], list):
        raise _InputError(f"{path}: 'atoms' and 'weights' must be JSON arrays")
    atoms = [_parse_atom(a, path) for a in doc["atoms"]]
    weights = [_parse_weight(w, path) for w in doc["weights"]]
    try:
        return DiscreteMeasure(tuple(atoms), tuple(weights))
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _enclosure_doc(iv: RationalInterval) -> dict:
    return {
        "lo": format_rational(iv.lo),
        "hi": format_rational(iv.hi),
        "decimal": _decimal_str(iv.midpoint()),
    }


def measure_to_doc(mu: DiscreteMeasure) -> dict:
    """Canonical MeasureDocument form of a measure."""
    atoms = []
    # The atoms of a reconstructed measure share one kernel object, formatted
    # once.  Keyed by identity: hashing a RationalPoly builds its coeffs.
    polys: dict[int, list[str]] = {}
    for atom in mu.atoms:
        if isinstance(atom, Fraction):
            atoms.append({"exact": format_rational(atom)})
        else:
            if id(atom.poly) not in polys:
                polys[id(atom.poly)] = [format_rational(c) for c in atom.poly.coeffs]
            atoms.append(
                {
                    "interval": [format_rational(atom.lo), format_rational(atom.hi)],
                    "poly": polys[id(atom.poly)],
                    "decimal": _decimal_str(atom.midpoint()),
                }
            )
    weights = [
        format_rational(w) if isinstance(w, Fraction) else _enclosure_doc(w)
        for w in mu.weights
    ]
    return {"atoms": atoms, "weights": weights}


def classification_to_doc(cls: Classification, determinants: Sequence[Fraction]) -> dict:
    doc: dict = {}
    if isinstance(cls, PositiveWindow):
        doc["variant"] = "positive_window"
        doc["horizon"] = cls.horizon
    elif isinstance(cls, Degenerate):
        doc["variant"] = "degenerate"
        doc["n0"] = cls.n0
        doc["windowConsistent"] = cls.window_consistent
    elif isinstance(cls, Invalid):
        doc["variant"] = "invalid"
        doc["firstViolation"] = cls.first_violation
        doc["reason"] = cls.reason.value
    doc["determinants"] = [format_rational(d) for d in determinants]
    return doc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _cmd_classify(args) -> int:
    # The verdict and D_0..D_N; the orthogonal polynomials are never built.
    analysis = analyze(_load_sequence(args.file))
    _emit(classification_to_doc(analysis.classification, analysis.determinants))
    return 0


def _cmd_determinants(args) -> int:
    window = _load_sequence(args.file)
    _emit({"determinants": [format_rational(d) for d in det_sequence(window)]})
    return 0


def _cmd_reconstruct(args) -> int:
    window = _load_sequence(args.file)
    _emit(measure_to_doc(reconstruct(window, digits=args.digits)))
    return 0


def _cmd_extend(args) -> int:
    window = _load_sequence(args.file)
    _emit({"extension": [format_rational(s) for s in extend(window, args.count)]})
    return 0


def _cmd_moments(args) -> int:
    mu = _load_measure(args.file)
    values = measure_moments(mu, args.count, digits=args.digits)
    _emit(
        {
            "moments": [
                format_rational(v) if isinstance(v, Fraction) else _enclosure_doc(v)
                for v in values
            ]
        }
    )
    return 0


# Each campaign is (runner, parameters), the parameters read once from the
# runner's signature, which holds every default: a flag the user gives is
# passed when the runner takes it.  A wrapper put in entry[0], such as the
# benchmark's timing wrapper, hides the signature, so it keeps entry[1:].
_CAMPAIGNS = {
    name: (runner, inspect.signature(runner).parameters)
    for name, runner in [
        ("det1", verify_det1),
        ("det2", verify_det2),
        ("roundtrip", verify_roundtrip),
        ("psd-theorem", verify_psd_theorem),
    ]
}


def _cmd_verify(args) -> int:
    runner, params = _CAMPAIGNS[args.campaign]
    flags = {"trials": args.trials, "seed": args.seed, "max_n": args.max_n, "max_p": args.max_p}
    report = runner(**{key: value for key, value in flags.items()
                       if value is not None and key in params})
    _emit(report.to_dict())
    if report.passed:
        return 0
    print(f"verify {args.campaign}: {len(report.failures)} failing trials", file=sys.stderr)
    return 1


def _campaign_defaults(param: str) -> tuple[str, str]:
    """The campaigns whose runner takes ``param``, and its default, for help texts."""
    params = {name: parameters for name, (_, parameters) in sorted(_CAMPAIGNS.items())}
    takers = [name for name, names in params.items() if param in names]
    values = sorted({params[name][param].default for name in takers})
    default = " or ".join(map(str, values)) + (" by campaign" if len(values) > 1 else "")
    return " and ".join(takers), default


def _demo_window(a: Fraction) -> tuple[str, MomentWindow]:
    powers = [a**k for k in range(5)]
    if a >= 1:
        values = [powers[0], powers[0]]
        for k in range(1, 4):
            values += [powers[k], powers[k]]
        values.append(powers[4])
        return "a >= 1", MomentWindow(values)
    values = [Fraction(1)]
    for k in range(1, 5):
        values += [powers[k], powers[k]]
    return "0 <= a <= 1", MomentWindow(values)


def _cmd_demo(args) -> int:
    try:
        a = parse_rational(args.a)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if a < 0:
        raise _InputError("demo needs a >= 0; the example sequences require it")
    branch, window = _demo_window(a)
    analysis = analyze(window)
    doc = {
        "a": format_rational(a),
        "branch": branch,
        "moments": [format_rational(s) for s in window],
        "classification": classification_to_doc(analysis.classification, analysis.determinants),
        "measure": measure_to_doc(reconstruct(analysis, digits=args.digits)),
    }
    _emit(doc)
    return 0


# Largest --count accepted by extend and moments: each value is built in full.
MAX_COUNT = 10_000
# Largest degree of an interval atom's poly.  Its Sturm chain, built by the
# one-root check, takes 0.05 s at degree 100 with one-digit integer
# coefficients on a 2-core VM, 0.8 s with 10-digit and 4.9 s with 30-digit ones.
MAX_ATOM_DEGREE = 100
# Largest verify --trials, --max-n and --max-p.  A trial builds exact matrices
# of order up to n + p + 1 in full; one det2 trial at n = 32, p = 16 takes
# 2.7-3.8 s of CPU on a 2-core VM.
MAX_TRIALS = 10_000
MAX_VERIFY_N = 32
MAX_VERIFY_P = 16


def _int_in(low: int, high: int):
    """argparse type for an integer flag in [low, high]; argparse names the flag on error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text[:40]!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


_DIGITS = _int_in(1, MAX_DECIMAL_EXPONENT)
_DIGITS_HELP = f"enclosures are certified to 10^-DIGITS, 1..{MAX_DECIMAL_EXPONENT} (default 50)"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelmp",
        description=(
            "Classify finite moment sequences by their Hankel determinant sign "
            "pattern, recover the finitely supported representing measure, and "
            "verify the underlying determinant identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a sequence file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("determinants", help="print the Hankel determinants D_0..D_N")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_determinants)

    p = sub.add_parser("reconstruct", help="recover the representing measure")
    p.add_argument("file")
    p.add_argument("--digits", type=_DIGITS, default=50, help=_DIGITS_HELP)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("extend", help="print the unique exact continuation")
    p.add_argument("file")
    p.add_argument("--count", type=_int_in(0, MAX_COUNT), required=True,
                   help=f"number of moments to append, 0..{MAX_COUNT}")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("moments", help="moments of a measure file")
    p.add_argument("file")
    p.add_argument("--count", type=_int_in(1, MAX_COUNT), required=True,
                   help=f"number of moments s_0.. to print, 1..{MAX_COUNT}")
    p.add_argument("--digits", type=_DIGITS, default=50, help=_DIGITS_HELP)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("verify", help="run a seeded verification campaign")
    p.add_argument("campaign", choices=sorted(_CAMPAIGNS))
    _, trials = _campaign_defaults("trials")
    _, max_n = _campaign_defaults("max_n")
    _, seed = _campaign_defaults("seed")
    p_takers, max_p = _campaign_defaults("max_p")
    p.add_argument("--trials", type=_int_in(1, MAX_TRIALS),
                   help=f"number of trials, 1..{MAX_TRIALS} (default {trials})")
    p.add_argument("--seed", type=_int_in(0, 2**64 - 1),
                   help=f"seed of the trials' SplitMix64 stream, 0..2^64-1 (default {seed})")
    p.add_argument("--max-n", type=_int_in(1, MAX_VERIFY_N),
                   help=f"largest atom count, 1..{MAX_VERIFY_N} (default {max_n})")
    p.add_argument("--max-p", type=_int_in(1, MAX_VERIFY_P),
                   help=f"largest p of {p_takers}, 1..{MAX_VERIFY_P} (default {max_p})")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("demo", help="the worked two-branch example for a given a")
    p.add_argument("--a", required=True)
    p.add_argument("--digits", type=_DIGITS, default=50, help=_DIGITS_HELP)
    p.set_defaults(handler=_cmd_demo)

    return parser


def run(argv: Sequence[str]) -> int:
    """Dispatch a CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _InputError as exc:
        print(f"hankelmp: {exc}", file=sys.stderr)
        return 2
    except (MomentProblemError, ValueError) as exc:
        print(f"hankelmp: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit, so point it at devnull first,
        # as the "Note on SIGPIPE" of the ``signal`` module's docs shows.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
