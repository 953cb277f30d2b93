"""Command-line front end.

Subcommands: classify, determinants, reconstruct, extend, moments, verify,
demo.  Reports are a single JSON object on stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 domain failure (bad classification for the requested
operation, or a failed verification campaign), 2 usage or parse error.

Rationals are serialized as canonical strings ("p/q" or an integer), never as
JSON numbers; enclosures are {"lo", "hi", "decimal"} objects where the decimal
field is a human-convenience rendering of the midpoint.
"""
from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .errors import MomentProblemError
from .exact import IsolatingInterval, RationalPoly, parse_rational
from .hankel import (
    Degenerate,
    Invalid,
    MomentWindow,
    PositiveWindow,
    WindowAnalysis,
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
    RationalInterval,
    extend,
    measure_moments,
    reconstruct,
)

__all__ = ["main", "run"]


class _InputError(Exception):
    """A file or argument failed to parse; maps to exit code 2."""


def _decimal_str(x: Fraction, digits: int = 15) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _rational_from_json(value, where: str) -> Fraction:
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise _InputError(f"{where}: {exc}") from exc
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise _InputError(f"{where}: write decimals as strings to keep them exact")
    raise _InputError(f"{where}: expected a rational string, got {value!r}")


def _load_sequence(path: str) -> MomentWindow:
    """A JSON array, a JSON object with a "moments" field, or CSV lines."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise _InputError(f"{path}: invalid JSON: {exc}") from exc
        if isinstance(doc, dict):
            doc = doc.get("moments")
        if not isinstance(doc, list):
            raise _InputError(f"{path}: expected a JSON array of rational strings")
        values = [_rational_from_json(v, path) for v in doc]
    else:
        values = [
            _rational_from_json(line.strip(), path)
            for line in stripped.splitlines()
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
        poly = RationalPoly([_rational_from_json(c, where) for c in coeffs])
        if poly.is_zero:
            raise _InputError(f"{where}: the defining poly must be nonzero")
        if lo == hi:
            if poly(lo) != 0:
                raise _InputError(f"{where}: point interval is not a root of its poly")
        elif poly(lo) == 0 or poly(hi) == 0 or (poly(lo) > 0) == (poly(hi) > 0):
            raise _InputError(f"{where}: the poly does not change sign over [lo, hi]")
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
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "atoms" not in doc or "weights" not in doc:
        raise _InputError(f"{path}: expected an object with 'atoms' and 'weights'")
    atoms = [_parse_atom(a, path) for a in doc["atoms"]]
    weights = [_parse_weight(w, path) for w in doc["weights"]]
    try:
        return DiscreteMeasure(tuple(atoms), tuple(weights))
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _enclosure_doc(lo: Fraction, hi: Fraction) -> dict:
    return {"lo": str(lo), "hi": str(hi), "decimal": _decimal_str((lo + hi) / 2)}


def measure_to_doc(mu: DiscreteMeasure) -> dict:
    """Canonical MeasureDocument form of a measure."""
    atoms = []
    for atom in mu.atoms:
        if isinstance(atom, Fraction):
            atoms.append({"exact": str(atom)})
        else:
            atoms.append(
                {
                    "interval": [str(atom.lo), str(atom.hi)],
                    "poly": [str(c) for c in atom.poly.coeffs],
                    "decimal": _decimal_str(atom.midpoint()),
                }
            )
    weights = [
        str(w) if isinstance(w, Fraction) else _enclosure_doc(w.lo, w.hi)
        for w in mu.weights
    ]
    return {"atoms": atoms, "weights": weights}


def classification_to_doc(analysis: WindowAnalysis) -> dict:
    cls = analysis.classification
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
    doc["determinants"] = [str(d) for d in analysis.determinants]
    return doc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _cmd_classify(args) -> int:
    window = _load_sequence(args.file)
    _emit(classification_to_doc(analyze(window)))
    return 0


def _cmd_determinants(args) -> int:
    window = _load_sequence(args.file)
    _emit({"determinants": [str(d) for d in det_sequence(window)]})
    return 0


def _cmd_reconstruct(args) -> int:
    window = _load_sequence(args.file)
    _emit(measure_to_doc(reconstruct(window, digits=args.digits)))
    return 0


def _cmd_extend(args) -> int:
    window = _load_sequence(args.file)
    _emit({"extension": [str(s) for s in extend(window, args.count)]})
    return 0


def _cmd_moments(args) -> int:
    mu = _load_measure(args.file)
    values = measure_moments(mu, args.count, digits=args.digits)
    _emit(
        {
            "moments": [
                str(v) if isinstance(v, Fraction) else _enclosure_doc(v.lo, v.hi)
                for v in values
            ]
        }
    )
    return 0


_CAMPAIGNS = {
    "det1": (verify_det1, 4, True),
    "det2": (verify_det2, 4, True),
    "roundtrip": (verify_roundtrip, 5, False),
    "psd-theorem": (verify_psd_theorem, 5, False),
}


def _cmd_verify(args) -> int:
    runner, default_max_n, takes_p = _CAMPAIGNS[args.campaign]
    max_n = args.max_n if args.max_n is not None else default_max_n
    kwargs = {"trials": args.trials, "seed": args.seed, "max_n": max_n}
    if takes_p:
        kwargs["max_p"] = args.max_p
    report = runner(**kwargs)
    _emit(report.to_dict())
    if report.passed:
        return 0
    print(f"verify {args.campaign}: {len(report.failures)} failing trials", file=sys.stderr)
    return 1


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
    doc = {
        "a": str(a),
        "branch": branch,
        "moments": [str(s) for s in window],
        "classification": classification_to_doc(analyze(window)),
        "measure": measure_to_doc(reconstruct(window, digits=args.digits)),
    }
    _emit(doc)
    return 0


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
    p.add_argument("--digits", type=int, default=50)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("extend", help="print the unique exact continuation")
    p.add_argument("file")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("moments", help="moments of a measure file")
    p.add_argument("file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--digits", type=int, default=50)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("verify", help="run a seeded verification campaign")
    p.add_argument("campaign", choices=sorted(_CAMPAIGNS))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-p", type=int, default=3)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("demo", help="the worked two-branch example for a given a")
    p.add_argument("--a", required=True)
    p.add_argument("--digits", type=int, default=50)
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
    except (_InputError, ValueError) as exc:
        print(f"hankelmp: {exc}", file=sys.stderr)
        return 2
    except MomentProblemError as exc:
        print(f"hankelmp: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
