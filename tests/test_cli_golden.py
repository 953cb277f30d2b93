"""Replay a recorded corpus of CLI invocations and compare them byte for byte.

Each entry of ``data/cli_golden.json`` holds an argv, the JSON document that
``{file}`` in the argv names (or null), and the exit code, stdout and stderr
the CLI gave for it.  ``{file}`` also stands for the input path in stderr.
The recorded measures with interval atoms are also checked with the oracles
alone, so a deliberate change of their bytes can be re-recorded with proof
that the new bytes still certify the window.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from hankelmp.cli import run
from hankelmp.exact import RationalPoly
from hankelmp.recovery import RationalInterval

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", CORPUS, ids=[f"{i}-{'-'.join(e['argv'][:2])}" for i, e in enumerate(CORPUS)]
)
def test_cli_output_is_unchanged(entry, tmp_path, capsys):
    path = str(tmp_path / "input.json")
    if entry["input"] is not None:
        Path(path).write_text(json.dumps(entry["input"]), encoding="utf-8")
    code = run([path if a == "{file}" else a for a in entry["argv"]])
    captured = capsys.readouterr()
    assert code == entry["code"]
    assert captured.out == entry["stdout"]
    assert captured.err.replace(path, "{file}") == entry["stderr"]


def _interval_measures():
    """(index, window, digits, measure doc) of every recorded measure with an interval atom."""
    for i, entry in enumerate(CORPUS):
        argv = entry["argv"]
        if argv[0] not in ("reconstruct", "demo") or entry["code"] != 0:
            continue
        doc = json.loads(entry["stdout"])
        window = entry["input"] if argv[0] == "reconstruct" else doc["moments"]
        measure = doc if argv[0] == "reconstruct" else doc["measure"]
        if not any("interval" in atom for atom in measure["atoms"]):
            continue
        digits = int(argv[argv.index("--digits") + 1]) if "--digits" in argv else 50
        yield pytest.param(window, digits, measure, id=f"{i}-{argv[0]}")


@pytest.mark.parametrize("window,digits,measure", list(_interval_measures()))
def test_interval_measure_certifies_its_window_by_the_oracles(window, digits, measure):
    # Each interval isolates one root of its poly, and the recorded atoms
    # and weights enclose every moment s_k, k < 2 * n0, within 10^-digits.
    atoms = []
    for atom in measure["atoms"]:
        if "exact" in atom:
            x = Fraction(atom["exact"])
            atoms.append(RationalInterval(x, x))
            continue
        lo, hi = map(Fraction, atom["interval"])
        poly = RationalPoly([Fraction(c) for c in atom["poly"]])
        assert oracles.fraction_isolating_check(poly, lo, hi) is None
        atoms.append(RationalInterval(lo, hi))
    assert all(a.hi < b.lo for a, b in zip(atoms, atoms[1:]))
    weights = []
    for w in measure["weights"]:
        lo, hi = (Fraction(w), Fraction(w)) if isinstance(w, str) else (Fraction(w["lo"]), Fraction(w["hi"]))
        assert 0 < lo <= hi
        weights.append(RationalInterval(lo, hi))
    tol = Fraction(1, 10**digits)
    for k, s in enumerate(map(Fraction, window[: 2 * len(atoms)])):
        enclosure = oracles.interval_power_sum(atoms, weights, k)
        assert s - tol <= enclosure.lo <= s <= enclosure.hi <= s + tol, k
