"""End-to-end tests of the command-line interface and its file formats."""
from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from hankelmp.cli import MAX_ATOM_DEGREE, _decimal_str, measure_to_doc, run
from hankelmp.recovery import reconstruct
from oracles import det_cofactor

REMARK = ["1", "1", "1", "1", "0", "0", "0"]
A4 = ["1", "1", "4", "4", "16"]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSequenceInput:
    def test_bare_array(self, tmp_path, capsys):
        path = write_json(tmp_path, "remark.json", REMARK)
        code, out, err = invoke(capsys, ["classify", path])
        doc = json.loads(out)
        assert code == 0 and err == ""
        assert doc["variant"] == "invalid"
        assert doc["firstViolation"] == 3
        assert doc["reason"] == "ZeroThenPositive"
        assert doc["determinants"] == ["1", "0", "0", "1"]

    def test_moments_object(self, tmp_path, capsys):
        path = write_json(tmp_path, "a4.json", {"moments": A4})
        code, out, _ = invoke(capsys, ["classify", path])
        doc = json.loads(out)
        assert code == 0
        assert doc == {
            "variant": "degenerate",
            "n0": 2,
            "windowConsistent": True,
            "determinants": ["1", "3", "0"],
        }

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text("1\n1/4\n1/4\n1/16\n1/16\n", encoding="utf-8")
        code, out, _ = invoke(capsys, ["determinants", str(path)])
        assert code == 0
        assert json.loads(out) == {"determinants": ["1", "3/16", "0"]}

    def test_integers_allowed_floats_rejected(self, tmp_path, capsys):
        ok = write_json(tmp_path, "ints.json", [1, 1, 4, 4, 16])
        code, out, _ = invoke(capsys, ["classify", ok])
        assert code == 0 and json.loads(out)["variant"] == "degenerate"
        bad = write_json(tmp_path, "floats.json", [1, 0.5, 0.25])
        code, out, err = invoke(capsys, ["classify", bad])
        assert code == 2 and out == "" and "strings" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2", encoding="utf-8")
        code, out, err = invoke(capsys, ["classify", str(path)])
        assert code == 2 and out == "" and err != ""

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = invoke(capsys, ["classify", str(path)])
        assert code == 2 and out == ""
        assert f"{path}: JSON nested too deeply" in err

    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, ["classify", "/nonexistent/nope.json"])
        assert code == 2 and out == "" and err != ""

    @pytest.mark.parametrize("command", [["classify"], ["moments", "--count", "2"]])
    def test_undecodable_bytes_are_a_parse_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff\xfe["1"]')
        code, out, err = invoke(capsys, [command[0], str(path), *command[1:]])
        assert code == 2 and out == "" and str(path) in err and "utf-8" in err

    def test_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        # json builds int("1" * 5000), which the int-to-string limit refuses.
        digits = "1" * 5000
        sequence = tmp_path / "seq.json"
        sequence.write_text(f"[{digits}]", encoding="utf-8")
        measure = tmp_path / "m.json"
        measure.write_text(f'{{"atoms": [{{"exact": "1"}}], "weights": [{digits}]}}', encoding="utf-8")
        for argv in (["classify", str(sequence)], ["moments", str(measure), "--count", "2"]):
            code, out, err = invoke(capsys, argv)
            assert code == 2 and out == "" and f"{argv[1]}: invalid JSON" in err

    def test_huge_exponent_rejected_before_evaluation(self, tmp_path, capsys):
        # 10**100000000 would take seconds and tens of megabytes to build.
        path = write_json(tmp_path, "huge.json", ["1", "1e100000000", "1"])
        code, out, err = invoke(capsys, ["classify", path])
        assert code == 2 and out == "" and "exponent" in err

    @pytest.mark.parametrize("zero", ["\u0660", "\uff10"])
    def test_exponent_in_other_decimal_digits_rejected(self, tmp_path, capsys, zero):
        # 20000 in Arabic-Indic and in fullwidth digits, which Fraction would read.
        literal = "1e" + "".join(chr(ord(zero) + int(c)) for c in "20000")
        path = write_json(tmp_path, "huge.json", [literal, "1"])
        code, out, err = invoke(capsys, ["classify", path])
        assert (code, out) == (2, "")
        assert err == (
            f"hankelmp: {path}: decimal exponent of {literal!r} exceeds 4300 in absolute value\n"
        )

    def test_rationals_past_4300_digits_print(self, tmp_path, capsys):
        # D_1 = 1 - 10^4400 has 4401 digits, past the int-to-string limit.
        window = ["1", "1" + "0" * 2200, "1"]
        path = write_json(tmp_path, "big.json", window)
        code, out, err = invoke(capsys, ["classify", path])
        assert code == 0 and err == ""
        # Parse back through decimal, which the digit limit does not cover.
        parsed = [F(Decimal(d)) for d in json.loads(out)["determinants"]]
        s = [int(Decimal(v)) for v in window]
        assert parsed == [det_cofactor([[s[0]]]), det_cofactor([[s[0], s[1]], [s[1], s[2]]])]

    def test_positive_window_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "pos.json", ["2", "0", "1", "0", "1"])
        code, out, _ = invoke(capsys, ["classify", path])
        doc = json.loads(out)
        assert doc["variant"] == "positive_window" and doc["horizon"] == 2


class TestReconstructAndExtend:
    def test_reconstruct_a4(self, tmp_path, capsys):
        path = write_json(tmp_path, "a4.json", A4)
        code, out, _ = invoke(capsys, ["reconstruct", path])
        assert code == 0
        assert json.loads(out) == {
            "atoms": [{"exact": "-2"}, {"exact": "2"}],
            "weights": ["1/4", "3/4"],
        }

    def test_reconstruct_refuses_invalid(self, tmp_path, capsys):
        path = write_json(tmp_path, "remark.json", REMARK)
        code, out, err = invoke(capsys, ["reconstruct", path])
        assert code == 1 and out == "" and "hankelmp:" in err

    def test_reconstruct_irrational(self, tmp_path, capsys):
        path = write_json(tmp_path, "sqrt2.json", ["1", "0", "2", "0", "4"])
        code, out, _ = invoke(capsys, ["reconstruct", path, "--digits", "30"])
        doc = json.loads(out)
        assert code == 0
        atom = doc["atoms"][0]
        assert set(atom) == {"interval", "poly", "decimal"}
        assert atom["poly"] == ["-2", "0", "1"]
        assert atom["decimal"].startswith("-1.4142135623")
        weight = doc["weights"][0]
        assert set(weight) == {"lo", "hi", "decimal"}
        assert weight["decimal"].startswith("0.5000")

    def test_extend(self, tmp_path, capsys):
        path = write_json(tmp_path, "a4.json", A4)
        code, out, _ = invoke(capsys, ["extend", path, "--count", "4"])
        assert code == 0
        assert json.loads(out) == {"extension": ["16", "64", "64", "256"]}

    def test_extend_refuses_inconsistent(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", ["1", "1", "1", "1", "0"])
        code, out, err = invoke(capsys, ["extend", path, "--count", "2"])
        assert code == 1 and out == "" and err != ""


class TestMoments:
    def test_exact_measure_file(self, tmp_path, capsys):
        payload = {"atoms": [{"exact": "-2"}, {"exact": "2"}], "weights": ["1/4", "3/4"]}
        path = write_json(tmp_path, "m.json", payload)
        code, out, _ = invoke(capsys, ["moments", path, "--count", "5"])
        assert code == 0
        assert json.loads(out) == {"moments": ["1", "1", "4", "4", "16"]}

    def test_interval_measure_file(self, tmp_path, capsys):
        src = write_json(tmp_path, "seq.json", ["1", "0", "2", "0", "4"])
        code, out, _ = invoke(capsys, ["reconstruct", src, "--digits", "25"])
        measure_doc = json.loads(out)
        path = write_json(tmp_path, "m.json", measure_doc)
        code, out, _ = invoke(capsys, ["moments", path, "--count", "5", "--digits", "15"])
        doc = json.loads(out)
        assert code == 0
        first = doc["moments"][0]
        assert set(first) == {"lo", "hi", "decimal"}
        for rendered, expected in zip(doc["moments"], [1, 0, 2, 0, 4]):
            lo, hi = F(rendered["lo"]), F(rendered["hi"])
            assert lo <= expected <= hi
            assert hi - lo <= F(1, 10**15)

    def test_weight_pair_form_accepted(self, tmp_path, capsys):
        payload = {
            "atoms": [{"exact": "1"}],
            "weights": [["99/100", "101/100"]],
        }
        path = write_json(tmp_path, "m.json", payload)
        code, out, _ = invoke(capsys, ["moments", path, "--count", "2", "--digits", "1"])
        doc = json.loads(out)
        assert code == 0
        # s_1 = w * 1 over the weight enclosure, rounded outward onto the grid.
        lo, hi = F(doc["moments"][1]["lo"]), F(doc["moments"][1]["hi"])
        assert lo <= F(99, 100) and F(101, 100) <= hi
        assert hi - lo <= F(1, 10)

    def test_unattainable_precision_is_a_domain_failure(self, tmp_path, capsys):
        # A weight enclosure wider than the requested tolerance cannot be
        # narrowed (there is no defining polynomial to refine), so this is a
        # domain failure, not a usage error.
        payload = {"atoms": [{"exact": "1"}], "weights": [["9/10", "11/10"]]}
        path = write_json(tmp_path, "m.json", payload)
        code, out, err = invoke(capsys, ["moments", path, "--count", "2", "--digits", "5"])
        assert code == 1 and out == "" and "enclosures" in err

    def test_bad_measure_doc(self, tmp_path, capsys):
        # Interval atom whose poly does not change sign over the interval.
        payload = {
            "atoms": [{"interval": ["1", "2"], "poly": ["1", "0", "1"]}],
            "weights": ["1"],
        }
        path = write_json(tmp_path, "m.json", payload)
        code, out, err = invoke(capsys, ["moments", path, "--count", "2"])
        assert code == 2 and out == "" and err != ""

    @pytest.mark.parametrize(
        "payload",
        [
            {"atoms": 5, "weights": 5},
            {"atoms": [{"exact": "1"}], "weights": None},
            {"atoms": "12", "weights": ["1", "1"]},
        ],
    )
    def test_atoms_and_weights_must_be_arrays(self, tmp_path, capsys, payload):
        path = write_json(tmp_path, "m.json", payload)
        code, out, err = invoke(capsys, ["moments", path, "--count", "3"])
        assert code == 2 and out == ""
        assert err == f"hankelmp: {path}: 'atoms' and 'weights' must be JSON arrays\n"

    def test_deeply_nested_atoms_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        nested = "[" * 100_000 + "]" * 100_000
        path.write_text(f'{{"atoms": {nested}, "weights": []}}', encoding="utf-8")
        code, out, err = invoke(capsys, ["moments", str(path), "--count", "2"])
        assert code == 2 and out == ""
        assert f"{path}: JSON nested too deeply" in err

    def test_interval_holding_three_roots_rejected(self, tmp_path, capsys):
        # (x - 1)(x - 2)(x - 3) changes sign over [0, 5] but has three roots there.
        payload = {
            "atoms": [{"interval": ["0", "5"], "poly": ["-6", "11", "-6", "1"]}],
            "weights": ["1"],
        }
        path = write_json(tmp_path, "m.json", payload)
        code, out, err = invoke(capsys, ["moments", path, "--count", "3"])
        assert code == 2 and out == ""
        assert "holds 3 roots of its poly, not one" in err

    def test_interval_holding_one_root_accepted(self, tmp_path, capsys):
        payload = {
            "atoms": [{"interval": ["5/2", "7/2"], "poly": ["-6", "11", "-6", "1"]}],
            "weights": ["2"],
        }
        path = write_json(tmp_path, "m.json", payload)
        code, out, _ = invoke(capsys, ["moments", path, "--count", "3", "--digits", "5"])
        assert code == 0
        for rendered, expected in zip(json.loads(out)["moments"], [2, 6, 18]):
            assert F(rendered["lo"]) <= expected <= F(rendered["hi"])

    @pytest.mark.parametrize("pair", [["2", "1"], ["3/2", "1"]])
    def test_reversed_interval_rejected(self, tmp_path, capsys, pair):
        # The root sqrt(3/2) of 2x^2 - 3 lies between the endpoints, but lo > hi.
        payload = {"atoms": [{"interval": pair, "poly": ["-3", "0", "2"]}], "weights": ["1"]}
        path = write_json(tmp_path, "m.json", payload)
        code, out, err = invoke(capsys, ["moments", path, "--count", "2"])
        assert (code, out) == (2, "")
        assert err == f"hankelmp: {path}: interval endpoints out of order\n"

    def test_poly_degree_bound(self, tmp_path, capsys):
        # x^d - 2 has its one positive root 2^(1/d) in [1, 2].
        for degree in (MAX_ATOM_DEGREE, MAX_ATOM_DEGREE + 1):
            poly = ["-2"] + ["0"] * (degree - 1) + ["1"]
            payload = {"atoms": [{"interval": ["1", "2"], "poly": poly}], "weights": ["1"]}
            path = write_json(tmp_path, "m.json", payload)
            code, out, err = invoke(capsys, ["moments", path, "--count", "2", "--digits", "5"])
            if degree == MAX_ATOM_DEGREE:
                assert (code, err) == (0, "")
                s1 = json.loads(out)["moments"][1]
                assert F(s1["lo"]) ** degree <= 2 <= F(s1["hi"]) ** degree
            else:
                assert (code, out) == (2, "")
                assert err == (
                    f"hankelmp: {path}: the defining poly has degree {degree}, "
                    f"above {MAX_ATOM_DEGREE}\n"
                )

    def test_degree_bound_checked_before_the_poly_is_built(self, tmp_path, capsys, monkeypatch):
        # Putting 5000 coefficients 1/p over one denominator would take seconds.
        def unbuilt(coeffs):
            raise AssertionError("RationalPoly built before the degree check")

        monkeypatch.setattr("hankelmp.cli.RationalPoly", unbuilt)
        payload = {
            "atoms": [{"interval": ["0", "1"], "poly": [f"1/{k + 2}" for k in range(5000)]}],
            "weights": ["1"],
        }
        path = write_json(tmp_path, "m.json", payload)
        code, out, err = invoke(capsys, ["moments", path, "--count", "2"])
        assert (code, out) == (2, "")
        assert err == (
            f"hankelmp: {path}: the defining poly has degree 4999, above {MAX_ATOM_DEGREE}\n"
        )

    def test_trailing_zero_coefficients_do_not_count_toward_the_degree(self, tmp_path, capsys):
        poly = ["-2", "0", "1", "0", "0"]
        payload = {"atoms": [{"interval": ["1", "2"], "poly": poly}], "weights": ["1"]}
        path = write_json(tmp_path, "m.json", payload)
        code, out, _ = invoke(capsys, ["moments", path, "--count", "2", "--digits", "5"])
        assert code == 0
        s1 = json.loads(out)["moments"][1]
        assert F(s1["lo"]) ** 2 <= 2 <= F(s1["hi"]) ** 2
        from hankelmp.cli import _load_measure

        assert _load_measure(path).atoms[0].poly.degree == 2

    def test_zero_poly_rejected(self, tmp_path, capsys):
        payload = {"atoms": [{"interval": ["1", "2"], "poly": ["0", "0/3"]}], "weights": ["1"]}
        path = write_json(tmp_path, "m.json", payload)
        code, out, err = invoke(capsys, ["moments", path, "--count", "2"])
        assert (code, out) == (2, "")
        assert err == f"hankelmp: {path}: the defining poly must be nonzero\n"

    def test_atom_enclosure_holding_zero_keeps_s0_exact(self, tmp_path, capsys):
        # The root 10^-400 is never separated from 0 by refinement, but
        # x^0 = 1 on the whole enclosure, so s_0 is the weight exactly.
        payload = {
            "atoms": [{"interval": ["-1/2", "1"], "poly": ["-1e-400", "1"]}],
            "weights": ["1"],
        }
        path = write_json(tmp_path, "m.json", payload)
        code, out, _ = invoke(capsys, ["moments", path, "--count", "2", "--digits", "10"])
        assert code == 0
        s0 = json.loads(out)["moments"][0]
        assert s0 == {"lo": "1", "hi": "1", "decimal": "1.00000000000000"}

    def test_point_interval_atom_prints_exact_moments(self, tmp_path, capsys):
        # [1, 1] is the exact root 1 of x - 1, so the measure is exact.
        point = {"atoms": [{"interval": ["1", "1"], "poly": ["-1", "1"]}, {"exact": "2"}],
                 "weights": ["1/2", "1/3"]}
        rational = {"atoms": [{"exact": "1"}, {"exact": "2"}], "weights": ["1/2", "1/3"]}
        outputs = []
        for payload in (point, rational):
            path = write_json(tmp_path, "m.json", payload)
            code, out, err = invoke(capsys, ["moments", path, "--count", "3"])
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]) == {"moments": ["5/6", "7/6", "11/6"]}

    def test_document_round_trip_idempotent(self, tmp_path, capsys):
        for seq in (A4, ["1", "0", "2", "0", "4"]):
            mu = reconstruct([F(s) for s in seq], digits=20)
            doc = measure_to_doc(mu)
            path = write_json(tmp_path, "m.json", doc)
            code, out, _ = invoke(capsys, ["moments", path, "--count", "3", "--digits", "5"])
            assert code == 0
            # Re-parse the document through the CLI loader and re-serialize.
            from hankelmp.cli import _load_measure

            assert measure_to_doc(_load_measure(path)) == doc


class TestVerify:
    def test_verify_passes_and_is_byte_identical(self, capsys):
        code1, out1, err1 = invoke(capsys, ["verify", "det2", "--trials", "8", "--seed", "5"])
        code2, out2, _ = invoke(capsys, ["verify", "det2", "--trials", "8", "--seed", "5"])
        assert code1 == code2 == 0
        assert err1 == ""
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["ok"] is True and doc["failures"] == 0 and doc["trials"] == 8

    @pytest.mark.parametrize("campaign", ["det1", "det2", "roundtrip", "psd-theorem"])
    def test_all_campaigns_run(self, capsys, campaign):
        code, out, _ = invoke(capsys, ["verify", campaign, "--trials", "5", "--seed", "9"])
        assert code == 0
        assert json.loads(out)["campaign"] == campaign

    @pytest.mark.parametrize(
        "campaign, flag, value",
        [
            ("psd-theorem", "--trials", "-3"),
            ("roundtrip", "--trials", "0"),
            ("det1", "--max-n", "0"),
            ("det2", "--max-p", "0"),
        ],
    )
    def test_campaign_flags_below_one_rejected(self, capsys, campaign, flag, value):
        code, out, err = invoke(capsys, ["verify", campaign, flag, value])
        assert code == 2 and out == ""
        assert f"argument {flag}: must be at least 1" in err

    @pytest.mark.parametrize(
        "value, message",
        [
            ("-1", "must be at least 0, got -1"),
            (str(2**64), f"must be at most {2**64 - 1}, got {2**64}"),
            ("2.5", "expected an integer, got '2.5'"),
        ],
    )
    def test_seed_outside_the_splitmix64_states_rejected(self, capsys, value, message):
        code, out, err = invoke(capsys, ["verify", "det1", f"--seed={value}"])
        assert code == 2 and out == ""
        assert f"argument --seed: {message}" in err

    @pytest.mark.parametrize(
        "campaign, flag, value, bound",
        [
            ("det2", "--trials", "10001", 10_000),
            ("roundtrip", "--max-n", "33", 32),
            ("det1", "--max-p", "17", 16),
            ("det2", "--max-p", "1" + "0" * 30, 16),
        ],
    )
    def test_campaign_flags_above_the_bound_rejected(self, capsys, campaign, flag, value, bound):
        code, out, err = invoke(capsys, ["verify", campaign, flag, value])
        assert code == 2 and out == ""
        assert f"argument {flag}: must be at most {bound}, got {value}" in err

    def test_det1_draws_more_than_eight_atoms(self, capsys):
        from hankelmp.identities import SplitMix64

        # The first trial of seed 3 draws n = 10, whose n + 1 distinct
        # column shifts do not fit in [0, 8].
        assert SplitMix64(3).randint(1, 12) == 10
        argv = ["verify", "det1", "--trials", "1", "--seed", "3", "--max-n", "12", "--max-p", "2"]
        code, out, err = invoke(capsys, argv)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["ok"] is True and doc["failures"] == 0 and doc["trials"] == 1

    def test_max_p_is_accepted_and_ignored_by_campaigns_without_p(self, capsys):
        for campaign in ("roundtrip", "psd-theorem"):
            plain = invoke(capsys, ["verify", campaign, "--trials", "3"])
            assert invoke(capsys, ["verify", campaign, "--trials", "3", "--max-p", "5"]) == plain

    def test_a_runner_behind_a_wrapper_gets_the_flags_given(self, capsys, monkeypatch):
        from hankelmp import cli

        def wrapped(runner, calls):
            def timed(*args, **kwargs):
                calls.append(kwargs)
                return runner(*args, **kwargs)

            return timed

        for campaign in ("roundtrip", "psd-theorem"):
            argv = ["verify", campaign, "--trials", "3", "--seed", "4", "--max-p", "5"]
            plain = invoke(capsys, argv)
            entry, calls = cli._CAMPAIGNS[campaign], []
            # A timing wrapper replaces the runner and keeps the rest of the entry.
            monkeypatch.setitem(cli._CAMPAIGNS, campaign, (wrapped(entry[0], calls),) + entry[1:])
            assert invoke(capsys, argv) == plain
            assert plain[0] == 0 and calls == [{"trials": 3, "seed": 4}]
            assert json.loads(plain[1])["trials"] == 3

    def test_help_follows_the_runners_signatures(self, capsys, monkeypatch):
        from hankelmp import cli

        def verify_other(trials=7, seed=0, max_n=6, max_p=2):
            raise AssertionError("not run")

        entry = (verify_other, inspect.signature(verify_other).parameters)
        monkeypatch.setitem(cli._CAMPAIGNS, "other", entry)
        cli._build_parser.cache_clear()
        try:
            code, out, _ = invoke(capsys, ["verify", "--help"])
        finally:
            monkeypatch.undo()
            cli._build_parser.cache_clear()
        assert code == 0
        help_text = " ".join(out.split())
        assert "number of trials, 1..10000 (default 7 or 200 by campaign)" in help_text
        assert "largest atom count, 1..32 (default 4 or 5 or 6 by campaign)" in help_text
        assert "largest p of det1 and det2 and other, 1..16 (default 2 or 3 by campaign)" in (
            help_text
        )
        code, out, _ = invoke(capsys, ["verify", "--help"])
        assert "(default 3)" in out and "other" not in out

    @pytest.mark.parametrize("campaign, trials, seed", [("det1", 4, 3), ("roundtrip", 3, 1)])
    def test_failing_campaign_exits_1_and_reports_every_trial(
        self, capsys, monkeypatch, campaign, trials, seed
    ):
        import hankelmp.identities as identities

        table = identities._moment_table

        def corrupted(atoms, weights, count):
            # The last moment plus one: N_{count-1} + V A^(count-1).
            nums, v, a = table(atoms, weights, count)
            return nums[:-1] + [nums[-1] + v * a ** (count - 1)], v, a

        monkeypatch.setattr(identities, "_moment_table", corrupted)
        argv = ["verify", campaign, "--trials", str(trials), "--seed", str(seed)]
        code, out, err = invoke(capsys, argv)
        assert code == 1
        assert err == f"verify {campaign}: {trials} failing trials\n"
        doc = json.loads(out)
        assert doc["ok"] is False and doc["failures"] == trials
        assert [record["trial"] for record in doc["failing"]] == list(range(trials))

    def test_unknown_campaign(self, capsys):
        code, out, err = invoke(capsys, ["verify", "nonsense"])
        assert code == 2 and out == ""


class TestDemo:
    def test_a4(self, capsys):
        code, out, _ = invoke(capsys, ["demo", "--a", "4"])
        doc = json.loads(out)
        assert code == 0
        assert doc["branch"] == "a >= 1"
        assert doc["classification"]["variant"] == "degenerate"
        assert doc["classification"]["n0"] == 2
        assert doc["measure"]["atoms"] == [{"exact": "-2"}, {"exact": "2"}]
        assert doc["measure"]["weights"] == ["1/4", "3/4"]

    def test_a_quarter(self, capsys):
        code, out, _ = invoke(capsys, ["demo", "--a", "1/4"])
        doc = json.loads(out)
        assert code == 0
        assert doc["branch"] == "0 <= a <= 1"
        assert doc["moments"][:5] == ["1", "1/4", "1/4", "1/16", "1/16"]
        assert doc["measure"]["atoms"] == [{"exact": "-1/2"}, {"exact": "1/2"}]
        assert doc["measure"]["weights"] == ["1/4", "3/4"]

    def test_a_one_collapses_to_single_atom(self, capsys):
        code, out, _ = invoke(capsys, ["demo", "--a", "1"])
        doc = json.loads(out)
        assert code == 0
        assert doc["classification"]["n0"] == 1
        assert doc["measure"]["atoms"] == [{"exact": "1"}]
        assert doc["measure"]["weights"] == ["1"]

    def test_irrational_branch(self, capsys):
        code, out, _ = invoke(capsys, ["demo", "--a", "2"])
        doc = json.loads(out)
        assert code == 0
        assert "interval" in doc["measure"]["atoms"][0]

    def test_negative_a_refused(self, capsys):
        code, out, err = invoke(capsys, ["demo", "--a", "-1"])
        assert code == 2 and out == "" and err != ""


class TestUsage:
    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["reconstruct", "{a4}", "--digits", "-3"], "--digits", "must be at least 1"),
            (["reconstruct", "{a4}", "--digits", "0"], "--digits", "must be at least 1"),
            (["reconstruct", "{a4}", "--digits", "4301"], "--digits", "must be at most 4300"),
            (["moments", "{a4}", "--count", "3", "--digits", "-3"], "--digits", "must be at least 1"),
            (["demo", "--a", "2", "--digits", "0"], "--digits", "must be at least 1"),
            (["moments", "{a4}", "--count", "0"], "--count", "must be at least 1"),
            (["moments", "{a4}", "--count", "10001"], "--count", "must be at most 10000"),
            (["extend", "{a4}", "--count", "-1"], "--count", "must be at least 0"),
            (["extend", "{a4}", "--count", "10001"], "--count", "must be at most 10000"),
            (["extend", "{a4}", "--count", "many"], "--count", "expected an integer"),
        ],
    )
    def test_out_of_range_flags_rejected(self, tmp_path, capsys, argv, flag, message):
        path = write_json(tmp_path, "a4.json", A4)
        code, out, err = invoke(capsys, [path if a == "{a4}" else a for a in argv])
        assert code == 2 and out == ""
        assert f"argument {flag}: {message}" in err

    @pytest.mark.parametrize(
        "value, text",
        [
            (F(1, 2), "0.500000000000000"),
            (F(5), "5.00000000000000"),
            (F(-2, 3), "-0.666666666666667"),
            (F(10**20, 3), "3.33333333333333E+19"),
            (F(1, 10**9), "1.00000000000000E-9"),
            (F(0), "0"),
        ],
    )
    def test_decimal_rendering_keeps_15_significant_digits(self, value, text):
        assert _decimal_str(value) == text

    def test_unknown_subcommand(self, capsys):
        code, out, err = invoke(capsys, ["frobnicate"])
        assert code == 2 and out == ""

    def test_no_arguments(self, capsys):
        code, out, err = invoke(capsys, [])
        assert code == 2

    def test_internal_value_error_is_a_domain_failure(self, tmp_path, capsys, monkeypatch):
        # Input errors are turned into exit 2 while parsing; a ValueError that
        # escapes a library call is not a usage error.
        def broken(window):
            raise ValueError("internal invariant failed")

        monkeypatch.setattr("hankelmp.cli.analyze", broken)
        path = write_json(tmp_path, "a4.json", A4)
        code, out, err = invoke(capsys, ["classify", path])
        assert (code, out, err) == (1, "", "hankelmp: internal invariant failed\n")

    def test_python_dash_m_prints_what_run_prints(self, tmp_path, capsys):
        import hankelmp

        path = write_json(tmp_path, "a4.json", A4)
        src = str(Path(hankelmp.__file__).parents[1])
        pythonpath = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        done = subprocess.run(
            [sys.executable, "-m", "hankelmp", "classify", path],
            capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        expected = invoke(capsys, ["classify", path])
        assert (done.returncode, done.stdout, done.stderr) == expected
        assert expected[0] == 0 and json.loads(expected[1])["n0"] == 2

    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        # As with ``extend w.json --count 3000 | head -c 100``: the report is
        # megabytes long and the reader closes the pipe after 100 bytes.
        import hankelmp

        window = ["1", "1/2", "1/3", "1/4", "1/5", "1/6", "57/400", "99/800", "2603/24000"]
        path = write_json(tmp_path, "w.json", window)
        src = str(Path(hankelmp.__file__).parents[1])
        pythonpath = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        with subprocess.Popen(
            [sys.executable, "-m", "hankelmp", "extend", path, "--count", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as child:
            head = child.stdout.read(100)
            child.stdout.close()
            err = child.stderr.read().decode()
            code = child.wait(timeout=60)
        assert head.startswith(b'{\n  "extension": [')
        assert "Traceback" not in err and err == ""
        assert code == 1

    def test_parser_is_built_once(self, tmp_path, capsys):
        from hankelmp.cli import _build_parser

        _build_parser.cache_clear()
        path = write_json(tmp_path, "a4.json", A4)
        code, out, _ = invoke(capsys, ["classify", path])
        assert code == 0 and json.loads(out)["n0"] == 2
        code, out, _ = invoke(capsys, ["extend", path, "--count", "2"])
        assert code == 0 and json.loads(out) == {"extension": ["16", "64"]}
        assert invoke(capsys, ["--help"])[0] == 0
        assert invoke(capsys, ["classify", path, "--bogus"])[0] == 2
        assert invoke(capsys, [])[0] == 2
        info = _build_parser.cache_info()
        assert info.misses == 1 and info.hits == 4

    def test_stdout_is_single_json_object(self, tmp_path, capsys):
        path = write_json(tmp_path, "a4.json", A4)
        for argv in (
            ["classify", path],
            ["determinants", path],
            ["reconstruct", path],
            ["extend", path, "--count", "1"],
            ["demo", "--a", "4"],
            ["verify", "det1", "--trials", "2"],
        ):
            code, out, err = invoke(capsys, argv)
            assert code == 0
            parsed = json.loads(out)  # raises if stdout is not one JSON document
            assert isinstance(parsed, dict)
