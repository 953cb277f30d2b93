"""End-to-end tests of the command-line interface and its file formats."""
from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

from hankelmp.cli import measure_to_doc, run
from hankelmp.recovery import reconstruct

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

    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, ["classify", "/nonexistent/nope.json"])
        assert code == 2 and out == "" and err != ""

    def test_huge_exponent_rejected_before_evaluation(self, tmp_path, capsys):
        # 10**100000000 would take seconds and tens of megabytes to build.
        path = write_json(tmp_path, "huge.json", ["1", "1e100000000", "1"])
        code, out, err = invoke(capsys, ["classify", path])
        assert code == 2 and out == "" and "exponent" in err

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
        assert F(doc["moments"][1]["lo"]) == F(99, 100)
        assert F(doc["moments"][1]["hi"]) == F(101, 100)

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
    def test_unknown_subcommand(self, capsys):
        code, out, err = invoke(capsys, ["frobnicate"])
        assert code == 2 and out == ""

    def test_no_arguments(self, capsys):
        code, out, err = invoke(capsys, [])
        assert code == 2

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
