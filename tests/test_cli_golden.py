"""Replay a recorded corpus of CLI invocations and compare them byte for byte.

Each entry of ``data/cli_golden.json`` holds an argv, the JSON document that
``{file}`` in the argv names (or null), and the exit code, stdout and stderr
the CLI gave for it.  ``{file}`` also stands for the input path in stderr.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from hankelmp.cli import run

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
