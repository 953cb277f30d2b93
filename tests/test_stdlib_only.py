"""The package imports nothing outside the standard library and itself."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hankelmp").glob("*.py"))


def test_sources_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_absolute_imports_are_stdlib_or_hankelmp(path):
    allowed = set(sys.stdlib_module_names) | {"hankelmp"}
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = sorted({name for name in imported if name.split(".")[0] not in allowed})
    assert outside == [], f"{path.name} imports {outside}"
