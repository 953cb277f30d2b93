"""Every public name of the package resolves, so a deletion leaves no stale export."""
from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hankelmp

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(hankelmp.__path__) if name != "__main__"
)


def test_modules_found():
    assert {"cli", "errors", "exact", "hankel", "identities", "recovery"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"hankelmp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"hankelmp.{name}.__all__ names {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(hankelmp.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"hankelmp.{node.module}")
        exported = set(getattr(module, "__all__", ()))
        stray = [alias.name for alias in node.names if alias.name not in exported]
        assert stray == [], f"hankelmp imports {stray} from {node.module}, outside its __all__"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from hankelmp.{name} import *", namespace)
    assert set(getattr(importlib.import_module(f"hankelmp.{name}"), "__all__", ())) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_exported_classes_and_functions_are_the_packages_own(name):
    # A stdlib class re-exported here would become a package name; typing aliases
    # such as AtomValue and int constants such as MAX_DECIMAL_EXPONENT are not checked.
    module = importlib.import_module(f"hankelmp.{name}")
    foreign = [
        f"{attr} from {obj.__module__}"
        for attr in getattr(module, "__all__", ())
        if (inspect.isclass(obj := getattr(module, attr)) or inspect.isroutine(obj))
        and not obj.__module__.startswith("hankelmp")
    ]
    assert foreign == [], f"hankelmp.{name}.__all__ exports {foreign}"


def test_names_exported_twice_are_one_object():
    owners: dict[str, list[tuple[str, object]]] = {}
    for name in MODULES:
        module = importlib.import_module(f"hankelmp.{name}")
        for attr in getattr(module, "__all__", ()):
            owners.setdefault(attr, []).append((name, getattr(module, attr)))
    shared = {attr: found for attr, found in owners.items() if len(found) > 1}
    assert "RationalInterval" in shared
    for attr, found in shared.items():
        distinct = [name for name, obj in found if obj is not found[0][1]]
        assert distinct == [], f"{attr} in {found[0][0]} differs from {attr} in {distinct}"
        assert getattr(hankelmp, attr, found[0][1]) is found[0][1], f"hankelmp.{attr} differs"


def _references(tree: ast.AST, imports: bool) -> set[str]:
    """Names that ``tree`` reads, attributes it reads, and, if ``imports``, names it imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_exported_name_has_a_caller_or_is_documented():
    # Read from the AST, not the text: a docstring that names a function is no caller.
    src = Path(hankelmp.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in src.glob("*.py")
        if path.name != "__init__.py"
    }
    readme = (src.parents[1] / "README.md").read_text(encoding="utf-8")
    unused = []
    for name in MODULES:
        used = set()
        for other, tree in trees.items():
            used |= _references(tree, imports=other != name)
        for attr in importlib.import_module(f"hankelmp.{name}").__all__:
            if attr not in used and f"`{attr}" not in readme:
                unused.append(f"{name}.{attr}")
    assert unused == [], f"exported but never referenced in src/hankelmp nor named in README.md: {unused}"


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and assigned names, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_is_read():
    # A helper whose last caller was inlined or deleted must go with it.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(hankelmp.__file__).parent.glob("*.py")
    }
    used = set().union(*(_references(tree, imports=True) for tree in trees.values()))
    defined = [(stem, name) for stem, tree in trees.items() for name in _private_definitions(tree)]
    assert len(defined) > 50
    unread = [f"{stem}.{name}" for stem, name in defined if name not in used]
    assert unread == [], f"private names that nothing in src/hankelmp reads: {unread}"
