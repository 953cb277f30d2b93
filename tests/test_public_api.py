"""Every public name of the package resolves, so a deletion leaves no stale export."""
from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
import re
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


def test_every_package_export_is_on_the_readme_public_api_list():
    # Stricter than the test above: an internal caller does not keep a name
    # public, only its line in the README's "Public API" list does.
    init = Path(hankelmp.__file__)
    exported = [
        alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(exported) >= 40
    readme = (init.parents[2] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Za-z_]\w*)", section))
    missing = [name for name in exported if name not in listed]
    assert missing == [], f"exported but not on the README's Public API list: {missing}"


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


def _public_members(cls: type) -> list[str]:
    """The methods and (cached) properties that ``cls`` defines itself, underscored names aside."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


def test_every_public_method_of_an_exported_class_has_a_caller_or_is_documented():
    src = Path(hankelmp.__file__).parent
    used = set().union(
        *(_references(ast.parse(path.read_text(encoding="utf-8")), imports=False)
          for path in src.glob("*.py"))
    )
    readme = (src.parents[1] / "README.md").read_text(encoding="utf-8")
    members = []
    for name in MODULES:
        module = importlib.import_module(f"hankelmp.{name}")
        for attr in module.__all__:
            cls = getattr(module, attr)
            # A class exported by two modules is checked once, in its own.
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                members += [(f"{name}.{attr}", member) for member in _public_members(cls)]
    assert len(members) > 10
    unused = [
        f"{owner}.{member}"
        for owner, member in members
        if member not in used and f"`{member}" not in readme and f".{member}" not in readme
    ]
    assert unused == [], f"public methods never read in src/hankelmp nor named in README.md: {unused}"


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    readme = (Path(hankelmp.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 7
    for text, comment in zip(printed, comments):
        # A comment may go on after the value, as in "x^2 - 4, whose roots are the atoms".
        assert comment == text or comment.startswith(text + ", ")


def _integer_parameter_calls():
    """Each public integer parameter, as (function, parameter, call, expectations).

    ``call(value)`` passes value to that parameter and valid arguments to the
    rest.  Each expectation maps one of True, 2.5 and -1 to the error and the
    message that it raises: a bool is not an integer anywhere in the package.
    """
    from fractions import Fraction

    from hankelmp import (
        DiscreteMeasure,
        IsolatingInterval,
        OutOfWindow,
        RationalPoly,
        extend,
        hankel_matrix,
        measure_moments,
        reconstruct,
        refine_root,
        verify_det1,
        verify_det2,
        verify_psd_theorem,
        verify_roundtrip,
    )

    def every(error, message):
        return {value: (error, message) for value in (True, 2.5, -1)}

    root = IsolatingInterval(Fraction(1), Fraction(2), RationalPoly([-2, 0, 1]))
    point = DiscreteMeasure((Fraction(1),), (Fraction(1),))
    digits = every(ValueError, r"^digits must be an integer in 1\.\.4300$")
    rows = [
        (refine_root, "digits", lambda v: refine_root(root, v),
         every(ValueError, "^digits must be a positive integer$")),
        (hankel_matrix, "n", lambda v: hankel_matrix([1, 0, 1], v),
         {True: (ValueError, "^n must be an integer$"), 2.5: (ValueError, "^n must be an integer$"),
          -1: (OutOfWindow, r"^H_-1 needs s_0\.\.s_-2 but the window ends at s_2$")}),
        (reconstruct, "digits", lambda v: reconstruct([1, 1, 1], v), digits),
        (extend, "count", lambda v: extend([1, 1, 1], v),
         every(ValueError, "^count must be a nonnegative integer$")),
        (measure_moments, "count", lambda v: measure_moments(point, v),
         every(ValueError, "^count must be an integer of at least 1$")),
        (measure_moments, "digits", lambda v: measure_moments(point, 3, v), digits),
    ]
    for campaign in (verify_det1, verify_det2, verify_roundtrip, verify_psd_theorem):
        for name in inspect.signature(campaign).parameters:
            check = (every(ValueError, r"^seed must be an integer in 0\.\.2\^64 - 1$") if name == "seed"
                     else every(ValueError, f"^{name} must be an integer of at least 1$"))
            rows.append((campaign, name, functools.partial(lambda f, n, v: f(**{n: v}), campaign, name),
                         check))
    return rows


INTEGER_PARAMETERS = _integer_parameter_calls()


@pytest.mark.parametrize(
    "call, expected",
    [(call, expected) for _, _, call, expected in INTEGER_PARAMETERS],
    ids=[f"{function.__name__}-{name}" for function, name, _, _ in INTEGER_PARAMETERS],
)
def test_integer_parameters_refuse_bools_fractions_and_negatives(call, expected):
    for value, (error, message) in expected.items():
        with pytest.raises(error, match=message):
            call(value)


def test_the_integer_parameter_table_covers_every_public_function():
    # The functions that hankelmp imports from its submodules' __all__; the
    # exported classes are records, errors or the campaigns' generator.
    tree = ast.parse(Path(hankelmp.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    integer = {
        (name, parameter)
        for name in names
        if inspect.isfunction(function := getattr(hankelmp, name))
        for parameter, spec in inspect.signature(function).parameters.items()
        if re.search(r"\bint\b", str(spec.annotation))
    }
    assert len(integer) >= 19
    assert integer == {(function.__name__, name) for function, name, _, _ in INTEGER_PARAMETERS}


def _text_argument_calls():
    """(label, call, message) for every entry that reads a window, polynomial or measure."""
    from fractions import Fraction

    from hankelmp import (
        DiscreteMeasure,
        MomentWindow,
        RationalInterval,
        RationalPoly,
        analyze,
        classify,
        det_sequence,
        extend,
        hankel_matrix,
        reconstruct,
    )

    def window(kind):
        return f"^moments must be an iterable of rationals, not {kind}$"

    return [
        ("classify", lambda: classify("11"), window("str")),
        ("analyze", lambda: analyze("11"), window("str")),
        ("det_sequence", lambda: det_sequence("121"), window("str")),
        ("hankel_matrix", lambda: hankel_matrix("121", 1), window("str")),
        ("reconstruct", lambda: reconstruct("111"), window("str")),
        ("extend", lambda: extend("111", 2), window("str")),
        ("MomentWindow-bytes", lambda: MomentWindow(b"12"), window("bytes")),
        ("MomentWindow-bytearray", lambda: MomentWindow(bytearray(b"12")), window("bytearray")),
        ("RationalPoly", lambda: RationalPoly("123"),
         "^coeffs must be an iterable of rationals, not str$"),
        ("RationalPoly-bytes", lambda: RationalPoly(b"1"),
         "^coeffs must be an iterable of rationals, not bytes$"),
        ("DiscreteMeasure-atom", lambda: DiscreteMeasure(("1",), ("2",)),
         "^atoms must be ints, Fractions or IsolatingIntervals, not str$"),
        ("DiscreteMeasure-weight", lambda: DiscreteMeasure((1,), ("2",)),
         "^weights must be ints, Fractions or RationalIntervals, not str$"),
        ("DiscreteMeasure-text", lambda: DiscreteMeasure("12", "34"),
         "^atoms must be an iterable of rationals, not str$"),
        ("DiscreteMeasure-float", lambda: DiscreteMeasure((1,), (0.5,)),
         "^weights must be ints, Fractions or RationalIntervals, not float$"),
        ("DiscreteMeasure-bytes", lambda: DiscreteMeasure(b"1", b"2"),
         "^atoms must be an iterable of rationals, not bytes$"),
        # An atom interval must isolate a root of a polynomial that refinement reads.
        ("DiscreteMeasure-interval-atom",
         lambda: DiscreteMeasure((RationalInterval(Fraction(0), Fraction(1)),), (1,)),
         "^atoms must be ints, Fractions or IsolatingIntervals, not RationalInterval$"),
    ]


TEXT_ARGUMENTS = _text_argument_calls()


@pytest.mark.parametrize(
    "call, message", [(call, message) for _, call, message in TEXT_ARGUMENTS],
    ids=[label for label, _, _ in TEXT_ARGUMENTS],
)
def test_a_string_is_not_read_as_a_window_polynomial_or_measure(call, message):
    # Iterated one character at a time, "11" would be the window [1, 1].
    with pytest.raises(ValueError, match=message):
        call()
