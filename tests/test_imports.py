"""No module of the package, and no test file, imports a name that
nothing reads.

A name a package module imports must be used in it, be listed in its
``__all__``, or be one that ``perfbench/layers.py`` wraps on that module
(its ``WRAPPED`` table), since the benchmark's traced run looks those
up there.  A name a test file imports must be used in it, a function
parameter of that name counting as a use: pytest hands an imported
fixture to a test by its parameter name.  Everything is read with
``ast``; nothing is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smoothip"
TESTS = ROOT / "tests"
LAYERS = ROOT / "perfbench" / "layers.py"


def wrapped_names() -> set:
    """(module, attribute) of every WRAPPED entry, the module by the name
    layers.py imports it under, which is its name in the package."""
    tree = ast.parse(LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return {
                (entry.elts[0].id, entry.elts[1].value)
                for entry in node.value.elts
            }
    raise AssertionError("layers.py has no WRAPPED table")


def imported_names(tree) -> dict:
    """name bound by an import -> line, __future__ imports left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def read_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_read():
    wrapped = wrapped_names()
    assert wrapped
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = read_names(tree)
        exported = exported_names(tree)
        for name, line in imported_names(tree).items():
            if (
                name not in used
                and name not in exported
                and (path.stem, name) not in wrapped
            ):
                unread.append(f"{path.name}:{line} {name}")
    assert unread == []


def test_every_name_a_test_file_imports_is_read():
    paths = sorted(TESTS.glob("*.py"))
    assert Path(__file__).resolve() in paths
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text())
        used = read_names(tree) | {
            node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)
        }
        for name, line in imported_names(tree).items():
            if name not in used:
                unread.append(f"{path.name}:{line} {name}")
    assert unread == []
