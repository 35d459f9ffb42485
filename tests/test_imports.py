"""Static checks: every imported name in the package and tests is used,
and every module-level function and class of the package is named
somewhere besides its definition."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ospclock").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a ``Name`` node, as the
    root of an attribute chain, or in ``__all__``.  ``__future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import Callable, Optional\n"
        "x: Optional[int] = json.loads('1')\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Callable")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source: str) -> set:
    """Every name a module reads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions(package: dict, sources: list) -> list:
    """Module-level functions and classes of ``package`` (module name to
    source) that no module of ``package`` or ``sources`` names."""
    used = set()
    for source in list(package.values()) + sources:
        used |= referenced_names(source)
    return sorted(
        (module, node.name)
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    )


def test_unreferenced_definition_detector():
    package = {"m": "def used():\n    pass\ndef dead():\n    pass\nclass K:\n    pass\n"}
    assert unreferenced_definitions(package, ["used()\nx.K\n"]) == [("m", "dead")]


def test_no_unreferenced_definitions():
    package = {path.stem: path.read_text() for path in PACKAGE}
    others = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert unreferenced_definitions(package, [p.read_text() for p in others]) == []
