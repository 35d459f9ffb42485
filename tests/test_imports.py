"""Static check: every imported name in the package and tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ospclock").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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
