"""Every name a package module imports is used in that module.

``__init__.py`` is left out: it imports names only to re-export them.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logq"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(name bound, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names loaded anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [(line, name) for name, line in _imported(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {sorted(unused)}"


def test_detects_an_unused_import():
    tree = ast.parse("from .charring import LaurentPoly, weyl_char\nx: 'LaurentPoly'\n")
    unused = [name for name, _ in _imported(tree) if name not in _used(tree)]
    assert unused == ["weyl_char"]
