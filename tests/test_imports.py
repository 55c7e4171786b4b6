"""Every name a package module imports is used in that module, and every
private module-level name of the package is referenced somewhere in it.

``__init__.py`` is left out of the import check: it imports names only to
re-export them.  A private name that only tests or the benchmark use is
dead code in the package, so references from outside ``src/logq`` do not
count.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logq"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


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


def _private_definitions(tree):
    """(name, statement) for each module-level private function, class or
    assigned constant; dunder names are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node):
    """Names a statement refers to: plain names, attribute names and the
    names it imports from another module."""
    refs = _used(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _unreferenced(trees):
    """(module, name) for each private module-level name that no statement
    of the package refers to, apart from the one that defines it."""
    refs = [(node, _references(node)) for tree in trees.values() for node in tree.body]
    return [
        (module, name)
        for module, tree in trees.items()
        for name, definition in _private_definitions(tree)
        if not any(name in names for node, names in refs if node is not definition)
    ]


def test_no_unreferenced_private_names():
    unused = _unreferenced(TREES)
    assert not unused, f"private names nothing in the package refers to: {unused}"


def test_detects_an_unreferenced_private_name():
    trees = {
        "a.py": ast.parse(
            "_USED = 1\n_ALONE, _PAIRED = 2, 3\n"
            "def _recursive(n):\n    return _recursive(n - 1) + _USED\n"
            "class _Cls:\n    pass\n"
        ),
        "b.py": ast.parse("from . import a\nfrom .a import _PAIRED\nx = a._Cls\n"),
    }
    assert _unreferenced(trees) == [("a.py", "_ALONE"), ("a.py", "_recursive")]
