"""Every top-level import of a `src/modshift` module is used in that module.

A name counts as used when the module reads it anywhere, annotations
included (string annotations are parsed), or lists it in `__all__`.
`__init__.py` re-exports names and is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modshift"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _imported(tree):
    """{bound name: line} for the module's top-level imports, `__future__` aside."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            yield node.returns


def _used(tree):
    nodes = list(ast.walk(tree))
    for annotation in _annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            nodes.extend(ast.walk(ast.parse(annotation.value, mode="eval")))
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(elt.value for elt in node.value.elts)
    return used


def _unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_names_in_annotations_and_all():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .a import A, B, C, D\n"
        "__all__ = ['C']\n"
        "def f(x: 'A') -> np.ndarray:\n"
        "    y: B = 0\n"
        "    return y\n"
    )
    assert _unused_imports(source) == [(3, "D")]
