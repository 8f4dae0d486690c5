"""Every module of ``dpris``, and every public function and class one
defines, states its contract in a docstring."""

import ast
from pathlib import Path

import pytest

import dpris

PACKAGE = Path(dpris.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_every_public_name_has_a_docstring(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    public = [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    missing = [
        getattr(node, "name", "the module")
        for node in [tree, *public]
        if not (ast.get_docstring(node) or "").strip()
    ]
    assert missing == []
