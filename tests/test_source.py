"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import eqtor

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "eqtor").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a guard written as one vanishes
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}"


def test_every_export_exists():
    # a name left in __all__ after its object is deleted breaks `from eqtor import *`
    missing = [name for name in eqtor.__all__ if not hasattr(eqtor, name)]
    assert not missing
