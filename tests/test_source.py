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


def _defaulted_parameters(tree) -> int:
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_defaulted_parameter_count_is_pinned():
    # each defaulted parameter is a switch production callers turn; one that only
    # tests turn, or nothing does, is deleted, so a new one moves this pin
    total = sum(_defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
                for path in SOURCES)
    assert total <= 5, f"{total} defaulted parameters in src/eqtor"


def test_every_export_exists():
    # a name left in __all__ after its object is deleted breaks `from eqtor import *`
    missing = [name for name in eqtor.__all__ if not hasattr(eqtor, name)]
    assert not missing
