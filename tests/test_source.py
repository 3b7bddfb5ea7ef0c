"""Checks on the library source itself."""

import ast
from pathlib import Path

import permdeg

SOURCES = sorted(Path(permdeg.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert, so invariants must be raised errors
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
