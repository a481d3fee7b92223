"""Correctness checks in the library are explicit raises: an assert
statement would vanish under python -O."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert_statements():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
