"""Scans of the library source: correctness checks are explicit raises (an
assert statement would vanish under python -O), and binary powering is
written once."""

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



def _halvings(tree):
    """Line of each `k >>= 1`-style statement: an exponent halved in place
    marks a square-and-multiply loop."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)
    ]


def test_library_has_one_binary_power_loop():
    # gf.power is the one binary-power loop; every algebra type calls it
    found = [
        (str(path.relative_to(SRC)), line)
        for path in sorted(SRC.rglob("*.py"))
        for line in _halvings(ast.parse(path.read_text(), str(path)))
    ]
    gf = ast.parse((SRC / "chevtwist" / "gf.py").read_text())
    power = next(f for f in gf.body if isinstance(f, ast.FunctionDef) and f.name == "power")
    assert found == [("chevtwist/gf.py", line) for line in _halvings(power)] and len(found) == 1, found
