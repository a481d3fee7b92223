"""Scans of the library source: correctness checks are explicit raises (an
assert statement would vanish under python -O), binary powering is written
once, scalar field arithmetic stays off the numpy tables, and the quadratic
Cayley table serves the tests only."""

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


def test_library_builds_no_cayley_table():
    # the O(|G|^2) table is a test oracle; the library cross-checks counts
    # by the fixed conjugacy classes instead
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cayley"
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


NUMPY_TABLES = {"_mul_np", "_frob_np"}


def test_numpy_tables_are_read_only_by_the_stack_kernels():
    # the numpy copies of the field tables serve array indexing in groups
    # and twist; a scalar lookup there would box every entry it reads
    found = sorted({
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_TABLES
        and isinstance(node.ctx, ast.Load)
    })
    assert found == ["chevtwist/groups.py", "chevtwist/twist.py"], found


def test_scalar_arithmetic_indexes_no_numpy_table():
    # FqElem and Poly index the nested-list tables one level at a time: a
    # tuple index such as mul[a, b] is the numpy form
    found = []
    for name, cls in (("gf.py", "FqElem"), ("polyring.py", "Poly")):
        tree = ast.parse((SRC / "chevtwist" / name).read_text())
        body = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls)
        found += [
            f"{name}:{node.lineno}" for node in ast.walk(body)
            if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple))
            or (isinstance(node, ast.Attribute) and node.attr in NUMPY_TABLES)
        ]
    assert not found, found
