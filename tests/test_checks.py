"""Scans of the library source: correctness checks are explicit raises (an
assert statement would vanish under python -O), every error type is raised
somewhere and no builtin ValueError is, no call passes a `check=` switch,
binary powering and row elimination are each written once, fields are
compared by identity, scalar field arithmetic stays off the numpy tables,
and the quadratic Cayley table serves the tests only.  One guard runs the
library: the twisted orbits of an enumerated group make no matrix product."""

import ast
import pathlib

import pytest

from chevtwist import groups, twist
from chevtwist.auts import GroupAut
from chevtwist.gf import Fq

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert_statements():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _raised_names(tree):
    """Names of the classes raised in `tree`, as `raise X` or `raise X(...)`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
    return found


def test_every_error_type_is_raised():
    # an error type leaves with the mechanism that raised it
    errors = ast.parse((SRC / "chevtwist" / "errors.py").read_text())
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(
        _raised_names(ast.parse(path.read_text(), str(path))) for path in SRC.rglob("*.py")
    ))
    assert declared and not declared - raised, sorted(declared - raised)


def test_library_raises_no_builtin_value_error():
    # every refusal is a typed chevtwist.errors exception (each subclasses
    # ValueError, so `except ValueError` callers keep working)
    found = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "ValueError" in _raised_names(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def _check_keywords(tree):
    """Line of each call that passes a `check=` keyword."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(kw.arg == "check" for kw in node.keywords)
    ]


def test_library_passes_no_check_keyword():
    # membership is an invariant of GrpElem, with no switch to turn it off:
    # the constructor verifies, GrpElem._of trusts a derived member
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _check_keywords(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_check_keyword_scan_sees_a_keyword():
    tree = ast.parse("f(m, check=False)\ng(m, True)\nh(check)\nk(m, checked=1)")
    assert _check_keywords(tree) == [1]


def test_raise_scan_sees_both_forms():
    tree = ast.parse("raise A\nraise B('x')\nraise\nraise m.C()\nx = D()")
    assert _raised_names(tree) == {"A", "B"}


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


def _row_swaps(tree):
    """(function, line) of each `x[i], x[j] = x[j], x[i]` statement: a row
    swap marks the pivot step of an elimination."""
    return [
        (fn.name, node.lineno)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple)
        and len(node.targets[0].elts) == len(node.value.elts) == 2
        and all(isinstance(e, ast.Subscript) for e in node.targets[0].elts)
        and [ast.unparse(e) for e in node.targets[0].elts]
        == [ast.unparse(e) for e in reversed(node.value.elts)]
    ]


def test_library_has_one_elimination():
    # matrices._gauss_jordan is the one pivot loop: det, inverse and
    # nullspace call it, and both arithmetic modes (integer codes,
    # fraction-free polynomials) plug into it
    found = sorted(
        (str(path.relative_to(SRC)), name)
        for path in SRC.rglob("*.py")
        for name, _ in _row_swaps(ast.parse(path.read_text(), str(path)))
    )
    assert found == [("chevtwist/matrices.py", "_gauss_jordan")], found


def test_row_swap_scan_sees_a_swap():
    # the scan itself: a swap of two rows is found, a tuple assignment of
    # other values is not
    tree = ast.parse(
        "def f(a, i, j):\n    a[i], a[j] = a[j], a[i]\n"
        "def g(a, i, j):\n    a[i], a[j] = a[i], a[j]\n    x, y = y, x\n"
    )
    assert _row_swaps(tree) == [("f", 2)]


def _field_equalities(tree):
    """Line of each `==` / `!=` with a `.field` operand."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(isinstance(x, ast.Attribute) and x.attr == "field"
                for x in [node.left, *node.comparators])
    ]


def test_library_compares_fields_by_identity():
    # there is one Fq object per field, so fields are compared with `is`
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _field_equalities(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_field_equality_scan_sees_an_equality():
    tree = ast.parse(
        "a.field == b.field\nx != y.field\na.field is b.field\n"
        "a.field.one == b\nx == y"
    )
    assert _field_equalities(tree) == [1, 2]


NUMPY_TABLES = {"_mul_np"}


def test_numpy_tables_are_read_only_by_the_stack_kernels():
    # the numpy copy of the product table serves array indexing in groups;
    # a scalar lookup elsewhere would box every entry it reads
    found = sorted({
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_TABLES
        and isinstance(node.ctx, ast.Load)
    })
    assert found == ["chevtwist/groups.py"], found


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


@pytest.mark.parametrize("kind, q, parts", [
    (groups.GroupKind.sl(2), (3, 2), {"ring": 1}),
    (groups.GroupKind.psl(3), (3, 1), {"graph": "tinv"}),
    (groups.GroupKind.so_odd(2), (3, 1), {}),
], ids=["SL2_F9", "PSL3_F3", "SOodd5_F3"])
def test_twisted_orbits_of_a_cached_group_make_no_product(kind, q, parts, monkeypatch):
    # the actions are index arithmetic on the maps the enumeration keeps
    ctx = groups.GroupCtx(kind, Fq(*q))
    G = groups.enumerate_group(ctx)
    sigma = GroupAut(ctx, inner=G.elem(G.order // 2), **parts)
    calls = []
    product = groups.mat_mul

    def counted(*args):
        calls.append(args)
        return product(*args)

    for module in (groups, twist):
        monkeypatch.setattr(module, "mat_mul", counted)
    twist.twisted_orbits(ctx, sigma)
    assert calls == []
    groups.enumerate_group.__wrapped__(ctx)  # the counter sees an enumeration's products
    assert calls
