"""Scans of the library source: correctness checks are explicit raises (an
assert statement would vanish under python -O), every error type is raised
somewhere and no builtin ValueError is, no call passes a `check=` switch,
binary powering, row elimination, the breadth-first closure on code
stacks and the root pair x_a(u) x_-a(-u) are each written once, fields
are compared by identity, scalar field arithmetic stays off the numpy
tables, and the quadratic Cayley table serves the tests only, and only
a caller's matrix runs the membership test.  Guards that run the
library: the twisted orbits of an enumerated group make no matrix
product and build no generator, the generators (once their table of
root directions is checked for the kind and field) and the orthogonal
witnesses over a localization are built with no membership test and no
determinant, and the SL and Sp witnesses and the conjugator with no
membership test and no matrix inverse, a member of a formed kind is
inverted with no product and no elimination, and a chain of coded
operations boxes no entry until one is read (the code kernels read none)."""

import ast
import inspect
import pathlib

import pytest

from chevtwist import groups, matrices, twist, witness
from chevtwist.auts import GroupAut, b_swap
from chevtwist.gf import Fq
from chevtwist.matrices import Mat
from chevtwist.polyring import RatFrac, RingDesc

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _asserts(tree):
    """Line of each assert statement."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_library_has_no_assert_statements():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _asserts(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_assert_scan_sees_an_assert():
    tree = ast.parse("def f(x):\n    assert x, 'x'\n    return x\nassert_x = 1\nassert f(1)\n")
    assert _asserts(tree) == [2, 5]


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


def _sorted_inserts(tree):
    """(function, line) of each np.insert call: inserting into sorted
    keys marks the dedupe step of a breadth-first closure."""
    return [
        (fn.name, node.lineno)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "insert" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    ]


def test_library_has_one_closure():
    # groups.closure is the one orbit algorithm on code stacks: the
    # enumeration and the single-element twisted orbit both call it
    found = sorted(
        {(str(path.relative_to(SRC)), name)
         for path in SRC.rglob("*.py")
         for name, _ in _sorted_inserts(ast.parse(path.read_text(), str(path)))}
    )
    assert found == [("chevtwist/groups.py", "closure")], found


def test_sorted_insert_scan_sees_an_insert():
    tree = ast.parse("def f(a):\n    return np.insert(a, 0, 1)\ndef g(a):\n    a.insert(0, 1)\n")
    assert [name for name, _ in _sorted_inserts(tree)] == ["f"]


def _root_element_products(tree):
    """(function, line) of each `root_element(...) * root_element(...)`: a
    product of two root elements marks a root-pair witness."""
    def is_root_element(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "root_element")

    return [
        (fn.name, node.lineno)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and is_root_element(node.left) and is_root_element(node.right)
    ]


def test_library_has_one_root_pair():
    # witness._root_pair is the one x_a(u) x_-a(-u): x_m, y_m and the
    # direct side of the trace certificate all call it
    found = sorted(
        (str(path.relative_to(SRC)), name)
        for path in SRC.rglob("*.py")
        for name, _ in _root_element_products(ast.parse(path.read_text(), str(path)))
    )
    assert found == [("chevtwist/witness.py", "_root_pair")], found


def test_root_element_product_scan_sees_a_product():
    tree = ast.parse("def f(c, r, u):\n    return root_element(c, r, u) * root_element(c, r, -u)\n"
                     "def g(c, r, u):\n    return root_element(c, r, u) * u\n")
    assert [name for name, _ in _root_element_products(tree)] == ["f"]


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
    # nullspace call it, and it runs on the scalars' own operators, with
    # no arithmetic mode to choose
    found = sorted(
        (str(path.relative_to(SRC)), name)
        for path in SRC.rglob("*.py")
        for name, _ in _row_swaps(ast.parse(path.read_text(), str(path)))
    )
    assert found == [("chevtwist/matrices.py", "_gauss_jordan")], found
    assert list(inspect.signature(matrices._gauss_jordan).parameters) == ["a", "ncols"]


def _boxed(m):
    """Whether the rows slot of m is set, read past __getattr__."""
    try:
        Mat.rows.__get__(m)
    except AttributeError:
        return False
    return True


def test_coded_matrices_box_on_first_read():
    # ten coded operations over F_9 make no FqElem entries, and neither do
    # ==, nrows and ncols; str() and a read of .rows box one matrix each
    ctx = groups.GroupCtx(groups.GroupKind.sp(2), Fq(3, 2))
    field, c = ctx.field, ctx.field.elem((1, 1))
    start = groups.codes_to_mat(field, groups.mat_to_codes(groups.generators(ctx)[5].mat))
    g = groups.GrpElem._of(ctx, start)
    chain = [start, (g * g).mat]  # a product
    chain.append(groups.GrpElem._of(ctx, chain[-1]).inverse().mat)  # the form inverse
    chain.append(chain[-1].transpose())
    chain.append(chain[-1]._permuted(b_swap(2)))  # the B image
    chain.append(GroupAut(ctx, ring=1)._apply_ring(chain[-1]))  # Frobenius
    chain.append(c * chain[-1])
    chain.append(chain[-1] * c)
    chain.append(groups.codes_to_mat(field, groups.mat_to_codes(chain[-1])))
    square = Mat([[c, field.one], [field.zero, c]]) * Mat([[c, c], [field.one, field.zero]])
    chain += [square, square.inverse()]  # the small inverse
    assert chain[-1] * square == chain[-2] * chain[-1] and chain[-3] == chain[-4]
    assert (chain[-3].nrows, chain[-3].ncols, square.nrows, square.ncols) == (4, 4, 2, 2)
    assert not any(_boxed(m) for m in chain)
    text, rows = str(chain[-3]), chain[-1].rows
    assert _boxed(chain[-3]) and _boxed(chain[-1]) and chain[-1].rows is rows
    assert text == ";".join(",".join(str(x) for x in row) for row in chain[-3].rows)
    assert not any(_boxed(m) for m in chain[:-3] + chain[-2:-1])


def _entry_reads(tree, names):
    """(function, attribute) of each .rows or ._elem read in the functions
    of `tree` with these names."""
    return [
        (fn.name, node.attr)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in names
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in ("rows", "_elem")
    ]


CODE_KERNELS = ("_code_product", "_small_inverse", "_map_codes")


def test_code_kernels_read_no_entries():
    tree = ast.parse(pathlib.Path(matrices.__file__).read_text())
    assert {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)} >= set(CODE_KERNELS)
    assert _entry_reads(tree, CODE_KERNELS) == []


def test_entry_read_scan_sees_a_read():
    tree = ast.parse("def _map_codes(t, m):\n    return m.rows, t._elem\n"
                     "def other(m):\n    return m.rows\n")
    assert _entry_reads(tree, CODE_KERNELS) == [("_map_codes", "rows"), ("_map_codes", "_elem")]


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


def _callers(tree, callee):
    """Qualified name (Class.method) of the function around each call of
    the bare name `callee`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == callee:
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_a_callers_matrix_runs_the_membership_test():
    # GroupCtx.elem is the one door for a matrix from a caller; every
    # element the library builds itself is certified by its structure (root
    # elements, the conjugator's torus element) or derived from members;
    # intertwiners tests the candidates of its solution space
    found = {
        callee: sorted(
            (str(path.relative_to(SRC)), scope)
            for path in SRC.rglob("*.py")
            for scope in _callers(ast.parse(path.read_text(), str(path)), callee)
        )
        for callee in ("GrpElem", "is_member")
    }
    assert found == {
        "GrpElem": [("chevtwist/groups.py", "GroupCtx.elem")],
        "is_member": [("chevtwist/groups.py", "GrpElem.__init__"), ("chevtwist/groups.py", "intertwiners")],
    }, found


def test_caller_scan_sees_calls_by_scope():
    tree = ast.parse(
        "f(1)\nclass A:\n    def m(self):\n        return g(f(2))\n"
        "def h():\n    x.f(3)\n    return 'f(4)'\n"
    )
    assert _callers(tree, "f") == ["", "A.m"]


def _count_calls(monkeypatch, targets):
    """Patch each (owner, name) in targets to count its calls; returns the
    counts by name."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for owner, name in targets:
        real = getattr(owner, name)

        def call(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, call)
    return calls


@pytest.mark.parametrize("kind, q, parts", [
    (groups.GroupKind.sl(2), (3, 2), {"ring": 1}),
    (groups.GroupKind.psl(3), (3, 1), {"graph": "tinv"}),
    (groups.GroupKind.so_odd(2), (3, 1), {}),
], ids=["SL2_F9", "PSL3_F3", "SOodd5_F3"])
def test_twisted_orbits_of_a_cached_group_make_no_product(kind, q, parts, monkeypatch):
    # the actions are index arithmetic on the maps the enumeration keeps,
    # and the basis root elements are read off the group
    ctx = groups.GroupCtx(kind, Fq(*q))
    G = groups.enumerate_group(ctx)
    sigma = GroupAut(ctx, inner=G.elem(G.order // 2), **parts)
    calls = {"mat_mul": [], "generators": []}

    def counted(name):
        real = getattr(groups, name)

        def call(*args):
            calls[name].append(args)
            return real(*args)
        return call

    for name in calls:
        for module in (groups, twist):
            monkeypatch.setattr(module, name, counted(name))
    twist.twisted_orbits(ctx, sigma)
    assert calls == {"mat_mul": [], "generators": []}
    groups.enumerate_group.__wrapped__(ctx)  # the counters see an enumeration's work
    assert calls["mat_mul"] and len(calls["generators"]) == 1


@pytest.mark.parametrize("kind, n", [("SOodd", 2), ("SOeven", 3)])
def test_orthogonal_witnesses_test_no_membership_and_take_no_determinant(kind, n, monkeypatch):
    # x_lambda = I + lambda X is a member for every lambda in R by the
    # identities on X, checked once per kind and field; a call tests only
    # that lambda lies in R
    F3 = Fq(3)
    ring = RingDesc(F3, ["t"])
    t = RatFrac.t(F3)
    lam = (t + 1) ** 2 / t
    g = witness.explicit_conjugator(lam, t, kind, n, ring)  # the first call checks X and J
    is_member = groups.is_member
    calls = _count_calls(monkeypatch, [(groups, "is_member"), (Mat, "det")])
    x = witness.witness_so(lam, kind, n, ring)
    assert witness.power_identity_check(lam, 3, kind, n, ring)
    assert witness.block_constraint_check(g, t * t * lam, lam)
    assert not witness.block_constraint_check(g, lam, lam)
    assert calls == {"is_member": 0, "det": 0}
    assert is_member(x.ctx, x.mat)


@pytest.mark.parametrize("kind, q", [
    (groups.GroupKind.sl(3), (3, 2)),
    (groups.GroupKind.psp(2), (5, 1)),
    (groups.GroupKind.so_odd(2), (3, 1)),
    (groups.GroupKind.pso_even(3), (7, 1)),
], ids=["SL3_F9", "PSp4_F5", "SOodd5_F3", "PSOeven6_F7"])
def test_generators_test_no_membership_and_take_no_determinant(kind, q, monkeypatch):
    # each x_r(a) = exp(a X_r) is a member by the table's check on X_r,
    # made by the first call per kind and field
    ctx = groups.GroupCtx(kind, Fq(*q))
    first = groups.generators(ctx)
    is_member = groups.is_member
    calls = _count_calls(monkeypatch, [(groups, "is_member"), (Mat, "det")])
    assert groups.generators(ctx) == first
    assert calls == {"is_member": 0, "det": 0}
    assert all(is_member(ctx, g.mat) for g in first)


@pytest.mark.parametrize("kind, n", [("SOodd", 2), ("SOeven", 3)])
def test_conjugator_tests_no_membership(kind, n, monkeypatch):
    # diag(c, c, 1, ..., 1/c, 1/c, 1, ...) is diag(D, D^-T[, 1]) with D
    # invertible over R, so it preserves J with det 1 once c is a unit,
    # which the call tests
    F5 = Fq(5)
    ring = RingDesc(F5, ["t"])
    t = RatFrac.t(F5)
    is_member = groups.is_member
    calls = _count_calls(monkeypatch, [(groups, "is_member"), (Mat, "inverse")])
    g = witness.explicit_conjugator((t + 1) ** 2 / t, 2 * t, kind, n, ring)
    assert calls == {"is_member": 0, "inverse": 0}
    assert is_member(g.ctx, g.mat)


def _inverse_calls(members, monkeypatch):
    """The calls that inverting each of members makes to Mat.__mul__,
    Mat.inverse and the two product kernels; each inverse is then checked
    against its member."""
    calls = _count_calls(monkeypatch, [
        (Mat, "__mul__"), (Mat, "inverse"), (matrices, "_code_product"), (matrices, "_frac_product"),
    ])
    inverses = [g.inverse() for g in members]
    calls = dict(calls)
    assert all(g * h == g.ctx.identity() == h * g for g, h in zip(members, inverses))
    return calls


@pytest.mark.parametrize("kind", [
    groups.GroupKind.sp(2), groups.GroupKind.psp(2), groups.GroupKind.so_odd(2),
    groups.GroupKind.so_even(3), groups.GroupKind.pso_even(3),
], ids=repr)
def test_form_inverses_make_no_product(kind, monkeypatch):
    # J^-1 g^T J is a signed permutation of g^T; a projective kind then
    # takes the coset representative, which may scale by a central scalar
    # (a Mat.__mul__ by a scalar, through one table row, but no product)
    ctx = groups.GroupCtx(kind, Fq(3))
    gens = groups.generators(ctx)
    members = gens + [g * h * k for g, h, k in zip(gens, gens[1:], gens[2:])]
    calls = _inverse_calls(members, monkeypatch)
    scalings = calls.pop("__mul__")
    assert scalings == 0 or kind.projective and scalings <= len(members)
    assert calls == {"inverse": 0, "_code_product": 0, "_frac_product": 0}


def test_form_inverses_over_a_localization_make_no_product(monkeypatch):
    F3 = Fq(3)
    ring = RingDesc(F3, ["t"])
    t = RatFrac.t(F3)
    cfg = witness.WitnessConfig(ring=ring, s=t + 1 + t.inverse(), family=witness.FAMILY_SP, n=2)
    members = [witness.witness_sp(m, cfg, 2) for m in (1, 2)]
    for lam in (t, (t + 1) ** 2 / t):
        members += [witness.witness_so(lam, "SOodd", 2, ring), witness.witness_so(lam, "SOeven", 3, ring)]
    calls = _inverse_calls(members, monkeypatch)
    assert calls == {"__mul__": 0, "inverse": 0, "_code_product": 0, "_frac_product": 0}


def test_sl_and_sp_witnesses_test_no_membership_and_invert_no_matrix(monkeypatch):
    # x_m and y_m are products of two root elements each
    F5 = Fq(5)
    ring = RingDesc(F5, ["t"])
    t = RatFrac.t(F5)
    cfg = witness.WitnessConfig(ring=ring, s=(t + 2) ** 2 / t, family=witness.FAMILY_SP, n=3)
    is_member = groups.is_member
    calls = _count_calls(monkeypatch, [(groups, "is_member"), (Mat, "inverse")])
    x = witness.witness_sl(2, cfg, 3)
    y = witness.witness_sp(2, cfg, 3)
    assert calls == {"is_member": 0, "inverse": 0}
    assert is_member(x.ctx, x.mat) and is_member(y.ctx, y.mat)
