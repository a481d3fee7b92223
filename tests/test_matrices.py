"""The one product routine and the one Gauss-Jordan elimination behind det,
inverse and nullspace, over F_3, F_9, F_25, F_81 and fractions over F_3(t),
F_5(t) and F_9(t).  The elimination runs on the scalars' own operators.
Products over one field run on the integer codes, as does the adjugate
inverse up to size 3, and products over one field's fractions on
polynomial numerators; each is pinned here to dense references that do
the arithmetic with the scalars' own operators (the operator path), a
guard checks that these code and polynomial routines call no scalar
operator, and any other entries are refused.  A Mat over one field is its
code rows: chains of the coded operations match references on lists of
FqElem, and equal and hash as a Mat built from the same entries."""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevtwist.auts import GroupAut, b_swap
from chevtwist.errors import CertificateMismatch, MixedFields, Singular, SizeMismatch
from chevtwist import groups, matrices
from chevtwist.gf import Fq, FqElem
from chevtwist.groups import GroupCtx, GroupKind, codes_to_mat, enumerate_group, generators
from chevtwist.matrices import Mat, _exact, nullspace, one_like, zero_like
from chevtwist.polyring import Poly, RatFrac, parse_poly

F3 = Fq(3)
FIELDS = [F3, Fq(3, 2), Fq(5, 2), Fq(3, 4)]
DENOMS = [Poly(F3, [1]), Poly(F3, [0, 1]), Poly(F3, [1, 1])]

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _field_scalars(field):
    return st.integers(0, field.q - 1).map(field.from_code)


def _frac_scalars():
    """(a + b t) / d with d in {1, t, t+1}."""
    return st.builds(
        lambda a, b, d: RatFrac(Poly(F3, [a, b]), d),
        st.integers(0, 2), st.integers(0, 2), st.sampled_from(DENOMS),
    )


DOMAINS = [pytest.param(_field_scalars(f), 4, id=f"F{f.q}") for f in FIELDS] + [
    pytest.param(_frac_scalars(), 3, id="F3(t)")
]


def _square(scalars, max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(Mat)


def _identity_like(a):
    x = a[0, 0]
    return Mat.identity(a.nrows, one_like(x), zero_like(x))


@pytest.mark.parametrize("scalars, max_n", DOMAINS)
def test_det_is_multiplicative(scalars, max_n):
    @SETTINGS
    @given(st.data())
    def check(data):
        a = data.draw(_square(scalars, max_n))
        b = data.draw(
            st.lists(st.lists(scalars, min_size=a.nrows, max_size=a.nrows),
                     min_size=a.nrows, max_size=a.nrows).map(Mat)
        )
        assert (a * b).det() == a.det() * b.det()

    check()


@pytest.mark.parametrize("scalars, max_n", DOMAINS)
def test_inverse_or_singular(scalars, max_n):
    @SETTINGS
    @given(_square(scalars, max_n))
    def check(a):
        if not a.det():
            with pytest.raises(Singular):
                a.inverse()
            return
        inv = a.inverse()
        assert a * inv == _identity_like(a) == inv * a

    check()


@pytest.mark.parametrize("scalars, max_n", DOMAINS)
def test_singular_input_raises(scalars, max_n):
    # the last row is a multiple of the first (zero for 1 x 1)
    @SETTINGS
    @given(_square(scalars, max_n), scalars)
    def check(a, c):
        rows = [list(r) for r in a.rows]
        rows[-1] = [c * x for x in rows[0]] if len(rows) > 1 else [c - c]
        singular = Mat(rows)
        assert not singular.det()
        with pytest.raises(Singular):
            singular.inverse()

    check()


@pytest.mark.parametrize("scalars, max_n", DOMAINS)
def test_nullspace_basis(scalars, max_n):
    @SETTINGS
    @given(st.data())
    def check(data):
        m = data.draw(st.integers(1, max_n))
        n = data.draw(st.integers(1, max_n + 1))
        rows = data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        _check_kernel(rows, nullspace(rows))

    check()


def _dot(row, v):
    acc = zero_like(row[0])
    for x, y in zip(row, v):
        acc = acc + x * y
    return acc


def _check_kernel(rows, basis):
    """basis is the reduced basis of the right kernel of rows: every row
    kills every vector, there are n - rank of them, and each has a 1 in its
    free column and 0 in the others, free columns ascending."""
    m, n = len(rows), len(rows[0])
    zero = zero_like(rows[0][0])
    for v in basis:
        assert all(_dot(row, v) == zero for row in rows)
    # rank-nullity, the rank read off the left kernel
    rank = m - len(nullspace([list(c) for c in zip(*rows)]))
    assert rank + len(basis) == n
    previous = -1
    for i, v in enumerate(basis):
        free = [
            c for c in range(n) if c > previous and v[c] == one_like(v[c])
            and all(not w[c] for j, w in enumerate(basis) if j != i)
        ]
        assert free
        previous = free[0]


def test_mat_power_makes_the_binary_method_products(monkeypatch):
    # binary powering: floor(log2 k) squarings plus popcount(k) - 1
    # products, none with the identity and no square after the last bit
    F9 = FIELDS[1]
    w = F9.elem((0, 1))
    m = Mat([[w, F9.one], [F9.elem(2), w + 1]])
    calls = []
    plain = Mat.__mul__

    def counted(self, other):
        calls.append(other)
        return plain(self, other)

    monkeypatch.setattr(Mat, "__mul__", counted)
    for k in range(1, 17):
        calls.clear()
        m ** k
        assert len(calls) == (k.bit_length() - 1) + bin(k).count("1") - 1, k
    calls.clear()
    assert m ** 0 == Mat.identity(2, F9.one, F9.zero)
    assert not calls


# -- sparse inputs: products and elimination skip the zero terms, so check
# them against dense references that make every product

SPARSE_DOMAINS = [
    pytest.param(_field_scalars(FIELDS[1]), id="F9"),
    pytest.param(_frac_scalars(), id="F3(t)"),
]


def _dense_mul(a, b):
    return Mat([[_dot(row, col) for col in zip(*b.rows)] for row in a.rows])


def _dense_det(a):
    """Leibniz sum over all permutations."""
    n = a.nrows
    acc = zero_like(a[0, 0])
    for perm in itertools.permutations(range(n)):
        term = one_like(a[0, 0])
        for i, j in enumerate(perm):
            term = term * a[i, j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        acc = acc - term if inversions % 2 else acc + term
    return acc


def _dense_inverse(a):
    """Adjugate over the determinant, cofactors by _dense_det; the adjugate
    of a 1 x 1 matrix is 1."""
    n, det = a.nrows, _dense_det(a)
    if n == 1:
        return Mat([[one_like(det) / det]])

    def cofactor(i, j):
        minor = Mat([[a[r, c] for c in range(n) if c != j] for r in range(n) if r != i])
        value = _dense_det(minor)
        return -value if (i + j) % 2 else value

    return Mat([[cofactor(j, i) / det for j in range(n)] for i in range(n)])


def _sparsify(rows, blank):
    """Zero the row and column `blank` (if given), then more entries in
    reading order until at least half the entries are zero."""
    n = len(rows)
    zero = zero_like(rows[0][0])
    rows = [list(r) for r in rows]
    if blank is not None:
        for k in range(n):
            rows[blank][k] = rows[k][blank] = zero
    nonzero = [(i, j) for i in range(n) for j in range(n) if rows[i][j]]
    for i, j in nonzero[: max(0, len(nonzero) - n * n // 2)]:
        rows[i][j] = zero
    return Mat(rows)


@st.composite
def _sparse(draw, scalars, blank=True):
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    return _sparsify(rows, draw(st.integers(0, n - 1)) if blank else None)


@st.composite
def _sparse_invertible(draw, scalars):
    """A monomial matrix times a sparse unit upper triangular one, the
    product formed by the dense reference."""
    u = draw(_sparse(scalars, blank=False))
    n = u.nrows
    zero, one = zero_like(u[0, 0]), one_like(u[0, 0])
    rows = [[one if i == j else u[i, j] if j > i else zero for j in range(n)] for i in range(n)]
    filled = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
    for i, j in filled[: max(0, len(filled) + n - n * n // 2)]:
        rows[i][j] = zero
    upper = Mat(rows)
    perm = draw(st.permutations(range(n)))
    scale = draw(st.lists(scalars.filter(bool), min_size=n, max_size=n))
    monomial = Mat([[scale[i] if j == perm[i] else zero for j in range(n)] for i in range(n)])
    return _dense_mul(monomial, upper)


def _zeros(a):
    return sum(not x for row in a.rows for x in row)


@pytest.mark.parametrize("scalars", SPARSE_DOMAINS)
def test_sparse_product_matches_dense(scalars):
    @SETTINGS
    @given(st.data())
    def check(data):
        a = data.draw(_sparse(scalars))
        b = data.draw(_sparse(scalars).filter(lambda m: m.nrows == a.nrows))
        assert 2 * _zeros(a) >= a.nrows ** 2 and 2 * _zeros(b) >= b.nrows ** 2
        assert a * b == _dense_mul(a, b)
        assert b * a == _dense_mul(b, a)

    check()


@pytest.mark.parametrize("scalars", SPARSE_DOMAINS)
def test_sparse_det_matches_leibniz(scalars):
    @SETTINGS
    @given(_sparse(scalars), _sparse_invertible(scalars))
    def check(blank, invertible):
        # a zero row and column: determinant zero, no inverse
        assert blank.det() == _dense_det(blank) == zero_like(blank[0, 0])
        with pytest.raises(Singular):
            blank.inverse()
        assert invertible.det() == _dense_det(invertible)
        assert invertible.det()

    check()


@pytest.mark.parametrize("scalars", SPARSE_DOMAINS)
def test_sparse_inverse_matches_adjugate(scalars):
    @SETTINGS
    @given(_sparse_invertible(scalars))
    def check(a):
        assert 2 * _zeros(a) >= a.nrows ** 2
        inv = a.inverse()
        assert inv == _dense_inverse(a)
        assert _dense_mul(a, inv) == _identity_like(a)

    check()


# -- the code path: products and small inverses over one Fq object run on
# the integer codes

def _matrices(field, m, n, sparse):
    """m x n matrices over field; a sparse one draws zero for about half of
    its entries."""
    entries = _field_scalars(field)
    if sparse:
        entries = st.one_of(st.just(field.zero), entries)
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m).map(Mat)


def _over(field, m):
    return all(type(x) is FqElem and x.field is field for row in m.rows for x in row)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.q}")
def test_code_path_matches_dense_references(field):
    @SETTINGS
    @given(st.data())
    def check(data):
        m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
        sparse = data.draw(st.booleans())
        a = data.draw(_matrices(field, m, k, sparse))
        b = data.draw(_matrices(field, k, n, sparse))
        product = a * b
        assert product == _dense_mul(a, b) and _over(field, product)
        k = data.draw(st.integers(2, 4))  # the adjugate needs a minor
        sq = data.draw(_matrices(field, k, k, sparse))
        assert sq.det() == _dense_det(sq)
        if sq.det():
            inv = sq.inverse()
            assert inv == _dense_inverse(sq) and _over(field, inv)
        else:
            with pytest.raises(Singular):
                sq.inverse()
        # the last row a multiple of the first
        c = data.draw(_field_scalars(field))
        rows = [list(r) for r in sq.rows]
        rows[-1] = [c * x for x in rows[0]]
        singular = Mat(rows)
        assert singular.det() == _dense_det(singular) == field.zero
        with pytest.raises(Singular):
            singular.inverse()

    check()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.q}")
def test_code_path_matches_operator_path(field):
    # non-square factors, the kernel of a non-square matrix and the
    # det / inverse of their square product, against the dense references
    @SETTINGS
    @given(st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        sparse = data.draw(st.booleans())
        a = data.draw(_matrices(field, m, n, sparse))
        b = data.draw(_matrices(field, n, m, sparse))
        sq = a * b
        assert sq == _dense_mul(a, b) and _over(field, sq)
        basis = nullspace([list(r) for r in a.rows])
        assert all(type(x) is FqElem and x.field is field for v in basis for x in v)
        _check_kernel(a.rows, basis)
        assert sq.det() == _dense_det(sq)
        if sq.det():
            assert sq.inverse() == _dense_inverse(sq)
        else:
            with pytest.raises(Singular):
                sq.inverse()

    check()


def test_one_field_matrices_make_no_scalar_operator_call(monkeypatch):
    # a silent fallback to the FqElem operators fails here
    F9 = FIELDS[1]
    w = F9.elem((0, 1))
    a = Mat([[w, F9.one, F9.zero], [F9.elem(2), w + 1, w], [F9.zero, F9.one, w * w]])
    b = Mat([[F9.one, w], [w + 2, F9.zero], [F9.elem(2), w]])
    expected = (_dense_mul(a, b), _dense_inverse(a))

    def refuse(*args):
        raise AssertionError("an FqElem operator was called")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        monkeypatch.setattr(FqElem, name, refuse)
    assert (a * b, a.inverse()) == expected


def _refused_everywhere(rows, error):
    """*, det, inverse and nullspace of rows all raise error."""
    a = Mat(rows)
    with pytest.raises(error):
        a * a.transpose()
    with pytest.raises(error):
        a.det()
    with pytest.raises(error):
        a.inverse()
    with pytest.raises(error):
        nullspace(rows)


def test_mixed_fields_scalar_types_and_ints_are_refused():
    F5, x3 = Fq(5), RatFrac.t(F3)
    # two fields, within one matrix and across the factors
    _refused_everywhere([[F3.one, F5.one], [F5.elem(2), F3.one]], MixedFields)
    with pytest.raises(MixedFields):
        Mat([[F3.one, F3.one]]) * Mat([[F5.one], [F5.elem(2)]])
    # field elements beside fractions over the same field
    _refused_everywhere([[F3.one, x3], [x3, F3.elem(2)]], MixedFields)
    with pytest.raises(MixedFields):
        Mat([[F3.one, F3.one]]) * Mat([[x3], [x3]])
    with pytest.raises(MixedFields):
        Mat([[x3]]) * Mat([[F3.one]])
    # ints are no field scalars, alone or beside field elements
    _refused_everywhere([[1, 2], [3, 4]], TypeError)
    with pytest.raises(TypeError, match="unsupported scalar"):
        Mat([[F3.one, 1], [F3.one, F3.one]]).det()
    with pytest.raises(TypeError, match="unsupported scalar"):
        Mat([[F3.one]]) * Mat([[1]])


def test_enumerated_elements_meet_a_second_context_on_the_codes(monkeypatch):
    # enumerate_group caches its group by the context's value, so a second
    # context over Fq(3) gets elements of the first one's group; both run
    # on the codes of the one F_3 object, with no FqElem operator call
    first = GroupCtx(GroupKind.sl(2), Fq(3))
    elements = enumerate_group(first).elements()
    ctx = GroupCtx(GroupKind.sl(2), Fq(3))
    assert ctx.field is first.field
    gens = generators(ctx)

    def refuse(*args):
        raise AssertionError("an FqElem operator was called")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        monkeypatch.setattr(FqElem, name, refuse)
    identity = ctx.identity()
    for g in elements:
        for h in gens:
            gh = g * h
            assert gh * h.inverse() == g and h.inverse() * (h * g) == g
            assert gh.inverse() * gh == identity == g.inverse() * g


# -- the fraction path: products over one field's fractions run on
# polynomial numerators, each row cleared over its lcm denominator

FRAC_FIELDS = [F3, Fq(5), FIELDS[1]]
FRAC_DENOMS = ["1", "t", "t+1", "t^2", "t^2+1"]


def _fracs(field, sparse=False):
    """n / d with n of degree 2 or 3 (so that the pivots the elimination
    divides by are not units) and d in FRAC_DENOMS; a sparse
    draw is zero for about half of its entries."""
    codes = st.integers(0, field.q - 1)
    nums = st.builds(
        lambda tail, lead: Poly(field, tail + [lead]),
        st.lists(codes, min_size=2, max_size=3), st.integers(1, field.q - 1),
    )
    dens = st.sampled_from([parse_poly(field, d) for d in FRAC_DENOMS])
    fracs = st.builds(RatFrac, nums, dens)
    return st.one_of(st.just(RatFrac.zero(field)), fracs) if sparse else fracs


def _frac_matrices(field, m, n, sparse):
    row = st.lists(_fracs(field, sparse), min_size=n, max_size=n)
    return st.lists(row, min_size=m, max_size=m).map(Mat)


def _over_fracs(field, m):
    return all(type(x) is RatFrac and x.field is field for row in m.rows for x in row)


@pytest.mark.parametrize("field", FRAC_FIELDS, ids=lambda f: f"F{f.q}(t)")
def test_fraction_path_matches_dense_references(field):
    @SETTINGS
    @given(st.data())
    def check(data):
        m, k, n = (data.draw(st.integers(1, 3)) for _ in range(3))
        sparse = data.draw(st.booleans())
        a = data.draw(_frac_matrices(field, m, k, sparse))
        b = data.draw(_frac_matrices(field, k, n, sparse))
        product = a * b
        assert product == _dense_mul(a, b) and _over_fracs(field, product)
        x = data.draw(_fracs(field))
        one_by_one = Mat([[x]])
        assert one_by_one.det() == x
        assert one_by_one.inverse() == Mat([[RatFrac.one(field) / x]])
        k = data.draw(st.integers(2, 4))  # the adjugate needs a minor
        sq = data.draw(_frac_matrices(field, k, k, sparse))
        assert sq.det() == _dense_det(sq)
        if sq.det():
            inv = sq.inverse()
            assert inv == _dense_inverse(sq) and _over_fracs(field, inv)
        else:
            with pytest.raises(Singular):
                sq.inverse()
        # the last row a multiple of the first, then a zero row
        c = data.draw(_fracs(field))
        rows = [list(r) for r in sq.rows]
        rows[-1] = [c * x for x in rows[0]]
        for singular in (Mat(rows), Mat(rows[:-1] + [[RatFrac.zero(field)] * k])):
            assert singular.det() == _dense_det(singular) == RatFrac.zero(field)
            with pytest.raises(Singular):
                singular.inverse()

    check()


@pytest.mark.parametrize("field", FRAC_FIELDS, ids=lambda f: f"F{f.q}(t)")
def test_fraction_path_matches_operator_path(field):
    @SETTINGS
    @given(st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        sparse = data.draw(st.booleans())
        a = data.draw(_frac_matrices(field, m, n, sparse))
        b = data.draw(_frac_matrices(field, n, m, sparse))
        if data.draw(st.booleans()):  # a zero row
            a = Mat(a.rows[:-1] + ((RatFrac.zero(field),) * n,))
        sq = a * b
        assert sq == _dense_mul(a, b) and _over_fracs(field, sq)
        basis = nullspace([list(r) for r in a.rows])
        assert all(type(x) is RatFrac and x.field is field for v in basis for x in v)
        _check_kernel(a.rows, basis)
        assert sq.det() == _dense_det(sq)
        if sq.det():
            assert sq.inverse() == _dense_inverse(sq)
        else:
            with pytest.raises(Singular):
                sq.inverse()

    check()


def test_one_field_fractions_make_no_scalar_operator_call(monkeypatch):
    # a silent fallback to the RatFrac operators fails here
    F9 = FIELDS[1]
    t, w, zero = Poly.t(F9), Poly.const(F9, F9.elem((0, 1))), RatFrac.zero(F9)
    a = Mat([
        [RatFrac(t * t + w, t), RatFrac(t + 1), zero],
        [RatFrac(w * t * t, t * t + 1), RatFrac(t * t * t + 2, t + 1), RatFrac(t)],
        [zero, RatFrac(t * t + t, t * t), RatFrac(w, t + 1)],
    ])
    b = Mat([[RatFrac(t * t), RatFrac(w)], [RatFrac(t + w, t * t + 1), zero],
             [RatFrac(t * t + 2), RatFrac(t, t + 1)]])
    expected = _dense_mul(a, b)

    def refuse(*args):
        raise AssertionError("a RatFrac operator was called")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        monkeypatch.setattr(RatFrac, name, refuse)
    assert a * b == expected


def test_fraction_matrix_is_scanned_once(monkeypatch):
    # the first scan keeps the fraction mode in the code slot, and the
    # fraction product, transpose and inverse carry it: x^8 (three
    # squarings), its det and its inverse read the entries of x once
    t = Poly.t(F3)
    x = Mat([[RatFrac(t, t + 1), RatFrac(t + 2)], [RatFrac(Poly.one(F3), t), RatFrac(t * t)]])
    scans = []
    plain_scan = matrices._scan

    def scan(rows):
        scans.append(rows)
        return plain_scan(rows)

    monkeypatch.setattr(matrices, "_scan", scan)
    x8 = x ** 8
    assert scans == [x.rows]
    assert x8.det() and x8.inverse() * x8 == x8 * x8.inverse()
    assert scans == [x.rows]


def test_mixed_fraction_fields_raise():
    F5 = FRAC_FIELDS[1]
    x3, x5 = RatFrac.t(F3), RatFrac(Poly.t(F5), Poly.t(F5) + 1)
    with pytest.raises(MixedFields):
        Mat([[x3, x3]]) * Mat([[x5], [x5]])
    with pytest.raises(MixedFields):
        Mat([[x3, x5], [x5, x3]]).det()


def test_inexact_division_is_a_certificate_mismatch():
    t = Poly.t(F3)
    assert _exact(t * t + t, t + 1) == t
    with pytest.raises(CertificateMismatch):
        _exact(t * t + 1, t + 1)


def test_matrix_without_entries_is_refused():
    for rows in ([], [[]], [[], []]):
        with pytest.raises(SizeMismatch):
            Mat(rows)
    assert nullspace([]) == nullspace([[]]) == []


def test_matrix_sum_with_a_non_matrix_is_a_type_error():
    a = Mat([[Fq(3).one]])
    for other in (1, Fq(3).one, "1"):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
        with pytest.raises(TypeError):
            other + a
    assert a + a == Mat([[Fq(3).elem(2)]]) and (a - a).rows[0][0] == Fq(3).zero


# -- kept codes: a Mat over one field carries its code rows, filled by the
# code paths and by the first scan, and the small inverse is the adjugate

def _codes_of(m):
    return tuple(tuple(x.code for x in row) for row in m.rows)


def _coded(m):
    """m carries codes, and they are the codes of its entries."""
    return m._codes is not None and m._codes == _codes_of(m)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.q}")
def test_kept_codes_are_the_codes_of_the_entries(field):
    B = GroupAut(GroupCtx(GroupKind.so_even(3), field), graph="B")

    @SETTINGS
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        a = data.draw(_matrices(field, n, data.draw(st.integers(1, 4)), data.draw(st.booleans())))
        assert a._codes is None
        b = data.draw(_matrices(field, a.ncols, n, False))
        product = a * b
        # the first scan of each factor stored what it read
        assert _coded(a) and _coded(b) and _coded(product)
        sq = data.draw(_matrices(field, n, n, False))
        for m in (product ** data.draw(st.integers(1, 5)), product.transpose(), a.transpose()):
            assert _coded(m)
        lam = field.from_code(data.draw(st.integers(1, field.q - 1)))
        assert _coded(product * lam) and product * lam == Mat(product.rows) * lam
        assert _coded(lam * product) and lam * product == product * lam
        if sq.det():  # the first scan stored the codes
            assert _coded(sq)
            if n <= 3:  # the adjugate boxes with codes; Gauss-Jordan does not
                assert _coded(sq.inverse())
        arr = np.array(_codes_of(sq), dtype=np.uint8)
        assert _coded(codes_to_mat(field, arr)) and codes_to_mat(field, arr) == sq
        six = data.draw(_matrices(field, 6, 6, False))
        k = data.draw(st.integers(1, 3))
        frob = GroupAut(B.ctx, ring=k)
        for m in (B._apply_graph(six * six), frob._apply_ring(six), frob._apply_ring(six * six)):
            if m is not six:  # the Frobenius of F_p is the identity
                assert _coded(m)
        assert B._apply_graph(six) == Mat([[six[i, j] for j in b_swap(3)] for i in b_swap(3)])
        assert B._apply_graph(Mat(six.rows))._codes is None
        assert frob._apply_ring(six) == six.map(lambda x: x.frobenius(k))

    check()


def _gauss_jordan_inverse(a):
    """The inverse by row reduction with the scalars' own operators; None
    for a singular matrix."""
    n = a.nrows
    one, zero = one_like(a[0, 0]), zero_like(a[0, 0])
    rows = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(a.rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = one / rows[col][col]
        rows[col] = [scale * x for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return Mat([r[n:] for r in rows])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.q}")
def test_small_inverse_matches_gauss_jordan(field):
    sizes_and_sparsity = st.tuples(st.integers(1, 3), st.booleans())

    @SETTINGS
    @given(sizes_and_sparsity.flatmap(lambda ns: _matrices(field, ns[0], ns[0], ns[1])))
    def check(a):
        want = _gauss_jordan_inverse(a)
        if want is None:
            with pytest.raises(Singular):
                a.inverse()
        else:
            assert a.inverse() == want and _coded(a.inverse())

    check()


def test_coded_matrix_survives_copy_and_pickle():
    F9 = FIELDS[1]
    w = F9.elem((0, 1))
    a = Mat([[w, F9.one], [F9.elem(2), w * w]])
    a = a * a  # copied before its entries are boxed
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert _coded(b) and b == a and _coded(a) and b.rows[0][0].field is F9
        assert b * b == a * a and b.inverse() == a.inverse()


def test_coded_factors_over_two_fields_are_refused():
    F5 = Fq(5)
    a3 = Mat([[F3.one, F3.one], [F3.zero, F3.one]])
    a5 = Mat([[F5.one, F5.one], [F5.zero, F5.one]])
    coded3, coded5 = a3 * a3, a5 * a5  # equal codes, two fields
    assert coded3._codes == coded5._codes
    for left, right in ((coded3, coded5), (coded5, coded3),
                        (coded3, Mat(a5.rows)), (Mat(a5.rows), coded3)):
        with pytest.raises(MixedFields):
            left * right
    assert coded3 != coded5


# -- a Mat over one field is its code rows, boxed on first read: chains of
# the coded operations against entrywise references on lists of FqElem

# the formed kinds of dimension 4 to 6, for the form inverse; below that
# the small inverse serves
FORMED = {4: GroupKind.sp(2), 5: GroupKind.so_odd(2), 6: GroupKind.so_even(3)}
CHAIN_STEPS = ("product", "left product", "small inverse", "form inverse", "transpose",
               "permutation", "frobenius", "scalar", "left scalar")


def _ref_mul(a, b):
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _ref_codes(ref):
    return tuple(tuple(x.code for x in row) for row in ref)


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f"F{f.q}")
def test_coded_chains_match_entrywise_references(field):
    @SETTINGS
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 6))
        ctx = GroupCtx(FORMED[n], field) if n in FORMED else None
        frob = GroupAut(GroupCtx(GroupKind.sl(n), field), ring=data.draw(st.integers(1, 3)))
        scalars = _field_scalars(field)
        codes = st.lists(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n)

        def square():
            rows = data.draw(codes)
            return codes_to_mat(field, np.array(rows)), [[field.from_code(c) for c in r] for r in rows]

        m, ref = square()
        for step in data.draw(st.lists(st.sampled_from(CHAIN_STEPS), min_size=1, max_size=8)):
            if step in ("product", "left product"):
                x, xref = square()
                m, ref = (m * x, _ref_mul(ref, xref)) if step == "product" else (x * m, _ref_mul(xref, ref))
            elif step == "small inverse" and n <= 3:
                inv = _gauss_jordan_inverse(Mat(ref))
                if inv is not None:
                    m, ref = m.inverse(), inv.rows
            elif step == "form inverse" and ctx is not None:
                # a member h = x_r(a) x_s(b), inverted by the form
                r, s = (groups.root_element(ctx, data.draw(st.sampled_from(
                    groups.root_directions(ctx.kind))), data.draw(scalars.filter(bool)))
                    for _ in range(2))
                href = _ref_mul(r.mat.rows, s.mat.rows)
                m, ref = m * (r * s).inverse().mat, _ref_mul(ref, _gauss_jordan_inverse(Mat(href)).rows)
            elif step == "transpose":
                m, ref = m.transpose(), list(zip(*ref))
            elif step == "permutation":
                # B, extended by a fixed last coordinate for odd n, or any other
                b = b_swap(n // 2) + list(range(n // 2 * 2, n))
                perm = data.draw(st.one_of(st.just(b), st.permutations(range(n))))
                m, ref = m._permuted(perm), [[ref[i][j] for j in perm] for i in perm]
            elif step == "frobenius":
                k = frob.ring or 0
                m, ref = frob._apply_ring(m), [[x.frobenius(k) for x in r] for r in ref]
            elif step in ("scalar", "left scalar"):
                c = data.draw(scalars)
                if step == "scalar":
                    m, ref = m * c, [[x * c for x in r] for r in ref]
                else:
                    m, ref = c * m, [[c * x for x in r] for r in ref]
            assert m._codes == _ref_codes(ref)
        # a coded Mat and Mat(rows) with the same entries, in both orders,
        # then against the same entries once scanned
        plain, fresh = Mat(ref), codes_to_mat(field, np.array(_ref_codes(ref)))
        assert plain == fresh and hash(plain) == hash(fresh)
        assert m == plain and hash(m) == hash(plain) and str(m) == str(plain)
        plain._mode()
        assert plain == m == fresh == plain

    check()
