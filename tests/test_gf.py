"""Finite field arithmetic, Frobenius maps, enumeration, text form."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevtwist.errors import MixedFields, NotPrime, Unsupported
from chevtwist.gf import Fq


def test_prime_field_modulus_is_t():
    F = Fq(3, 1)
    assert F.modulus == (0, 1)


def test_f9_modulus_least_irreducible():
    # exhaustive oracle: first monic quadratic over F_3 without a root,
    # scanning constant term up
    oracle = None
    for c0, c1 in itertools.product(range(3), repeat=2):
        if all((x * x + c1 * x + c0) % 3 for x in range(3)):
            oracle = (c0, c1, 1)
            break
    assert oracle == (1, 0, 1)  # t^2 + 1
    assert Fq(3, 2).modulus == oracle


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrime):
        Fq(4, 1)


def test_cap_and_degree_limits():
    with pytest.raises(Unsupported):
        Fq(3, 5)
    with pytest.raises(Unsupported):
        Fq(101, 1)
    Fq(3, 4)  # q = 81 sits exactly at the default cap


def test_fields_beyond_uint8_codes_refused():
    # codes are uint8, so q <= 255 whatever the cap
    for p, e in [(257, 1), (17, 2)]:
        with pytest.raises(Unsupported, match="255"):
            Fq(p, e, cap=300)
    assert Fq(251, 1, cap=300).q == 251


def test_f9_square_of_generator():
    F = Fq(3, 2)
    i = F.elem((0, 1))  # class of t, i^2 = -1
    assert i * i == F.elem(2)
    assert i * i == -F.one


def test_identities_and_division():
    for p, e in [(3, 1), (3, 2), (5, 1)]:
        F = Fq(p, e)
        for x in F.elements():
            assert x + F.zero == x
            if x:
                assert x / x == F.one
                assert x * x.inverse() == F.one


def test_division_by_zero():
    F = Fq(3, 2)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_mixed_fields_rejected():
    a = Fq(3, 1).one
    b = Fq(5, 1).one
    with pytest.raises(MixedFields):
        a + b


def test_frobenius_fixes_prime_field():
    F = Fq(3, 1)
    for x in F.elements():
        for k in range(4):
            assert x.frobenius(k) == x


def test_frobenius_on_f9_generator():
    F = Fq(3, 2)
    i = F.elem((0, 1))
    assert i.frobenius(1) == -i  # i^3 = -i
    for x in F.elements():
        assert x.frobenius(F.e) == x


def test_frobenius_is_homomorphism():
    for p, e in [(3, 1), (3, 2), (3, 3), (5, 1)]:
        F = Fq(p, e)
        if F.q > 27:
            continue
        elems = F.elements()
        for x in elems:
            for y in elems:
                assert (x + y).frobenius() == x.frobenius() + y.frobenius()
                assert (x * y).frobenius() == x.frobenius() * y.frobenius()


def test_enumeration_order_and_cardinality():
    F3 = Fq(3, 1)
    assert [x.code for x in F3.elements()] == [0, 1, 2]
    F9 = Fq(3, 2)
    elems = F9.elements()
    assert len(elems) == 9
    assert len(set(elems)) == 9


def test_product_of_nonzero_f3():
    F = Fq(3, 1)
    prod = F.one
    for x in F.elements():
        if x:
            prod = prod * x
    assert prod == F.elem(2)


def test_multiplicative_order_divides_q_minus_1():
    for p, e in [(3, 1), (3, 2), (5, 1), (7, 1), (3, 4)]:
        F = Fq(p, e)
        for x in F.elements():
            if x:
                assert x ** (F.q - 1) == F.one


def test_descriptor_determinism():
    assert Fq(3, 2).modulus == Fq(3, 2).modulus
    assert Fq(3, 3).modulus == Fq(3, 3).modulus


def test_text_roundtrip():
    F = Fq(3, 2)
    for x in F.elements():
        assert F.parse(str(x)) == x
    assert str(F.elem((1, 2))) == "2*w+1"
    assert str(F.zero) == "0"
    F81 = Fq(3, 4)
    for x in [F81.elem((1, 2, 0, 1)), F81.elem((0, 0, 2, 0)), F81.zero]:
        assert F81.parse(str(x)) == x


def test_int_coercion():
    F = Fq(3, 2)
    x = F.elem((2, 1))
    assert x + 3 == x
    assert 1 * x == x
    assert x - 1 == x + 2


def test_scalars_never_equal_ints():
    # arithmetic embeds ints mod p, equality does not: no hash could agree
    # with equality mod p on every int
    F3 = Fq(3)
    assert F3.one != 1
    assert F3.zero != 0
    assert 1 not in {F3.one}
    assert F3.one.sort_key() == (1,)
    assert Fq(3, 2).elem((2, 1)).sort_key() == (2, 1)


# -- the scalar tables: nested lists of Python ints, equal entry by entry to
# the tables built from their definition with numpy over the digit vectors

TABLE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]


def _first_irreducible(p, e):
    """The first monic polynomial of degree e over F_p, constant term up,
    that is no product of monic factors of degrees d <= e/2 and e - d."""
    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
        return tuple(out)

    def monic(d):
        return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]

    reducible = {times(f, g) for d in range(1, e // 2 + 1) for f in monic(d) for g in monic(e - d)}
    return next(m for m in monic(e) if m not in reducible)


@pytest.mark.parametrize("p, e", TABLE_FIELDS)
def test_modulus_is_first_irreducible(p, e):
    assert Fq(p, e).modulus == _first_irreducible(p, e)


def _numpy_tables(F):
    """add, mul, neg, inv and frob of F from the definition: digit vectors
    (constant term first) added mod p, multiplied as polynomials and
    reduced by the monic modulus; inv from the mul table, frob as x^p."""
    p, e, q = F.p, F.e, F.q
    place = p ** np.arange(e)
    d = np.arange(q)[:, None] // place % p
    add = (d[:, None, :] + d[None, :, :]) % p @ place
    prod = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
    for i in range(e):
        for j in range(e):
            prod[:, :, i + j] += d[:, None, i] * d[None, :, j]
    m = np.array(F.modulus)
    for k in range(2 * e - 2, e - 1, -1):
        prod[:, :, k - e:k + 1] -= (prod[:, :, k] % p)[..., None] * m
    mul = prod[:, :, :e] % p @ place
    neg = (-d) % p @ place
    inv = np.array([0] + [np.flatnonzero(mul[a] == 1)[0] for a in range(1, q)])
    frob = np.ones(q, dtype=np.int64)
    for _ in range(p):
        frob = mul[frob, np.arange(q)]
    return {"_add": add, "_mul": mul, "_neg": neg, "_inv": inv, "_frob": frob}


@pytest.mark.parametrize("p, e", TABLE_FIELDS + [(83, 1), (251, 1)])
def test_list_tables_match_numpy_definition(p, e):
    F = Fq(p, e, cap=255)
    for name, want in _numpy_tables(F).items():
        assert np.array_equal(np.array(getattr(F, name)), want), name
    # the stack kernels' numpy copies hold the same entries
    assert np.array_equal(F._mul_np, F._mul) and np.array_equal(F._frob_np, F._frob)


@pytest.mark.parametrize("p, e", TABLE_FIELDS + [(83, 1), (251, 1)])
def test_digits_mulmat_and_rank_match_definition(p, e):
    F = Fq(p, e, cap=255)
    q = F.q
    digits = [[c // p ** i % p for i in range(e)] for c in range(q)]
    assert F._digits.dtype == F._mulmat.dtype == F._rank.dtype == np.int32
    assert F._digits.tolist() == digits
    # column k of the matrix of c holds the digits of c * w^k
    assert F._mulmat.shape == (q, e, e)
    for c in range(q):
        for k in range(e):
            assert F._mulmat[c][:, k].tolist() == digits[F._mul[c][p ** k]]
    # the rank of a code is its place in the order of digit tuples
    order = sorted(range(q), key=lambda c: digits[c])
    assert [int(F._rank[c]) for c in order] == list(range(q))


@pytest.mark.parametrize("p, e", TABLE_FIELDS)
def test_list_tables_hold_python_ints(p, e):
    F = Fq(p, e)
    for name in ("_add", "_mul", "_neg", "_inv", "_frob"):
        table = getattr(F, name)
        rows = table if isinstance(table[0], list) else [table]
        assert type(table) is list and all(type(row) is list for row in rows), name
        assert {type(x) for row in rows for x in row} == {int}, name


_FIELDS = [Fq(p, e) for p, e in TABLE_FIELDS]


@st.composite
def _elem_pair(draw):
    F = draw(st.sampled_from(_FIELDS))
    return F.from_code(draw(st.integers(0, F.q - 1))), F.from_code(draw(st.integers(0, F.q - 1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_elem_pair(), st.integers(-5, 12), st.integers(0, 4))
def test_scalar_results_carry_int_codes(pair, k, r):
    x, y = pair
    out = [x + y, x - y, x * y, -x, x.frobenius(r), x + 2, 2 - x, 3 * y]
    if y:
        out += [x / y, y.inverse(), y ** k, 1 / y]
    assert all(type(z.code) is int for z in out)
