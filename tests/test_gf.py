"""Finite field arithmetic, Frobenius maps, enumeration, text form."""

import itertools

import pytest

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
