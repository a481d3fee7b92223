"""gf.power, the one binary-power routine, against repeated multiplication
over every algebra type: F_9 scalars, polynomials, fractions, matrices
over F_9 and F_3(t), and group elements."""

import functools
import operator

import pytest

from chevtwist.gf import Fq, power
from chevtwist.groups import GroupCtx, GroupKind, generators
from chevtwist.matrices import Mat
from chevtwist.polyring import Poly, RatFrac

F3 = Fq(3)
F9 = Fq(3, 2)
W = F9.elem((0, 1))

_SL2 = GroupCtx(GroupKind.sl(2), F9)
_PSP4 = GroupCtx(GroupKind.psp(2), F3)


def _word(ctx, picks):
    gens = generators(ctx)
    return functools.reduce(operator.mul, (gens[i % len(gens)] for i in picks))


def _frac(num, den):
    return RatFrac(Poly(F3, num), Poly(F3, den))


# (value, its identity, whether it has an inverse)
CASES = [
    pytest.param(W + 1, F9.one, True, id="F9"),
    pytest.param(Poly.from_elems(F9, [W, 1, 2]), Poly.one(F9), False, id="poly-F9"),
    pytest.param(_frac([1, 1], [2, 0, 1]), RatFrac.one(F3), True, id="frac-F3(t)"),
    pytest.param(
        Mat([[W, F9.one], [F9.elem(2), W + 1]]),
        Mat.identity(2, F9.one, F9.zero), True, id="mat-F9",
    ),
    pytest.param(
        Mat([[_frac([0, 1], [1]), _frac([1], [1, 1])], [_frac([2], [1]), _frac([0], [1])]]),
        Mat.identity(2, RatFrac.one(F3), RatFrac.zero(F3)), True, id="mat-F3(t)",
    ),
    pytest.param(_word(_SL2, [0, 5, 9, 3]), _SL2.identity(), True, id="SL2-F9"),
    pytest.param(_word(_PSP4, [1, 7, 12, 30, 4]), _PSP4.identity(), True, id="PSp4-F3"),
]


def _repeated(x, k, one):
    return functools.reduce(operator.mul, [x] * k, one)


@pytest.mark.parametrize("x, one, invertible", CASES)
def test_power_is_repeated_multiplication(x, one, invertible):
    for k in range(17):
        assert x ** k == _repeated(x, k, one), k
        assert power(x, k, one) == _repeated(x, k, one), k
    if not invertible:
        with pytest.raises(ValueError):
            x ** -1
        return
    inv = x.inverse()
    for k in range(1, 17):
        assert x ** -k == _repeated(inv, k, one), k
        assert x ** k * x ** -k == one, k


def test_power_makes_the_binary_method_products():
    # floor(log2 k) squarings plus popcount(k) - 1 products
    for k in range(1, 65):
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return a + b

        assert power(1, k, 0, mul) == k
        assert len(calls) == (k.bit_length() - 1) + bin(k).count("1") - 1, k
    assert power("x", 0, "") == ""

