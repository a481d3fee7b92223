"""Exact arithmetic in small finite fields F_q, q = p^e.

Elements are residue classes modulo a fixed monic irreducible of degree e
over F_p, stored as integer codes 0..q-1 (base-p digits = coefficients,
constant term first).  All operations go through tables precomputed at
field construction, which keeps everything exact and fast at the desk
scale this library targets (q <= 81 by default).  Per-element arithmetic
(`FqElem`, `polyring.Poly`, and `matrices.Mat` products and elimination
over one field) indexes nested lists of ints; the stack kernels
of `groups` and `twist` index numpy arrays (`_mul_np`, `_frob_np`,
`_digits`, `_mulmat`, `_rank`) with whole code arrays.

The modulus is the lexicographically least monic irreducible of degree e,
coefficients compared from the constant term up.  For e = 1 this yields
the polynomial t itself, so prime fields need no special casing.

Text forms: elements render as `2*w^2+w+1` (w the class of t modulo the
modulus).  `evaluate` reads the one scalar grammar every text input of the
library shares: integers, named symbols (`w` here; `t` as well for
polynomials), `+`, `-`, `*`, `^` with a literal natural exponent (at
most EXPONENT_CAP, counting the exponents it sits under), and
parentheses.  There is no implicit multiplication (`2w` is an error), and
any other text raises `ParseError`.

`power` is the one binary-power routine: `FqElem`, `Poly`, `RatFrac` and
`Mat` powers and the whole-stack inverses of `groups.FiniteGroup` all call
it.  Arithmetic mixes an `FqElem` with an int (embedded mod p), but
equality does not: `F.one == 1` is False, since no hash could agree with
equality mod p on every int.
"""

from __future__ import annotations

import ast
import itertools
import operator

import numpy as np

from .errors import MixedFields, NotPrime, ParseError, Unsupported

DEFAULT_CAP = 81

GEN_SYMBOL = "w"

# bound on an exponent times the exponents enclosing it, so that one short
# text cannot ask for a polynomial power of unbounded degree
EXPONENT_CAP = 4096


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def evaluate(text: str, lift, symbols):
    """Value of the arithmetic expression `text`: integer literals go
    through `lift`, names are looked up in `symbols`, and the operators are
    unary `-`, `+`, `-`, `*` and `^` (or `**`) with a literal natural
    exponent; an exponent times those enclosing it is at most
    EXPONENT_CAP.  Anything else raises ParseError quoting the input."""

    def bad():
        return ParseError(f"cannot parse {text[:60]!r}")

    def walk(node, scale=1):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return lift(node.value)
        if isinstance(node, ast.Name) and node.id in symbols:
            return symbols[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand, scale)
        if isinstance(node, ast.BinOp):
            if type(node.op) in _BINOPS:
                return _BINOPS[type(node.op)](walk(node.left, scale), walk(node.right, scale))
            k = node.right
            if isinstance(node.op, ast.Pow) and isinstance(k, ast.Constant) and type(k.value) is int:
                if k.value * scale > EXPONENT_CAP:
                    raise ParseError(f"exponent above {EXPONENT_CAP} in {text[:60]!r}")
                return walk(node.left, max(k.value, 1) * scale) ** k.value
        raise bad()

    try:
        body = ast.parse(text.strip().replace("^", "**"), mode="eval").body
    except (SyntaxError, ValueError, MemoryError, RecursionError):
        raise bad() from None
    try:
        return walk(body)
    except RecursionError:
        raise bad() from None


def power(x, k: int, one, mul=operator.mul):
    """x^k by the binary method (Knuth, TAOCP vol. 2, 4.6.3), for every
    algebra type of the library: field elements, polynomials, fractions,
    matrices and code stacks.  Returns one when k = 0; otherwise starts
    from x itself and makes floor(log2 k) squarings plus popcount(k) - 1
    products mul(acc, square), with no product by one.  k >= 0."""
    if not k:
        return one
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else mul(acc, x)
        k >>= 1
        if not k:
            return acc
        x = mul(x, x)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- tiny polynomial helpers over F_p (tuples of ints, constant term first) --

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _ptrim(a)


def _divides(d, a, p):
    """Does monic d divide a over F_p?"""
    return not _pmod(a, d, p)


def _is_irreducible_fp(f, p):
    deg = len(f) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            cand = tail + (1,)
            if _divides(cand, f, p):
                return False
    return True


def _least_irreducible(p, e):
    for tail in itertools.product(range(p), repeat=e):
        cand = tail + (1,)
        if _is_irreducible_fp(cand, p):
            return cand
    raise AssertionError("no irreducible found")  # cannot happen


class Fq:
    """Descriptor for F_{p^e}: modulus choice plus arithmetic tables."""

    def __init__(self, p: int, e: int = 1, cap: int = DEFAULT_CAP):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if e < 1:
            raise Unsupported("extension degree must be >= 1")
        if e > 4:
            raise Unsupported("extension degree > 4 not supported")
        q = p ** e
        if q > cap:
            raise Unsupported(f"field size {q} exceeds cap {cap}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _least_irreducible(p, e)
        self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        digits = [self._decode(c) for c in range(q)]
        add = np.zeros((q, q), dtype=np.uint8)
        mul = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            da = digits[a]
            for b in range(a, q):
                db = digits[b]
                s = self._encode(tuple((x + y) % p for x, y in zip(da, db)))
                add[a, b] = add[b, a] = s
                m = self._encode(_pmod(_pmul(_ptrim(da), _ptrim(db), p), self.modulus, p) + (0,) * e)
                mul[a, b] = mul[b, a] = m
        neg = np.array([self._encode(tuple((-x) % p for x in digits[a])) for a in range(q)], dtype=np.uint8)
        inv = np.array([0] + [int(np.nonzero(mul[a] == 1)[0][0]) for a in range(1, q)], dtype=np.uint8)
        frob = np.array([power(a, p, 1, lambda x, y: int(mul[x, y])) for a in range(q)], dtype=np.uint8)
        # nested lists serve per-element arithmetic (a list index is several
        # times cheaper than a numpy scalar lookup); the _np copies serve the
        # stack kernels that index with whole arrays
        self._add, self._mul = add.tolist(), mul.tolist()
        self._neg, self._inv, self._frob = neg.tolist(), inv.tolist(), frob.tolist()
        self._mul_np, self._frob_np = mul, frob
        self._elem = [FqElem(self, c) for c in range(q)]  # the boxed element of each code
        # base-p digits of each code, and the matrix over F_p of multiplication
        # by each code on the basis 1, w, ..., w^(e-1): column k holds the
        # digits of c * w^k.  Matrix products over F_q run through these.
        self._digits = np.array(digits, dtype=np.int32)
        self._mulmat = self._digits[mul[:, p ** np.arange(e)]].transpose(0, 2, 1).copy()
        # rank of each code in the coefficient-lexicographic total order
        order = sorted(range(q), key=lambda c: digits[c])
        rank = np.zeros(q, dtype=np.int32)
        for pos, c in enumerate(order):
            rank[c] = pos
        self._rank = rank

    # -- code <-> coefficient digits (little endian, length e) --

    def _decode(self, code: int):
        p, e = self.p, self.e
        out = []
        for _ in range(e):
            out.append(code % p)
            code //= p
        return tuple(out)

    def _encode(self, digits) -> int:
        code = 0
        for d in reversed(digits[: self.e]):
            code = code * self.p + d
        return code

    # -- element construction --

    def from_code(self, code: int) -> "FqElem":
        return FqElem(self, code % self.q)

    def elem(self, value) -> "FqElem":
        """Build an element from an int (embedded mod p) or coefficient seq."""
        if isinstance(value, FqElem):
            if value.field != self:
                raise MixedFields("element from a different field")
            return value
        if isinstance(value, int):
            return FqElem(self, value % self.p)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.e:
            raise ValueError("too many coefficients")
        coeffs = coeffs + (0,) * (self.e - len(coeffs))
        return FqElem(self, self._encode(coeffs))

    @property
    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    @property
    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def elements(self):
        """All q elements, ordered lexicographically on coefficient tuples."""
        return [self.elem(c) for c in itertools.product(range(self.p), repeat=self.e)]

    # -- text form --

    def render(self, code: int) -> str:
        digits = self._decode(code)
        terms = []
        for k in range(self.e - 1, -1, -1):
            c = digits[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = GEN_SYMBOL if k == 1 else f"{GEN_SYMBOL}^{k}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"

    @property
    def symbols(self) -> dict:
        """The names of the text grammar: the generator w when e > 1."""
        return {GEN_SYMBOL: self.elem((0, 1))} if self.e > 1 else {}

    def parse(self, text: str) -> "FqElem":
        return evaluate(text, self.elem, self.symbols)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Fq)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"Fq({self.p}, {self.e})"


class FqElem:
    """Element of an Fq field; immutable, hashable, operator based."""

    __slots__ = ("field", "code")

    def __init__(self, field: Fq, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self):
        return self.field._decode(self.code)

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.field != self.field:
                raise MixedFields("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqElem(self.field, self.field._add[self.code][o.code])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return FqElem(f, f._add[self.code][f._neg[o.code]])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqElem(self.field, self.field._mul[self.code][o.code])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.code == 0:
            raise ZeroDivisionError("division by zero field element")
        f = self.field
        return FqElem(f, f._mul[self.code][f._inv[o.code]])

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FqElem(self.field, self.field._neg[self.code])

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        mul = self.field._mul
        return FqElem(self.field, power(self.code, k, 1, lambda a, b: mul[a][b]))

    def inverse(self):
        if self.code == 0:
            raise ZeroDivisionError("zero has no inverse")
        return FqElem(self.field, self.field._inv[self.code])

    def frobenius(self, k: int = 1) -> "FqElem":
        """x -> x^(p^k); k = e gives the identity."""
        if k < 0:
            raise ValueError("frobenius power must be >= 0")
        code = self.code
        for _ in range(k % self.field.e):
            code = self.field._frob[code]
        return FqElem(self.field, code)

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.code == other.code
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.code))

    def sort_key(self):
        """Coefficient tuple, constant term first: the library's total
        order on the elements of one field."""
        return self.coeffs

    def __str__(self):
        return self.field.render(self.code)

    def __repr__(self):
        return f"FqElem({self.field!r}, {self})"
