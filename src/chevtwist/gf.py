"""Exact arithmetic in small finite fields F_q, q = p^e.

Elements are residue classes modulo a fixed monic irreducible of degree e
over F_p, stored as integer codes 0..q-1 (base-p digits = coefficients,
constant term first).  All operations go through tables precomputed at
field construction, which keeps everything exact and fast at the desk
scale this library targets (q <= 81 by default).  Per-element arithmetic
(`FqElem`, `polyring.Poly`, and `matrices.Mat` products and small
inverses over one field) indexes nested lists of ints; the stack kernels
of `groups` index numpy arrays (`_mul_np`, `_digits`, `_mulmat`,
`_rank`) with whole code arrays.  The Frobenius powers are built once,
as `_frobs[r]`, the table of x -> x^(p^r) for r = 0..e-1, and every ring
part indexes that table.

There is one `Fq` object per (p, e): the first call builds the tables and
every later call returns that object, so field equality is identity
(`is`), and `copy`, `deepcopy` and `pickle` give back the same object.

The modulus is the lexicographically least monic irreducible of degree e,
coefficients compared from the constant term up.  For e = 1 this yields
the polynomial t itself, so prime fields need no special casing.

The tables come from matrix products over F_p, with no polynomial
arithmetic.  Multiplication by w in F_p[t]/(m) is the companion matrix of
m, so the matrix of multiplication by a code c (`_mulmat[c]`) has column k
the digits of c*w^k: column k-1 shifted up one degree, less its top digit
times m.  F_p[t]/(m) is a field iff it has no zero divisors (Lidl and
Niederreiter, Finite Fields, ch. 2), and a reducible m has a monic factor
of degree at most e/2, itself a zero divisor; so the modulus is the first
candidate under which no code of that degree times a nonzero code gives 0.
Then `mul` is one product of the matrices with the digit array; `add`,
`neg`, `inv`, the Frobenius x -> x^p (`power` on the code array), its
powers and `_rank` are whole-array expressions.  Codes are uint8, so
q <= 255.

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

from .errors import MixedFields, NotPrime, ParseError, PreconditionFailed, Unsupported

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


def render_terms(coeffs, var: str) -> str:
    """`c*var^k` for each nonempty coefficient text c (constant term first
    in `coeffs`), highest power first and joined by `+`: a coefficient "1"
    leaves `var^k` alone, and no terms render as "0"."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            mono = var if k == 1 else f"{var}^{k}"
            terms.append(c if k == 0 else mono if c == "1" else f"{c}*{mono}")
    return "+".join(terms) or "0"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _mulmats(digits, tail, p):
    """The matrix over F_p of multiplication by each row c of `digits`
    modulo m = t^e + tail (tail constant term first): column k, the digits
    of c*w^k, is column k-1 shifted up one degree less its top digit times
    the tail."""
    out = np.zeros(digits.shape + (len(tail),), dtype=digits.dtype)
    out[..., 0] = digits
    for k in range(1, len(tail)):
        prev, col = out[..., k - 1], out[..., k]
        col[:, 1:] = prev[:, :-1]
        col -= prev[:, -1:] * tail
        col %= p
    return out


_FIELDS = {}  # (p, e) -> the one Fq object of that field, built on first use


class Fq:
    """The field F_{p^e}: modulus choice plus arithmetic tables.

    There is one object per (p, e).  Every call checks its arguments and
    then returns the field its first call built, so two fields are equal
    iff they are the same object; copies and unpickled fields are that
    object too."""

    def __new__(cls, p: int, e: int = 1, cap: int = DEFAULT_CAP):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if e < 1:
            raise Unsupported("extension degree must be >= 1")
        if e > 4:
            raise Unsupported("extension degree > 4 not supported")
        q = p ** e
        if q > cap:
            raise Unsupported(f"field size {q} exceeds cap {cap}")
        if q > 255:
            raise Unsupported(f"field size {q} exceeds 255, the largest code a uint8 table holds")
        return _FIELDS.get((p, e)) or object.__new__(cls)

    def __init__(self, p: int, e: int = 1, cap: int = DEFAULT_CAP):
        # a registered field is already built
        if _FIELDS.get((p, e)) is not self:
            self.p, self.e, self.q = p, e, p ** e
            self._build_tables()
            _FIELDS[p, e] = self

    def __reduce__(self):
        return Fq, (self.p, self.e, self.q)

    def _build_tables(self):
        """Choose the modulus and build every table on the digit array of
        all codes (see the module docstring)."""
        p, e, q = self.p, self.e, self.q
        place = p ** np.arange(e, dtype=np.int32)
        digits = np.arange(q, dtype=np.int32)[:, None] // place % p
        # m = t when e = 1; else the first candidate m with m(0) != 0 (or t
        # divides m) under which no code of degree 1..e/2 is a zero divisor
        low, others = digits[p:p ** (e // 2 + 1)], digits[1:].T
        tail = next(
            tail for tail in itertools.product(range(p), repeat=e)
            if e == 1 or tail[0] and (_mulmats(low, tail, p) @ others % p).any(axis=1).all()
        )
        self.modulus = tail + (1,)
        mulmat = _mulmats(digits, tail, p)
        mul = (place @ (mulmat @ digits.T % p)).astype(np.uint8)
        add = ((digits[:, None] + digits) % p @ place).astype(np.uint8)
        # row 0 of mul holds no 1, so inv[0] = 0
        neg, inv = (add == 0).argmax(axis=1), (mul == 1).argmax(axis=1)
        frob = power(np.arange(q, dtype=np.uint8), p, None, lambda x, y: mul[x, y])
        frobs = [np.arange(q)]
        for _ in range(e - 1):
            frobs.append(frob[frobs[-1]])
        # nested lists serve per-element arithmetic (a list index is several
        # times cheaper than a numpy scalar lookup); _mul_np serves the
        # stack kernels that index with whole arrays
        self._add, self._mul = add.tolist(), mul.tolist()
        self._neg, self._inv = neg.tolist(), inv.tolist()
        self._frobs = [table.tolist() for table in frobs]
        self._mul_np = mul
        self._elem = [FqElem(self, c) for c in range(q)]  # the boxed element of each code
        self._coeffs = [tuple(row) for row in digits.tolist()]
        # matrix products over F_q run through the digits and the
        # multiplication matrices; _rank is each code's place in the
        # coefficient-lexicographic total order (constant term first)
        self._digits, self._mulmat = digits, mulmat
        self._rank = digits @ place[::-1]

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
            if value.field is not self:
                raise MixedFields("element from a different field")
            return value
        if isinstance(value, int):
            return FqElem(self, value % self.p)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.e:
            raise PreconditionFailed("too many coefficients")
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
        return render_terms([str(c) if c else "" for c in self._coeffs[code]], GEN_SYMBOL)

    @property
    def symbols(self) -> dict:
        """The names of the text grammar: the generator w when e > 1."""
        return {GEN_SYMBOL: self.elem((0, 1))} if self.e > 1 else {}

    def parse(self, text: str) -> "FqElem":
        return evaluate(text, self.elem, self.symbols)

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
        return self.field._coeffs[self.code]

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.field is not self.field:
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
            raise PreconditionFailed("frobenius power must be >= 0")
        return FqElem(self.field, self.field._frobs[k % self.field.e][self.code])

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field is other.field
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
