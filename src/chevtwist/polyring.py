"""Polynomials F_q[t], reduced fractions, localizations, ring automorphisms.

Rings R with F_q[t] contained in R and R properly contained in F_q(t) are
represented exactly as localizations of F_q[t] at a finite set of monic
irreducibles (RingDesc).  Every intermediate ring of that shape is such a
localization, and finiteness of the denominator set encodes the proper
containment in F_q(t).

Factorization is trial division against sieve-generated irreducibles; all
inputs here stay at small degree, so no clever algorithms are needed.
Aut(R) needs none: a map keeps R iff it permutes the places R removes,
which is read off Horner numerators of the inverted irreducibles, over
e q (q - 1) (1 + L) candidates (L linear inverted irreducibles).
`Poly` arithmetic is schoolbook on the field's nested-list tables (one row
`mul[c]` per term), with `np.convolve` for long products over F_p.

Text forms: polynomials render as `2*t^2+(w+1)*t+1` and fractions as
`num / den`.  `parse_poly` reads the scalar grammar of `gf.evaluate` with
the names t and w; `parse_frac` adds `/`, which may appear once, as the
fraction bar.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import (
    CapExceeded,
    CertificateMismatch,
    MixedFields,
    NotInRing,
    NotStabilizing,
    ParseError,
    PreconditionFailed,
    Singular,
    UnitInput,
    Unsupported,
    ZeroPolynomial,
)
from .gf import Fq, FqElem, evaluate, power, render_terms

FACTOR_DEGREE_CAP = 64
AUT_FIELD_CAP = 27
_SIEVE_BUDGET = 2_000_000
VAR = "t"


class Poly:
    """Univariate polynomial over F_q, coefficients little endian in t."""

    __slots__ = ("field", "_codes")

    def __init__(self, field: Fq, codes):
        codes = list(codes)
        while codes and codes[-1] == 0:
            codes.pop()
        self.field = field
        self._codes = tuple(codes)

    # -- constructors --

    @classmethod
    def from_elems(cls, field: Fq, elems) -> "Poly":
        return cls(field, [field.elem(c).code for c in elems])

    @classmethod
    def zero(cls, field: Fq) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Fq) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def t(cls, field: Fq) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def const(cls, field: Fq, value) -> "Poly":
        return cls(field, (field.elem(value).code,))

    # -- basic structure --

    @property
    def coeffs(self):
        return tuple(self.field.from_code(c) for c in self._codes)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._codes) - 1

    @property
    def is_zero(self) -> bool:
        return not self._codes

    @property
    def is_one(self) -> bool:
        return self._codes == (1,)

    def is_constant(self) -> bool:
        return len(self._codes) <= 1

    def leading_coeff(self) -> FqElem:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.field.from_code(self._codes[-1])

    def is_monic(self) -> bool:
        return bool(self._codes) and self._codes[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lc = self._codes[-1]
        if lc == 1:
            return self
        mrow = self.field._mul[self.field._inv[lc]]
        return Poly(self.field, [mrow[c] for c in self._codes])

    # -- arithmetic --

    def _check(self, other):
        if self.field != other.field:
            raise MixedFields("polynomials over different fields")

    def __add__(self, other):
        other = _as_poly(self.field, other)
        if other is None:
            return NotImplemented
        self._check(other)
        add = self.field._add
        a, b = self._codes, other._codes
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return Poly(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field._neg
        return Poly(self.field, [neg[c] for c in self._codes])

    def __sub__(self, other):
        other = _as_poly(self.field, other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(self.field, other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_poly(self.field, other)
        if other is None:
            return NotImplemented
        self._check(other)
        a, b = self._codes, other._codes
        if not a or not b:
            return Poly.zero(self.field)
        f = self.field
        if f.e == 1 and len(a) >= 8 and len(b) >= 8:
            # prime field: exact integer convolution, reduced mod p
            conv = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
            return Poly(f, (conv % f.p).tolist())
        mul, add = f._mul, f._add
        out = [0] * (len(a) + len(b) - 1)
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                mrow = mul[x]
                for j, y in terms:
                    out[i + j] = add[out[i + j]][mrow[y]]
        return Poly(f, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial; use RatFrac")
        return power(self, k, Poly.one(self.field))

    def __divmod__(self, other):
        other = _as_poly(self.field, other)
        if other is None:
            return NotImplemented
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        mul, add, neg = f._mul, f._add, f._neg
        db = other.degree()
        lead_inv = f._inv[other._codes[-1]]
        rem = list(self._codes)
        if len(rem) - 1 < db:
            return Poly.zero(f), self
        # the divisor below its lead, negated once, zero terms dropped; each
        # step cancels the top term of rem exactly, so it is popped unread
        tail = [(i, neg[bc]) for i, bc in enumerate(other._codes[:-1]) if bc]
        quot = [0] * (len(rem) - db)
        while len(rem) - 1 >= db:
            c = mul[rem[-1]][lead_inv]
            shift = len(rem) - 1 - db
            quot[shift] = c
            mrow = mul[c]
            for i, nb in tail:
                rem[shift + i] = add[rem[shift + i]][mrow[nb]]
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def evaluate(self, x: FqElem) -> FqElem:
        acc = self.field.zero
        for code in reversed(self._codes):
            acc = acc * x + self.field.from_code(code)
        return acc

    def __bool__(self):
        return bool(self._codes)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self._codes == other._codes
        )

    def __hash__(self):
        return hash((self.field, self._codes))

    def sort_key(self):
        return (self.degree(), self._codes)

    # -- text form --

    def __str__(self):
        texts = [self.field.render(code) if code else "" for code in self._codes]
        return render_terms([f"({c})" if "+" in c else c for c in texts], VAR)

    def __repr__(self):
        return f"Poly({self})"


def _as_poly(field, other):
    if isinstance(other, Poly):
        return other
    if isinstance(other, (int, FqElem)):
        return Poly.const(field, other)
    return None


def parse_poly(field: Fq, text: str) -> Poly:
    """Read a polynomial in the `gf.evaluate` grammar over the names t and w."""
    names = {k: Poly.const(field, v) for k, v in field.symbols.items()}
    names[VAR] = Poly.t(field)
    return evaluate(text, lambda c: Poly.const(field, c), names)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._check(g)
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


@functools.lru_cache(maxsize=None)
def monic_irreducibles(field: Fq, degree: int):
    """All monic irreducibles of the given degree, lexicographic order."""
    if field.q ** degree > _SIEVE_BUDGET:
        raise Unsupported(f"irreducible sieve budget exceeded at degree {degree}")
    smaller = [
        irr for d in range(1, degree // 2 + 1) for irr in monic_irreducibles(field, d)
    ]
    out = []
    for tail in itertools.product(range(field.q), repeat=degree):
        cand = Poly(field, tail + (1,))
        if all(not (cand % irr).is_zero for irr in smaller):
            out.append(cand)
    return tuple(out)


def is_irreducible(f: Poly) -> bool:
    deg = f.degree()
    if deg < 1:
        return False
    if deg > FACTOR_DEGREE_CAP:
        raise Unsupported(f"degree {deg} beyond factorization cap")
    for d in range(1, deg // 2 + 1):
        for irr in monic_irreducibles(f.field, d):
            if (f % irr).is_zero:
                return False
    return True


def factorize(f: Poly):
    """Multiset of (monic irreducible, multiplicity); units give [].

    The leading coefficient times the product of the factors reconstructs
    the input exactly.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree() > FACTOR_DEGREE_CAP:
        raise Unsupported(f"degree {f.degree()} beyond factorization cap")
    rem = f.monic()
    out = []
    d = 1
    while rem.degree() > 0:
        if 2 * d > rem.degree():
            out.append((rem, 1))
            break
        for irr in monic_irreducibles(f.field, d):
            mult = 0
            while True:
                q, r = divmod(rem, irr)
                if not r.is_zero:
                    break
                rem = q
                mult += 1
            if mult:
                out.append((irr, mult))
            if rem.degree() == 0:
                break
        d += 1
    return sorted(out, key=lambda fm: fm[0].sort_key())


class RatFrac:
    """Reduced fraction num/den of polynomials; den monic, gcd(num,den)=1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        field = num.field
        if den is None:
            den = Poly.one(field)
        if num.field != den.field:
            raise MixedFields("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = Poly.one(field)
        elif not den.is_one:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num // g
                den = den // g
            lc = den.leading_coeff()
            if lc != field.one:
                inv = lc.inverse()
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, field: Fq) -> "RatFrac":
        return cls(Poly.zero(field))

    @classmethod
    def one(cls, field: Fq) -> "RatFrac":
        return cls(Poly.one(field))

    @classmethod
    def t(cls, field: Fq) -> "RatFrac":
        return cls(Poly.t(field))

    @classmethod
    def const(cls, field: Fq, value) -> "RatFrac":
        return cls(Poly.const(field, value))

    @property
    def field(self) -> Fq:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    def is_poly(self) -> bool:
        return self.den.is_one

    def is_constant(self) -> bool:
        return self.den.is_one and self.num.is_constant()

    def degree(self) -> int:
        """deg(num) - deg(den); -1 stands in for the zero fraction."""
        if self.is_zero:
            return -1
        return self.num.degree() - self.den.degree()

    def _coerce(self, other):
        if isinstance(other, RatFrac):
            if other.field != self.field:
                raise MixedFields("fractions over different fields")
            return other
        if isinstance(other, Poly):
            return RatFrac(other)
        if isinstance(other, (int, FqElem)):
            return RatFrac.const(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one and o.den.is_one:
            return RatFrac(self.num + o.num)
        return RatFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFrac(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one and o.den.is_one:
            return RatFrac(self.num * o.num)
        return RatFrac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero fraction")
        return RatFrac(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RatFrac":
        if self.is_zero:
            raise ZeroDivisionError("zero fraction has no inverse")
        return RatFrac(self.den, self.num)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, RatFrac.one(self.field))

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, RatFrac)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def sort_key(self):
        return (self.den.degree(), self.num.degree(), self.den._codes, self.num._codes)

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return f"{self.num} / {self.den}"

    def __repr__(self):
        return f"RatFrac({self})"


def parse_frac(field: Fq, text: str) -> RatFrac:
    """Read `num` or `num / den`: one fraction bar between two polynomials."""
    parts = text.split("/")
    if len(parts) > 2:
        raise ParseError(f"more than one '/' in {text[:60]!r}")
    return RatFrac(*(parse_poly(field, part) for part in parts))


class RingDesc:
    """Localization of F_q[t] at a finite set of monic irreducibles.

    An empty denominator set means R = F_q[t].  Membership: f/g lies in R
    iff every irreducible factor of g is an inverted irreducible.
    """

    __slots__ = ("field", "denoms")

    def __init__(self, field: Fq, denoms=()):
        checked = []
        for d in denoms:
            if isinstance(d, str):
                d = parse_poly(field, d)
            if d.field != field:
                raise MixedFields("denominator over a different field")
            if not d.is_monic():
                raise PreconditionFailed(f"denominator {d} is not monic")
            if not is_irreducible(d):
                raise PreconditionFailed(f"denominator {d} is not irreducible")
            if d in checked:
                raise PreconditionFailed(f"duplicate denominator {d}")
            checked.append(d)
        self.field = field
        self.denoms = tuple(sorted(checked, key=lambda f: f.sort_key()))

    def contains(self, x) -> bool:
        return self._inverts(self._as_frac(x).den)

    def _inverts(self, f: Poly) -> bool:
        """Every irreducible factor of the nonzero f is inverted."""
        return f.is_constant() or all(irr in self.denoms for irr, _ in factorize(f))

    def require_member(self, x) -> RatFrac:
        x = self._as_frac(x)
        if not self.contains(x):
            raise NotInRing(f"{x} is not in {self}")
        return x

    def is_unit(self, x) -> bool:
        """Unit test for x already in R (raises NotInRing otherwise)."""
        return self.is_unit_of(self.require_member(x))

    def is_unit_of(self, x) -> bool:
        """Unit test without the membership precondition: x and 1/x in R."""
        x = self._as_frac(x)
        return not x.is_zero and self._inverts(x.den) and self._inverts(x.num)

    def _as_frac(self, x) -> RatFrac:
        if isinstance(x, RatFrac):
            if x.field != self.field:
                raise MixedFields("fraction over a different field")
            return x
        if isinstance(x, Poly):
            return RatFrac(x)
        if isinstance(x, (int, FqElem)):
            return RatFrac.const(self.field, x)
        raise TypeError(f"cannot view {x!r} as a ring element")

    @property
    def zero(self) -> RatFrac:
        return RatFrac.zero(self.field)

    @property
    def one(self) -> RatFrac:
        return RatFrac.one(self.field)

    def __eq__(self, other):
        return (
            isinstance(other, RingDesc)
            and self.field == other.field
            and self.denoms == other.denoms
        )

    def __hash__(self):
        return hash((self.field, self.denoms))

    def __repr__(self):
        if not self.denoms:
            return f"RingDesc(F{self.field.q}[t])"
        inv = ", ".join(str(d) for d in self.denoms)
        return f"RingDesc(F{self.field.q}[t] localized at {{{inv}}})"


class RingAut:
    """Automorphism of a localization: Frobenius power plus a Moebius map.

    Acts on F_q by x -> x^(p^r) and on t by t -> (a t + b)/(c t + d), with
    a d - b c nonzero.  Construction verifies that the map sends the ring
    into itself (see _escape); such a map has finite order, so stability
    of R under the map follows.
    """

    __slots__ = ("ring", "frob", "mobius")

    def __init__(self, ring: RingDesc, frob: int = 0, mobius=(1, 0, 0, 1)):
        field = ring.field
        a, b, c, d = mobius = tuple(field.elem(x) for x in mobius)
        if not (a * d - b * c):
            raise Singular("Moebius parameters have zero determinant")
        self.ring = ring
        self.frob, self.mobius = _compose_params((frob, mobius))
        lost = _escape(ring, self.frob, self.mobius)
        if lost is None:
            return
        if lost in ring.denoms:
            raise NotStabilizing(f"inverted irreducible {lost} maps to a non-unit")
        a, b, _, _ = self.mobius
        raise NotStabilizing(f"t maps to {Poly(field, (b.code, a.code))} / {lost}, outside {ring}")

    @classmethod
    def identity(cls, ring: RingDesc) -> "RingAut":
        return cls(ring)

    @property
    def is_identity(self) -> bool:
        field = self.ring.field
        return self.frob == 0 and self.mobius == (field.one, field.zero, field.zero, field.one)

    def _image_of_poly(self, f: Poly) -> RatFrac:
        return RatFrac(*_image_parts(f, self.frob, self.mobius))

    def __call__(self, x) -> RatFrac:
        x = self.ring.require_member(x)
        img = self._image_of_poly(x.num)
        if not x.den.is_one:
            img = img / self._image_of_poly(x.den)
        return img

    def compose(self, other: "RingAut") -> "RingAut":
        """self after other."""
        if self.ring != other.ring:
            raise MixedFields("automorphisms of different rings")
        return RingAut(self.ring, *_compose_params((self.frob, self.mobius), (other.frob, other.mobius)))

    def inverse(self) -> "RingAut":
        e = self.ring.field.e
        r = (-self.frob) % e
        a, b, c, d = self.mobius
        inv = (d, -b, -c, a)
        inv = tuple(x.frobenius(r) for x in inv)
        return RingAut(self.ring, r, inv)

    def __eq__(self, other):
        return (
            isinstance(other, RingAut)
            and self.ring == other.ring
            and self.frob == other.frob
            and self.mobius == other.mobius
        )

    def __hash__(self):
        return hash((self.ring, self.frob, self.mobius))

    def __repr__(self):
        a, b, c, d = self.mobius
        return f"RingAut(frob^{self.frob}, t -> ({a})t+({b}) / ({c})t+({d}))"


def _image_parts(f: Poly, frob: int, mobius):
    """(N, D) with f^(p^frob)((a t + b)/(c t + d)) = N / D, where
    D = (c t + d)^deg(f); N, the Horner numerator, need not be coprime to D."""
    field = f.field
    a, b, c, d = mobius
    num_lin = Poly(field, (b.code, a.code))
    den_lin = Poly(field, (d.code, c.code))
    codes = f._codes
    for _ in range(frob):
        codes = [field._frob[x] for x in codes]
    # Horner from the top coefficient; den_pow tracks (c t + d)^(deg - i)
    num, den_pow = Poly(field, codes[-1:]), Poly.one(field)
    for code in reversed(codes[:-1]):
        den_pow = den_pow * den_lin
        num = num * num_lin + den_pow * Poly(field, (code,))
    return num, den_pow


def _escape(ring: RingDesc, frob: int, mobius):
    """None when the map with these canonical parameters keeps R, else
    what leaves it: the pole t + d of the image of t, not inverted, or
    the first inverted irreducible that maps to a non-unit.

    The map keeps R iff it permutes the places R removes: infinity and the
    zeros of the inverted irreducibles.  A Moebius image of an irreducible
    is an irreducible or a constant over a power of the pole, so the image
    is a unit iff that numerator is constant or inverted: no factorization.
    """
    field = ring.field
    _, _, c, d = mobius
    if c:
        pole = Poly(field, (d.code, 1))
        if pole not in ring.denoms:
            return pole
    for irr in ring.denoms:
        num, _ = _image_parts(irr, frob, mobius)
        if num.degree() > 0 and num.monic() not in ring.denoms:
            return irr
    return None


def _compose_params(s, t=None):
    """(frob, mobius) of s after t (after the identity when t is None), for
    parameter pairs (frob, mobius) of invertible maps, the Moebius part in
    its canonical form modulo scalars: c in {0, 1}, and a = 1 when c = 0."""
    r, (a, b, c, d) = s
    if t is not None:
        r2, m2 = t
        a2, b2, c2, d2 = (x.frobenius(r) for x in m2)
        # Moebius substitution composes contravariantly on parameter blocks
        a, b, c, d = a2 * a + b2 * c, a2 * b + b2 * d, c2 * a + d2 * c, c2 * b + d2 * d
        r += r2
    scale = c.inverse() if c else a.inverse()
    return r % a.field.e, (a * scale, b * scale, c * scale, d * scale)


def ring_automorphisms(R: RingDesc):
    """All automorphisms of R, deterministic order, verified to be a group.

    The candidates are the e Frobenius powers times the Moebius maps that
    can send infinity into the places R removes (_candidates), each tested
    by _escape with no fraction and no factorization.  Fields past
    AUT_FIELD_CAP are rejected outright.  The found set X is verified at
    every size, with no cap: it must be closed under inverses, and
    _verify_group must find it to be the group generated by a few of its
    members.  A composite outside X raises CertificateMismatch.
    """
    field = R.field
    if field.q > AUT_FIELD_CAP:
        raise CapExceeded(f"automorphism enumeration capped at q <= {AUT_FIELD_CAP}")
    mobs = _candidates(R)
    out = [RingAut(R, r, mob) for r in range(field.e) for mob in mobs if _escape(R, r, mob) is None]
    keys = [(s.frob, s.mobius) for s in out]
    key_set = set(keys)
    for s in out:
        t = s.inverse()
        if (t.frob, t.mobius) not in key_set:
            raise CertificateMismatch("automorphism set not inverse closed")
    one, zero = field.one, field.zero
    _verify_group(keys, (0, (one, zero, zero, one)))
    return out


def _verify_group(keys, identity):
    """Check that the parameter pairs `keys` form a group under
    _compose_params; return the generating subset Gamma it used.

    Gamma is taken greedily from `keys` in order: a key not yet reached
    from the identity by left multiplication with Gamma joins Gamma, and
    the reached set grows to its closure.  Every composite must be a key,
    so Gamma X lies in X, and the reached set is all of X: X is the monoid
    generated by Gamma, which, being finite and made of bijections, is a
    group.  This takes |X| |Gamma| compositions, not |X|^2.
    """
    key_set = set(keys)
    if identity not in key_set:
        raise CertificateMismatch("automorphism set lacks the identity")
    gens, reached, seen = [], [identity], {identity}

    def reach(g, x):
        y = _compose_params(g, x)
        if y not in key_set:
            raise CertificateMismatch("automorphism set not closed")
        if y not in seen:
            seen.add(y)
            reached.append(y)

    for key in keys:
        if key in seen:
            continue
        gens.append(key)
        start = len(reached)
        # the new generator on what was reached before it, then every
        # generator on each element reached since
        for x in reached[:start]:
            reach(key, x)
        while start < len(reached):
            for g in gens:
                reach(g, reached[start])
            start += 1
    return gens


def _candidates(R: RingDesc):
    """Canonical Moebius parameters whose image of t has its pole at a
    removed place, in PGL2(F_q) coset order: c = 0 (pole at infinity)
    first, then c = 1 with t + d inverted, over (a, b, d).  That is
    q (q - 1) (1 + L) maps, L the number of linear inverted irreducibles."""
    field = R.field
    elems = field.elements()
    one, zero = field.one, field.zero
    poles = [d for d in elems if Poly(field, (d.code, 1)) in R.denoms]
    reps = [(one, b, zero, d) for b in elems for d in elems if d]
    reps += [(a, b, one, d) for a in elems for b in elems for d in poles if a * d - b]
    return reps


def fixed_element(f: Poly, R: RingDesc) -> RatFrac:
    """Product of the images of f under every automorphism of R.

    The result lies in R, is fixed pointwise by every automorphism of R,
    and is not a unit (any of its automorphic factors divides it).
    """
    if f.is_zero:
        raise ZeroPolynomial("fixed element needs a nonzero polynomial")
    frac = RatFrac(f)
    if R.is_unit(frac):
        raise UnitInput(f"{f} is a unit of {R}")
    auts = ring_automorphisms(R)
    s = RatFrac.one(R.field)
    for sigma in auts:
        s = s * sigma(frac)
    if not R.contains(s):
        raise CertificateMismatch("fixed element outside the ring")
    if R.is_unit(s):
        raise CertificateMismatch("fixed element unexpectedly a unit")
    if any(sigma(s) != s for sigma in auts):
        raise CertificateMismatch("fixed element not fixed by the full group")
    return s
