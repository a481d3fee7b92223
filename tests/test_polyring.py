"""Polynomials, fractions, localizations, ring automorphisms, fixed element."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevtwist import polyring
from chevtwist.errors import (
    CertificateMismatch,
    NotInRing,
    NotStabilizing,
    Singular,
    UnitInput,
    ZeroPolynomial,
)
from chevtwist.gf import Fq
from chevtwist.errors import CapExceeded  # noqa: F401
from chevtwist.polyring import (
    Poly,
    RatFrac,
    RingAut,
    RingDesc,
    factorize,
    fixed_element,
    is_irreducible,
    parse_frac,
    parse_poly,
    poly_gcd,
    ring_automorphisms,
)

F3 = Fq(3, 1)
F9 = Fq(3, 2)


def P(text, field=F3):
    return parse_poly(field, text)


def test_gcd_common_root():
    g = poly_gcd(P("t^2+2"), P("t+2"))  # t^2 - 1 and t - 1 over F_3
    assert g == P("t+2")


def test_mul_identity():
    f = P("t^3+2*t")
    assert f * Poly.one(F3) == f


def test_divmod_long_division():
    q, r = divmod(P("t^2+1"), P("t+1"))
    assert q == P("t+2")
    assert r == P("2")
    # reconstruction oracle
    assert q * P("t+1") + r == P("t^2+1")


def test_divmod_random_reconstruction():
    rng = random.Random(7)
    for field in (F3, F9):
        for _ in range(40):
            f = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, 8))])
            g = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(1, 5))])
            if g.is_zero:
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree() < g.degree() or r.is_zero


def test_big_prime_field_product_matches_schoolbook():
    rng = random.Random(3)
    for _ in range(5):
        a = Poly(F3, [rng.randrange(3) for _ in range(40)])
        b = Poly(F3, [rng.randrange(3) for _ in range(35)])
        prod = a * b
        # quadratic oracle
        acc = Poly.zero(F3)
        for i, c in enumerate(a.coeffs):
            acc = acc + Poly(F3, (0,) * i + (c.code,)) * b
        assert prod == acc


def test_factorize_splits_and_irreducible():
    fac = factorize(P("t^2+2"))  # t^2 - 1 = (t+1)(t+2)
    assert fac == [(P("t+1"), 1), (P("t+2"), 1)]
    assert factorize(P("t^2+1")) == [(P("t^2+1"), 1)]
    assert factorize(P("2")) == []
    with pytest.raises(ZeroPolynomial):
        factorize(Poly.zero(F3))


def test_factorize_exhaustive_reconstruction():
    # every monic f over F_3 of degree <= 4 factors back to itself
    import itertools

    for deg in range(1, 5):
        for tail in itertools.product(range(3), repeat=deg):
            f = Poly(F3, tail + (1,))
            fac = factorize(f)
            prod = Poly.const(F3, f.leading_coeff())
            for irr, mult in fac:
                prod = prod * irr ** mult
            assert prod == f
            assert all(irr.is_monic() and is_irreducible(irr) for irr, _ in fac)


def test_fraction_canonicalization():
    rng = random.Random(11)
    for field in (F3, F9):
        for _ in range(60):
            f = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, 7))])
            g = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(1, 7))])
            if g.is_zero:
                continue
            x = RatFrac(f, g)
            assert x.den.is_monic()
            assert poly_gcd(x.num, x.den).degree() <= 0 or x.num.is_zero
            assert x * RatFrac(g) == RatFrac(f)


def test_fraction_field_axioms_on_samples():
    rng = random.Random(13)
    def rand_frac():
        f = Poly(F9, [rng.randrange(9) for _ in range(rng.randint(0, 4))])
        g = Poly(F9, [rng.randrange(9) for _ in range(rng.randint(1, 4))])
        return RatFrac(f, g) if not g.is_zero else RatFrac.one(F9)
    for _ in range(40):
        x, y, z = rand_frac(), rand_frac(), rand_frac()
        assert (x + y) * z == x * z + y * z
        if not x.is_zero:
            assert x / x == RatFrac.one(F9)


def test_ring_membership_and_units():
    R_t = RingDesc(F3, ["t"])
    t = RatFrac.t(F3)
    assert R_t.is_unit(t ** 5)
    assert not R_t.is_unit(t + 1)
    assert R_t.contains(1 / t)
    assert not R_t.contains(1 / (t + 1))
    with pytest.raises(NotInRing):
        R_t.is_unit(1 / (t + 1))
    R_plain = RingDesc(F3)
    assert R_plain.is_unit(RatFrac.const(F3, 2))
    assert not R_plain.is_unit(t)


_UNIT_RINGS = [(Fq(p, e), denoms) for p, e in ((3, 1), (5, 1), (7, 1), (3, 2)) for denoms in ("", "t", "t,t+1")]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_is_unit_agrees_with_is_unit_of(data):
    """is_unit tests only the numerator once membership holds."""
    field, denoms = data.draw(st.sampled_from(_UNIT_RINGS))
    R = RingDesc(field, [d for d in denoms.split(",") if d])

    def part():
        # t^i (t+1)^j times a polynomial of degree < 3 (maybe zero)
        i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        codes = data.draw(st.lists(st.integers(0, field.q - 1), max_size=3))
        return Poly.t(field) ** i * P("t+1", field) ** j * Poly(field, codes)

    num, den = part(), part()
    x = RatFrac(num, den if not den.is_zero else Poly.one(field))
    if R.contains(x):
        assert R.is_unit(x) == R.is_unit_of(x)
    else:
        with pytest.raises(NotInRing):
            R.is_unit(x)


def test_ring_desc_validation():
    with pytest.raises(ValueError):
        RingDesc(F3, ["t^2+2"])  # reducible
    with pytest.raises(ValueError):
        RingDesc(F3, ["2*t"])  # not monic
    with pytest.raises(ValueError):
        RingDesc(F3, ["t", "t"])  # duplicate


def _mobius(*codes):
    return tuple(F3.elem(x) for x in codes)


def test_ring_aut_validation():
    R = RingDesc(F3)
    RingAut(R, 0, (1, 1, 0, 1))  # t -> t + 1
    with pytest.raises(NotStabilizing, match=r"^t maps to 1 / t, outside RingDesc\(F3\[t\]\)$"):
        RingAut(R, 0, (0, 1, 1, 0))  # t -> 1/t leaves F_3[t]
    assert polyring._escape(R, 0, _mobius(0, 1, 1, 0)) == P("t")
    assert polyring._escape(R, 0, _mobius(1, 1, 0, 1)) is None
    with pytest.raises(Singular):
        RingAut(R, 0, (1, 1, 1, 1))
    R_t = RingDesc(F3, ["t"])
    rho = RingAut(R_t, 0, (0, 1, 1, 0))  # t -> 1/t is fine on F_3[t][1/t]
    t = RatFrac.t(F3)
    assert rho(t) == 1 / t


def test_ring_aut_must_keep_inverted_irreducibles_inverted():
    R = RingDesc(F3, ["t^2+1"])
    # t -> t+1 sends t^2+1 to t^2+2*t+2, irreducible and not inverted
    assert is_irreducible(P("t^2+2*t+2"))
    with pytest.raises(NotStabilizing, match=r"^inverted irreducible t\^2\+1 maps to a non-unit$"):
        RingAut(R, 0, (1, 1, 0, 1))
    assert polyring._escape(R, 0, _mobius(1, 1, 0, 1)) == P("t^2+1")
    assert RingAut(R, 0, (2, 0, 0, 1))(RatFrac(P("t^2+1"))) == RatFrac(P("t^2+1"))


def test_ring_aut_apply():
    R = RingDesc(F3)
    rho = RingAut(R, 0, (1, 1, 0, 1))
    t = RatFrac.t(F3)
    assert rho(t ** 2) == parse_frac(F3, "t^2+2*t+1")
    ident = RingAut.identity(R)
    assert ident(t ** 3 + 2) == t ** 3 + 2
    R_t = RingDesc(F3, ["t"])
    inv = RingAut(R_t, 0, (0, 1, 1, 0))
    assert inv(t + 1) == parse_frac(F3, "t+1 / t")


def test_ring_aut_apply_requires_membership():
    R = RingDesc(F3)
    rho = RingAut(R, 0, (1, 1, 0, 1))
    with pytest.raises(NotInRing):
        rho(1 / RatFrac.t(F3))


def test_ring_aut_respects_ring_structure():
    rng = random.Random(17)
    R_t = RingDesc(F9, ["t"])
    rho = RingAut(R_t, 1, (0, 2, 1, 0))
    def rand_member():
        num = Poly(F9, [rng.randrange(9) for _ in range(rng.randint(0, 5))])
        return RatFrac(num, Poly.t(F9) ** rng.randint(0, 3))
    for _ in range(30):
        x, y = rand_member(), rand_member()
        assert rho(x) + rho(y) == rho(x + y)
        assert rho(x) * rho(y) == rho(x * y)


def test_aut_group_f3t():
    R = RingDesc(F3)
    auts = ring_automorphisms(R)
    assert len(auts) == 6  # t -> a t + b with a in {1,2}, b in {0,1,2}
    assert any(a.is_identity for a in auts)
    images = {a(RatFrac.t(F3)) for a in auts}
    expected = {
        parse_frac(F3, text)
        for text in ["t", "t+1", "t+2", "2*t", "2*t+1", "2*t+2"]
    }
    assert images == expected


def test_aut_group_localized():
    R = RingDesc(F3, ["t"])
    auts = ring_automorphisms(R)
    # t -> a t and t -> a / t for a in {1, 2}
    assert len(auts) == 4


def test_aut_group_enumeration_cap():
    from chevtwist.errors import CapExceeded

    R81 = RingDesc(Fq(3, 4))
    with pytest.raises(CapExceeded):
        ring_automorphisms(R81)


def test_aut_group_composition_law_matches_pointwise():
    rng = random.Random(23)
    R = RingDesc(F9, ["t"])
    auts = ring_automorphisms(R)
    t = RatFrac.t(F9)
    samples = [t, t + 1, (t ** 2 + 2) / t, RatFrac.const(F9, F9.elem((1, 1)))]
    for _ in range(30):
        s1, s2 = rng.choice(auts), rng.choice(auts)
        comp = s1.compose(s2)
        for x in samples:
            assert comp(x) == s1(s2(x))


def test_fixed_element_f3t():
    s = fixed_element(Poly.t(F3), RingDesc(F3))
    assert s == parse_frac(F3, "2*t^6+2*t^4+2*t^2")
    assert s == RatFrac(Poly.from_elems(F3, [0, 0, 2, 0, 2, 0, 2]))


def test_fixed_element_is_fixed_and_nonunit():
    R = RingDesc(F3)
    s = fixed_element(Poly.t(F3), R)
    for sigma in ring_automorphisms(R):
        assert sigma(s) == s
    assert not R.is_unit(s)
    R_t = RingDesc(F3, ["t"])
    s2 = fixed_element(P("t+1"), R_t)
    for sigma in ring_automorphisms(R_t):
        assert sigma(s2) == s2
    assert not R_t.is_unit(s2)


def test_fixed_element_checks_fixity_on_the_generators(monkeypatch):
    R = RingDesc(F9, ["t"])
    auts, gens = polyring._aut_group(R)
    plain, args = RingAut._image, []

    def image(self, x):
        args.append(x)
        return plain(self, x)

    monkeypatch.setattr(RingAut, "_image", image)
    s = fixed_element(P("t+1", F9), R)
    assert (len(auts), len(gens)) == (32, 4)
    # |X| images of the seed, then sigma(s) for sigma in Gamma only
    assert len(args) == len(auts) + len(gens)
    assert sum(x == s for x in args) == len(gens)


def test_fixed_element_tests_the_membership_of_s_once(monkeypatch):
    # the seed's unit test (degree 1), then s: its denominator t^16 once
    # for membership, its numerator once for the unit test; the images of
    # known members skip the membership test
    plain, degrees = polyring.factorize, []

    def factor(f):
        degrees.append(f.degree())
        return plain(f)

    monkeypatch.setattr(polyring, "factorize", factor)
    s = fixed_element(P("t+2", F9), RingDesc(F9, ["t"]))
    assert (s.den.degree(), s.num.degree()) == (16, 32)
    assert degrees == [1, 16, 32]


def test_ring_aut_call_refuses_non_members():
    R = RingDesc(F3, ["t"])
    outside = parse_frac(F3, "1 / t+1")
    for sigma in ring_automorphisms(R):
        with pytest.raises(NotInRing):
            sigma(outside)
        assert sigma(outside.inverse()) == sigma._image(outside.inverse())


def test_fixed_element_rejects_units():
    with pytest.raises(UnitInput):
        fixed_element(Poly.const(F3, 2), RingDesc(F3))
    with pytest.raises(UnitInput):
        fixed_element(Poly.t(F3), RingDesc(F3, ["t"]))


def test_poly_text_roundtrip():
    rng = random.Random(29)
    for field in (F3, F9):
        for _ in range(40):
            f = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, 6))])
            assert parse_poly(field, str(f)) == f
    x = parse_frac(F9, "t^2+(w+1)*t+2 / t^3")
    assert str(x) == "t^2+(w+1)*t+2 / t^3"
    assert parse_frac(F9, str(x)) == x


def test_fractions_equal_only_fractions():
    assert RatFrac.one(F3) != 1
    assert RatFrac.one(F3) != F3.one
    assert RatFrac.t(F3) != Poly.t(F3)
    assert RatFrac.t(F3) == RatFrac(Poly.t(F3))


# a pool in which ints, field elements, polynomials and fractions stand for
# the same residues, so that many drawn pairs would compare equal if
# equality coerced across types
_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.integers(0, 2).map(F3.from_code),
    st.integers(0, 8).map(F9.from_code),
    st.integers(0, 2).map(lambda c: Poly(F3, [c])),
    st.integers(0, 2).map(lambda c: RatFrac.const(F3, c)),
    st.integers(0, 2).map(lambda c: RatFrac(Poly(F3, [c, 1]), Poly(F3, [0, 1]))),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_SCALARS, _SCALARS)
def test_equal_scalars_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


# -- Aut(R) on every ring of the certificate sweep, plus F_27[t] and its
# localization at t: the count and a sha256 of the (frob, mobius codes)
# list, in order, as the |X|^2 closure check produced them

AUT_PINS = [
    (3, 1, "", 6, "365edf5ddb995e44f6fc0faeef029228f8392f89b5b0f90ae76ea00a40454408"),
    (3, 1, "t", 4, "b825ab34412e203187d03f3f9e4d71bf92c96c09e9cb573daabd35a65deea936"),
    (3, 1, "t,t+1", 6, "5ec26ccec2653f65099bae1ecbab8d66b42c3b6257b45985cdc387d9cf32fc7d"),
    (5, 1, "", 20, "4701f0c0cbdfc6983e424f0a9e4f892346b14ad6f7181c9a79f51698ff6aafd8"),
    (5, 1, "t", 8, "b68db290008ea2c5b1a00865e491d075256e929208c4b8b11a0e57d367864401"),
    (5, 1, "t,t+1", 6, "cc37ff0e4f7c23d9219a3e4d2a3fa034dbe6f359cc248460b3009245a5e7ab21"),
    (7, 1, "", 42, "710fdf714cd268e33f2bd8a853c4fdb10784546fe93b76691f99d3154fbf3b1a"),
    (7, 1, "t", 12, "b1e3eb0586be35907fb1988bfe4101a16d9c8c84863c02d8217fc0175e15ead3"),
    (7, 1, "t,t+1", 6, "06ac8df42026946042e2ac54516bce71d3188b13f8dd093c2e03dca538289c55"),
    (3, 2, "", 144, "05b12f3260561b296cb424cb7bb44acc84fb05b6bba8c680f15df5adf7111fb9"),
    (3, 2, "t", 32, "b643846846222ec55db4eed49614654776df5bf4e3c0253c630dd653770d9eaf"),
    (3, 2, "t,t+1", 12, "ee737eb8a016c9065ffc7431d7fe61904116e5152cca300a894e3c574e123db8"),
    (3, 3, "", 2106, "103b6283f7dc22228bd5b2968d5e6f8c90abe971b9adb33ebecc31fcb5e6341f"),
    (3, 3, "t", 156, "4e47a7f5acb63331261bc0eac4602b718f9c9d41c7642f19addcd2d27ee2b325"),
]


@pytest.mark.parametrize(
    "p, e, denoms, count, digest", AUT_PINS,
    ids=[f"F{p ** e}[t]" + (f"_({d})" if d else "") for p, e, d, *_ in AUT_PINS],
)
def test_aut_group_pinned(p, e, denoms, count, digest):
    R = RingDesc(Fq(p, e), [d for d in denoms.split(",") if d])
    auts = ring_automorphisms(R)
    assert len(auts) == count
    listing = repr([(s.frob, tuple(x.code for x in s.mobius)) for s in auts])
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


def _drop_candidate(monkeypatch, mobius):
    plain = polyring._candidates
    drop = _mobius(*mobius)
    monkeypatch.setattr(polyring, "_candidates", lambda R: [m for m in plain(R) if m != drop])


@pytest.mark.parametrize("mobius, message", [
    # without t -> t+1, the set still holds its inverse t -> t+2, whose
    # square t -> t+1 is missing: closure implies closure under inverses
    pytest.param((1, 1, 0, 1), "not closed", id="inverse-branch"),
    # t -> t/2 = -t is its own inverse, so only a composite can miss it
    pytest.param((1, 0, 0, 2), "not closed", id="closure-branch"),
    pytest.param((1, 0, 0, 1), "lacks the identity", id="identity"),
])
def test_aut_group_missing_candidate_is_a_mismatch(monkeypatch, mobius, message):
    _drop_candidate(monkeypatch, mobius)
    with pytest.raises(CertificateMismatch, match=message):
        ring_automorphisms(RingDesc(F3))


def test_aut_group_closure_makes_x_times_gamma_compositions(monkeypatch):
    plain_compose, plain_verify = polyring._compose_params, polyring._verify_group
    composed, gammas = [], []

    def compose(s, t=None):
        if t is not None:
            composed.append((s, t))
        return plain_compose(s, t)

    def verify(keys, identity):
        gammas.append(plain_verify(keys, identity))
        return gammas[-1]

    monkeypatch.setattr(polyring, "_compose_params", compose)
    monkeypatch.setattr(polyring, "_verify_group", verify)
    auts = ring_automorphisms(RingDesc(F9))
    (gamma,) = gammas
    assert len(auts) == 144 and len(gamma) == 4
    assert len(composed) == 144 * len(gamma)  # not 144^2 = 20,736


# -- Aut(R) against a brute-force reference: every Frobenius power times
# every PGL_2(F_q) coset, kept when the fraction images pass the
# factorization-based contains and is_unit_of


def _brute_force_automorphisms(R):
    F = R.field
    elems = F.elements()
    one, zero = F.one, F.zero
    cosets = [(one, b, zero, d) for b in elems for d in elems if d]
    cosets += [(a, b, one, d) for a in elems for b in elems for d in elems if a * d - b]
    t = RatFrac.t(F)
    kept = []
    for r in range(F.e):
        for a, b, c, d in cosets:
            image_t = (t * a + b) / (t * c + d)

            def image(f):
                acc = RatFrac.zero(F)
                for coef in reversed(f.coeffs):
                    acc = acc * image_t + coef.frobenius(r)
                return acc

            if R.contains(image_t) and all(R.is_unit_of(image(irr)) for irr in R.denoms):
                kept.append((r, (a, b, c, d)))
    return kept


_BRUTE_FORCE_RINGS = [
    (3, 1, "t^2+1"),
    (3, 1, "t,t^3+2*t+1"),
    (3, 1, "t,t+1,t+2"),
    (5, 1, "t+1,t^2+2"),
    (5, 1, "t^3+t+1"),
    (7, 1, "t,t^2+1"),
    (7, 1, "t^3+2"),
    (3, 2, "t+1,t^2+t+w"),
]


@pytest.mark.parametrize(
    "p, e, denoms", _BRUTE_FORCE_RINGS,
    ids=[f"F{p ** e}[t]_({d})" for p, e, d in _BRUTE_FORCE_RINGS],
)
def test_aut_group_matches_brute_force_scan(p, e, denoms):
    F = Fq(p, e)
    R = RingDesc(F, [parse_poly(F, d) for d in denoms.split(",")])
    auts = ring_automorphisms(R)
    assert [(s.frob, s.mobius) for s in auts] == _brute_force_automorphisms(R)


@pytest.mark.parametrize("p, e, denoms, linear", [
    (3, 1, "", 0), (7, 1, "t,t^2+1", 1), (3, 2, "t,t+1", 2), (5, 1, "t,t+1,t+2,t+3,t+4", 5),
])
def test_aut_candidates_are_the_maps_with_a_removed_pole(p, e, denoms, linear):
    F = Fq(p, e)
    R = RingDesc(F, [parse_poly(F, d) for d in denoms.split(",") if d])
    assert len(polyring._candidates(R)) == F.q * (F.q - 1) * (1 + linear)


def test_aut_group_makes_no_fraction_and_no_factorization(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("fraction or factorization on the Aut(R) path")

    monkeypatch.setattr(polyring, "factorize", boom)
    monkeypatch.setattr(RingDesc, "contains", boom)
    monkeypatch.setattr(RingDesc, "is_unit_of", boom)
    monkeypatch.setattr(RatFrac, "__init__", boom)
    auts = ring_automorphisms(RingDesc(F9, [parse_poly(F9, "t"), parse_poly(F9, "t+1")]))
    assert len(auts) == 12
    RingAut(RingDesc(F3, [P("t^2+1")]), 1, (2, 0, 0, 1))


# -- Poly arithmetic against a reference on FqElem lists: the same
# schoolbook product and long division, with every coefficient operation
# made by FqElem operators

_POLY_FIELDS = [Fq(3), Fq(7), F9, Fq(5, 2), Fq(3, 4)]


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _elems(f):
    return list(f.coeffs)


def _ref_add(F, a, b):
    n = max(len(a), len(b))
    a, b = a + [F.zero] * (n - len(a)), b + [F.zero] * (n - len(b))
    return _trim([x + y for x, y in zip(a, b)])


def _ref_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _ref_divmod(F, a, b):
    rem, lead_inv = list(a), b[-1].inverse()
    quot = [F.zero] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c, shift = rem[-1] * lead_inv, len(rem) - len(b)
        quot[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] = rem[shift + i] - c * y
        rem = _trim(rem)
    return _trim(quot), rem


@st.composite
def _poly_pair(draw):
    """A field, a dividend of degree below 14 and a divisor of degree below
    7 whose lead is any nonzero code (often not 1) and whose lower terms are
    often zero."""
    F = draw(st.sampled_from(_POLY_FIELDS))
    code = st.integers(0, F.q - 1)
    a = draw(st.lists(code, max_size=14))
    tail = draw(st.lists(st.one_of(st.just(0), code), max_size=6))
    return Poly(F, a), Poly(F, tail + [draw(st.integers(1, F.q - 1))])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_poly_pair())
def test_poly_arithmetic_matches_fqelem_reference(pair):
    a, b = pair
    F, A, B = a.field, _elems(a), _elems(b)
    assert _elems(a + b) == _ref_add(F, A, B)
    assert _elems(a - b) == _ref_add(F, A, [-y for y in B])
    assert _elems(-a) == [-x for x in A]
    assert _elems(a * b) == _elems(b * a) == _ref_mul(F, A, B)
    q, r = divmod(a, b)
    assert (_elems(q), _elems(r)) == _ref_divmod(F, A, B)
    assert q * b + r == a and r.degree() < b.degree()
    lead_inv = B[-1].inverse()
    assert _elems(b.monic()) == [y * lead_inv for y in B] and b.monic().is_monic()
    assert all(type(c) is int for p in (a + b, a - b, a * b, q, r, b.monic()) for c in p._codes)


def test_divmod_by_sparse_non_monic_divisor():
    # 2t^4 + 1 over F_3: zero interior terms and lead 2
    a, b = P("t^7+2*t^5+t^4+t+2"), P("2*t^4+1")
    q, r = divmod(a, b)
    assert (_elems(q), _elems(r)) == _ref_divmod(F3, _elems(a), _elems(b))
    assert q * b + r == a and r.degree() < 4


@st.composite
def _reduced_fraction(draw):
    """A fraction over one of the test fields, with numerator of degree
    below 6 (maybe zero) and a nonzero denominator of degree below 5."""
    F = draw(st.sampled_from(_POLY_FIELDS))
    code = st.integers(0, F.q - 1)
    num = Poly(F, draw(st.lists(code, max_size=6)))
    den = Poly(F, draw(st.lists(code, max_size=4)) + [draw(st.integers(1, F.q - 1))])
    return RatFrac(num, den)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_reduced_fraction(), st.integers(0, 80))
def test_fraction_fast_paths_equal_the_normalised_fraction(x, code):
    # adding zero, negating, scaling by a constant and inverting skip the
    # gcd of RatFrac(num, den); each must give exactly the fraction it
    # normalises
    F = x.field
    c = F.from_code(code % F.q)
    const, zero = RatFrac.const(F, c), RatFrac.zero(F)
    cases = [
        (x + zero, x.num, x.den), (zero + x, x.num, x.den), (x - zero, x.num, x.den),
        (-x, -x.num, x.den),
        (x * const, x.num * const.num, x.den), (const * x, x.num * const.num, x.den),
        (x * c, x.num * const.num, x.den), (c * x, x.num * const.num, x.den),
    ]
    if x:
        cases.append((x.inverse(), x.den, x.num))
        assert (x * x.inverse()).is_one
    for got, num, den in cases:
        want = RatFrac(num, den)
        assert (got.num, got.den) == (want.num, want.den)
