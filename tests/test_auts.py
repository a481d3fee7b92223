"""Automorphism normal form: application, composition, orders, grammar."""

import random

import pytest

from chevtwist.auts import (
    GroupAut,
    aut_order_on,
    b_matrix,
    parse_group_aut,
    render_group_aut,
)
from chevtwist.errors import BadRank, IncompatibleKind, ParseError, TrialityUnsupported
from chevtwist.gf import Fq
from chevtwist.groups import (
    GroupCtx,
    GroupKind,
    GrpElem,
    enumerate_group,
    form_matrix,
    generators,
    is_member,
)
from chevtwist import matrices
from chevtwist.matrices import Mat
from chevtwist.polyring import Poly, RatFrac, RingAut, RingDesc, _aut_group, fixed_element, parse_poly
from chevtwist.witness import FAMILY_SL, WitnessConfig, witness_sl

F3 = Fq(3, 1)
F9 = Fq(3, 2)


def _random_elem(ctx, rng, steps=6):
    g = ctx.identity()
    for _ in range(steps):
        g = g * rng.choice(generators(ctx))
    return g


def test_b_matrix_involution_and_form():
    for n in (3, 4):
        B = b_matrix(n, F3)
        ident = Mat.identity(2 * n, F3.one, F3.zero)
        assert B * B == ident
        A = form_matrix(GroupKind.so_even(n), n, F3)
        assert B.transpose() * A * B == A
        # determinant -1: B normalizes the group without belonging to it
        assert B.det() == -F3.one


def test_b_matrix_swaps_last_hyperbolic_pair():
    n = 3
    B = b_matrix(n, F3)
    # nontrivial entries sit at the (n, 2n) coordinate swap
    assert B[n - 1, 2 * n - 1] == F3.one
    assert B[2 * n - 1, n - 1] == F3.one
    assert B[n - 1, n - 1] == F3.zero
    assert B[2 * n - 1, 2 * n - 1] == F3.zero


def test_b_matrix_bad_rank():
    with pytest.raises(BadRank):
        b_matrix(2, F3)


@pytest.mark.parametrize("scalars", [F3, RingDesc(F3, ["t"])], ids=["F3", "F3[t]_t"])
@pytest.mark.parametrize("n", [3, 4])
def test_graph_part_b_is_conjugation_by_b(n, scalars):
    # any square matrix will do: the graph part is conjugation by B on
    # matrices, group members or not
    ctx = GroupCtx(GroupKind.so_even(n), scalars)
    B = b_matrix(n, scalars)
    entries = [ctx.scalar(c) for c in range(3)]
    if not ctx.is_finite:
        entries.append(1 / RatFrac.t(F3))
    rng = random.Random(n)
    for _ in range(5):
        M = Mat([[rng.choice(entries) for _ in range(2 * n)] for _ in range(2 * n)])
        assert GroupAut(ctx, graph="B")._apply_graph(M) == B * M * B


def test_graph_part_kind_restrictions():
    with pytest.raises(IncompatibleKind):
        GroupAut(GroupCtx(GroupKind.sp(2), F3), graph="tinv")
    with pytest.raises(IncompatibleKind):
        GroupAut(GroupCtx(GroupKind.so_odd(2), F3), graph="B")
    with pytest.raises(IncompatibleKind):
        GroupAut(GroupCtx(GroupKind.sl(3), F3), graph="B")
    GroupAut(GroupCtx(GroupKind.sl(3), F3), graph="tinv")
    GroupAut(GroupCtx(GroupKind.so_even(3), F3), graph="B")


def test_triality_rejected():
    with pytest.raises(TrialityUnsupported):
        GroupAut(GroupCtx(GroupKind.so_even(4), F3), graph="sigma")


def test_transpose_inverse_is_involution():
    rng = random.Random(3)
    ctx = GroupCtx(GroupKind.sl(3), F3)
    eps = GroupAut(ctx, graph="tinv")
    for _ in range(20):
        g = _random_elem(ctx, rng)
        assert eps(eps(g)) == g
        h = _random_elem(ctx, rng)
        assert eps(g * h) == eps(g) * eps(h)
    assert eps.compose(eps).is_identity


def test_inner_only_is_conjugation():
    rng = random.Random(5)
    ctx = GroupCtx(GroupKind.sp(2), F3)
    for _ in range(10):
        x = _random_elem(ctx, rng)
        g = _random_elem(ctx, rng)
        sigma = GroupAut(ctx, inner=x)
        assert sigma(g) == x * g * x.inverse()


def test_identity_inner_part_is_dropped():
    # the normal form keeps no trivial inner part, in a projective group
    # too, where -I is the identity coset
    F5 = Fq(5)
    for ctx in (GroupCtx(GroupKind.sl(3), F3), GroupCtx(GroupKind.psl(2), F5),
                GroupCtx(GroupKind.sp(2), RingDesc(F5, []))):
        sigma = GroupAut(ctx, inner=ctx.identity())
        assert sigma.inner is None and sigma.is_identity and sigma == GroupAut.identity(ctx)
    psl = GroupCtx(GroupKind.psl(2), F5)
    minus = psl.elem([[F5.elem(4), F5.zero], [F5.zero, F5.elem(4)]])
    assert GroupAut(psl, inner=minus).is_identity
    # one off-diagonal entry keeps it
    x = psl.elem([[F5.one, F5.one], [F5.zero, F5.one]])
    assert GroupAut(psl, inner=x).inner == x


def test_inner_part_is_inverted_once_per_automorphism(monkeypatch):
    rng = random.Random(11)
    ctx = GroupCtx(GroupKind.sl(3), F3)
    x = _random_elem(ctx, rng)
    elems = [_random_elem(ctx, rng) for _ in range(10)]
    want = [x * g * x.inverse() for g in elems]
    calls = []
    plain_inverse = Mat.inverse

    def inverse(self):
        calls.append(self)
        return plain_inverse(self)

    monkeypatch.setattr(Mat, "inverse", inverse)
    sigma = GroupAut(ctx, inner=x)
    assert [sigma(g) for g in elems] == want
    assert len(calls) == 1


def test_inner_application_rescans_no_coded_factor(monkeypatch):
    # x and g are products and x^-1 an adjugate, so all three carry their
    # codes and x g x^-1 scans no factor, nor does the membership test of
    # the image (its det); an uncoded copy of g is scanned once
    rng = random.Random(11)
    ctx = GroupCtx(GroupKind.sl(3), F3)
    x, g = _random_elem(ctx, rng), _random_elem(ctx, rng)
    assert x != ctx.identity() and g * x != x * g
    want = x * g * x.inverse()
    scans = []
    plain_scan = matrices._scan

    def scan(rows):
        scans.append(rows)
        return plain_scan(rows)

    monkeypatch.setattr(matrices, "_scan", scan)
    sigma = GroupAut(ctx, inner=x)
    assert sigma(g) == want and sigma(sigma(g)) == x * want * x.inverse()
    assert is_member(ctx, sigma(g).mat)
    assert scans == []
    uncoded = Mat(g.mat.rows)
    assert sigma(GrpElem._of(ctx, uncoded)) == want and scans == [g.mat.rows]


def test_projective_inner_application_rescans_nothing(monkeypatch):
    # PSL_3(F_7) has three center scalars: a canonical representative is
    # scaled through a row of the product table and keeps its codes, so
    # repeated application scans no factor
    rng = random.Random(12)
    ctx = GroupCtx(GroupKind.psl(3), Fq(7))
    x, g = _random_elem(ctx, rng), _random_elem(ctx, rng)
    x50 = x ** 50
    want = x50 * g * x50.inverse()
    scans = []
    plain_scan = matrices._scan

    def scan(rows):
        scans.append(rows)
        return plain_scan(rows)

    monkeypatch.setattr(matrices, "_scan", scan)
    sigma = GroupAut(ctx, inner=x)
    for _ in range(50):
        g = sigma(g)
    assert g == want and scans == []


def test_conj_by_b_preserves_membership():
    rng = random.Random(7)
    ctx = GroupCtx(GroupKind.so_even(3), F3)
    tau = GroupAut(ctx, graph="B")
    for _ in range(20):
        g = _random_elem(ctx, rng)
        assert is_member(ctx, tau(g).mat)
    assert tau.compose(tau).is_identity


def test_compose_inner_parts_multiply():
    rng = random.Random(11)
    ctx = GroupCtx(GroupKind.sl(3), F3)
    x, y = _random_elem(ctx, rng), _random_elem(ctx, rng)
    ix, iy = GroupAut(ctx, inner=x), GroupAut(ctx, inner=y)
    assert ix.compose(iy) == GroupAut(ctx, inner=x * y)


def test_inner_shift_relation():
    # sigma . conj_x equals conj_{sigma(x)} . sigma, as normal-form data
    rng = random.Random(13)
    for kind, graph in [(GroupKind.sl(3), "tinv"), (GroupKind.so_even(3), "B")]:
        ctx = GroupCtx(kind, F3)
        for _ in range(10):
            x = _random_elem(ctx, rng)
            sigma = GroupAut(ctx, inner=_random_elem(ctx, rng), graph=graph)
            left = sigma.compose(GroupAut(ctx, inner=x))
            right = GroupAut(ctx, inner=sigma(x)).compose(sigma)
            assert left == right
            g = _random_elem(ctx, rng)
            assert left(g) == right(g)


def test_graph_and_ring_commute_pointwise():
    rng = random.Random(17)
    ctx = GroupCtx(GroupKind.sl(3), F9)
    eps = GroupAut(ctx, graph="tinv")
    rho = GroupAut(ctx, ring=1)
    for _ in range(30):
        g = _random_elem(ctx, rng)
        assert eps.compose(rho)(g) == rho.compose(eps)(g)
        assert eps(rho(g)) == rho(eps(g))


def test_normal_form_composition_pointwise():
    rng = random.Random(19)
    for kind, graph in [(GroupKind.sl(3), "tinv"), (GroupKind.so_even(3), "B")]:
        ctx = GroupCtx(kind, F3)

        def rand_aut():
            return GroupAut(
                ctx,
                inner=_random_elem(ctx, rng) if rng.random() < 0.8 else None,
                graph=rng.choice([None, graph]),
            )

        for _ in range(25):
            sigma, tau = rand_aut(), rand_aut()
            g = _random_elem(ctx, rng)
            assert sigma.compose(tau)(g) == sigma(tau(g))


def test_frobenius_power_composition_over_f9():
    rng = random.Random(23)
    ctx = GroupCtx(GroupKind.sl(2), F9)
    rho = GroupAut(ctx, ring=1)
    assert rho.compose(rho).is_identity  # frob^2 = id on F_9
    for _ in range(10):
        g = _random_elem(ctx, rng)
        assert rho(rho(g)) == g


def test_aut_order_on_values():
    ctx9 = GroupCtx(GroupKind.sl(2), F9)
    G9 = enumerate_group(ctx9)
    assert aut_order_on(GroupAut.identity(ctx9), G9.elements()[:10]) == 1
    assert aut_order_on(GroupAut(ctx9, ring=1), G9.elements()) == 2
    ctx3 = GroupCtx(GroupKind.sl(3), F3)
    G3 = enumerate_group(ctx3)
    eps = GroupAut(ctx3, graph="tinv")
    assert aut_order_on(eps, G3.elements()) == 2


def test_ring_aut_group_aut_fixes_witness():
    R = RingDesc(F3)
    s = fixed_element(Poly.t(F3), R)
    ctx = GroupCtx(GroupKind.sl(3), R)
    rho = GroupAut(ctx, ring=RingAut(R, 0, (1, 1, 0, 1)))  # t -> t + 1
    one, zero = R.one, R.zero
    u = s  # fixed by every ring automorphism
    mat = Mat([[one - u * u, u, zero], [-u, one, zero], [zero, zero, one]])
    g = ctx.elem(mat)
    assert rho(g) == g
    t_elem = ctx.elem(
        Mat([[one, RatFrac.t(F3), zero], [zero, one, zero], [zero, zero, one]])
    )
    assert rho(t_elem) != t_elem


def test_ring_aut_on_a_witness_over_f9_localised_at_t():
    # the entries of x_3 have denominators t^96, past the factorization
    # cap; a ring part maps a member's entries without re-testing that
    # they lie in R, so the image is answered
    R = RingDesc(F9, ["t"])
    s = fixed_element(parse_poly(F9, "t+2"), R)
    cfg = WitnessConfig(ring=R, s=s, family=FAMILY_SL, n=3)
    _, gens = _aut_group(R)
    for m in (1, 3):
        x = witness_sl(m, cfg, 3)
        for rho in gens:
            image = GroupAut(x.ctx, ring=rho)(x)
            assert image == x  # s is fixed, and x_m has entries in F_3[s]
            if m == 1:
                assert image.mat == x.mat.map(rho)


def test_aut_grammar_roundtrip():
    ctx = GroupCtx(GroupKind.sl(2), F9)
    g = ctx.elem([[1, 1], [0, 1]])
    sigma = GroupAut(ctx, inner=g, ring=1)
    text = render_group_aut(sigma)
    assert parse_group_aut(text, ctx) == sigma
    assert parse_group_aut("id", ctx).is_identity
    assert parse_group_aut("inner=1,1;0,1;ring=frob^1", ctx) == sigma
    eps = parse_group_aut("graph=tinv", GroupCtx(GroupKind.sl(3), F3))
    assert eps.graph == "tinv"


@pytest.mark.parametrize("text", [
    "inner=[[1,1],[0,1]]", "inner=1,x;0,1", "inner=1,w^-1;0,1", "inner=1,2/w;0,1",
    "ring=frob^x", "ring=flip",
    "shift=1", "1,1;0,1",
])
def test_aut_grammar_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse_group_aut(text, GroupCtx(GroupKind.sl(2), F9))


def test_aut_grammar_ring_context():
    R = RingDesc(F3, ["t"])
    ctx = GroupCtx(GroupKind.sl(2), R)
    sigma = parse_group_aut("ring=frob^0,mobius(0,1,1,0)", ctx)
    assert isinstance(sigma.ring, RingAut)
    assert sigma.ring(RatFrac.t(F3)) == 1 / RatFrac.t(F3)
    assert parse_group_aut(render_group_aut(sigma), ctx) == sigma
