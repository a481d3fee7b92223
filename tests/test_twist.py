"""Twisted action, orbit partitions, counts, decision procedures."""

import random

import numpy as np
import pytest

from chevtwist.auts import GroupAut, parse_group_aut
from chevtwist import twist
from chevtwist.errors import (
    CapExceeded,
    CertificateMismatch,
    IncompatibleKind,
    PreconditionFailed,
    Unsupported,
)
from chevtwist.gf import Fq
from chevtwist.groups import (
    GroupCtx,
    GroupKind,
    basis_generators,
    enumerate_group,
    expected_order,
    generators,
    mat_mul,
    mat_to_codes,
)
from chevtwist.twist import (
    are_twisted_conjugate,
    descend_aut,
    power_reduction_check,
    quotient_count_comparison,
    reidemeister_count,
    report_to_csv,
    twist_step,
    twisted_orbit_of,
    twisted_orbits,
)

F3 = Fq(3, 1)
F9 = Fq(3, 2)

SL2_F3 = GroupCtx(GroupKind.sl(2), F3)
PSL2_F3 = GroupCtx(GroupKind.psl(2), F3)
SL2_F9 = GroupCtx(GroupKind.sl(2), F9)
SL3_F3 = GroupCtx(GroupKind.sl(3), F3)


def _random_elem(ctx, rng, steps=5):
    g = ctx.identity()
    for _ in range(steps):
        g = g * rng.choice(generators(ctx))
    return g


def test_twist_step_identity_aut_is_conjugation():
    rng = random.Random(3)
    ident = GroupAut.identity(SL2_F3)
    for _ in range(10):
        g, x = _random_elem(SL2_F3, rng), _random_elem(SL2_F3, rng)
        assert twist_step(g, x, ident) == g * x * g.inverse()


def test_twist_step_at_identity_element():
    rng = random.Random(5)
    sigma = GroupAut(SL2_F9, ring=1)
    e = SL2_F9.identity()
    for _ in range(10):
        x = _random_elem(SL2_F9, rng)
        assert twist_step(e, x, sigma) == x
        assert twist_step(x, e, sigma) == x * sigma(x).inverse()


def test_twist_step_is_group_action():
    rng = random.Random(7)
    sigma = GroupAut(SL2_F9, ring=1)
    for _ in range(15):
        g, h, x = (_random_elem(SL2_F9, rng) for _ in range(3))
        assert twist_step(g * h, x, sigma) == twist_step(g, twist_step(h, x, sigma), sigma)


def test_reidemeister_sl2_f3_identity():
    res = reidemeister_count(SL2_F3, GroupAut.identity(SL2_F3))
    assert res.count == 7
    assert res.burnside_count == 7
    assert res.group_order == 24
    assert res.method == "orbit-partition+burnside"


def test_reidemeister_psl2_f3_identity():
    res = reidemeister_count(PSL2_F3, GroupAut.identity(PSL2_F3))
    assert res.count == 4
    assert res.burnside_count == 4
    assert res.group_order == 12


def test_reidemeister_frobenius_on_sl2_f9():
    res = reidemeister_count(SL2_F9, GroupAut(SL2_F9, ring=1))
    assert res.burnside_count == res.count  # both methods ran and agreed
    assert res.group_order == 720


def test_orbits_partition_the_group():
    for ctx, sigma in [
        (SL2_F3, GroupAut.identity(SL2_F3)),
        (SL2_F9, GroupAut(SL2_F9, ring=1)),
        (PSL2_F3, GroupAut.identity(PSL2_F3)),
    ]:
        rep = twisted_orbits(ctx, sigma)
        assert sum(rep.orbit_sizes) == rep.group_order
        assert len(set(rep.orbit_representatives)) == rep.count


def test_orbit_representatives_pairwise_inequivalent():
    sigma = GroupAut(SL2_F9, ring=1)
    rep = twisted_orbits(SL2_F9, sigma)
    reps = rep.orbit_representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            ok, _ = are_twisted_conjugate(reps[i], reps[j], sigma)
            assert ok is False


def test_are_twisted_conjugate_reflexive():
    x = SL2_F3.elem([[1, 1], [0, 1]])
    ok, w = are_twisted_conjugate(x, x, GroupAut.identity(SL2_F3))
    assert ok and w == SL2_F3.identity()


def test_unipotent_classes_sl2_f3():
    # e12(1) is conjugate to e21(2) (Weyl conjugation sends e21(a) to
    # e12(-a)) but not to e21(1): 2 is not a square mod 3
    ident = GroupAut.identity(SL2_F3)
    e12 = SL2_F3.elem([[1, 1], [0, 1]])
    e21 = SL2_F3.elem([[1, 0], [1, 1]])
    e21_2 = SL2_F3.elem([[1, 0], [2, 1]])
    ok, w = are_twisted_conjugate(e12, e21_2, ident)
    assert ok
    assert twist_step(w, e12, ident) == e21_2
    assert are_twisted_conjugate(e12, e21, ident)[0] is False


def test_center_elements_not_conjugate():
    ident = GroupAut.identity(SL2_F3)
    I = SL2_F3.identity()
    negI = SL2_F3.elem([[2, 0], [0, 2]])
    assert are_twisted_conjugate(I, negI, ident)[0] is False


def test_linear_strategy_agrees_with_orbit():
    rng = random.Random(11)
    ident = GroupAut.identity(SL2_F3)
    for _ in range(15):
        x, y = _random_elem(SL2_F3, rng), _random_elem(SL2_F3, rng)
        got_orbit = are_twisted_conjugate(x, y, ident, strategy="orbit")
        got_linear = are_twisted_conjugate(x, y, ident, strategy="linear")
        assert got_orbit[0] == got_linear[0]
        if got_linear[0]:
            assert twist_step(got_linear[1], x, ident) == y


def test_linear_strategy_needs_identity_aut():
    x = SL2_F9.elem([[1, 1], [0, 1]])
    y = SL2_F9.elem([[1, 0], [1, 1]])
    with pytest.raises(Unsupported):
        are_twisted_conjugate(x, y, GroupAut(SL2_F9, ring=1), strategy="linear")


@pytest.mark.parametrize("ctx", [SL2_F3, PSL2_F3, GroupCtx(GroupKind.psl(2), Fq(5))], ids=repr)
def test_linear_strategy_agrees_with_orbit_on_class_representatives(ctx):
    ident = GroupAut.identity(ctx)
    reps = twisted_orbits(ctx, ident).orbit_representatives
    h = generators(ctx)[0]
    for x in reps:
        for r in reps:
            y = twist_step(h, r, ident)  # a conjugate of r, often not r itself
            want = are_twisted_conjugate(x, y, ident, strategy="orbit")[0]
            ok, g = are_twisted_conjugate(x, y, ident, strategy="linear")
            assert ok == want == (x == r)
            if ok:
                assert twist_step(g, x, ident) == y


def test_linear_strategy_conjugates_up_to_a_center_scalar():
    # in PSL_2(F_3), g x g^-1 = -y for a lift g: a projective solution only
    ident = GroupAut.identity(PSL2_F3)
    x, y = PSL2_F3.parse_elem("0,1;2,1"), PSL2_F3.parse_elem("1,0;1,1")
    assert are_twisted_conjugate(x, y, ident, strategy="orbit")[0] is True
    ok, g = are_twisted_conjugate(x, y, ident, strategy="linear")
    assert ok is True
    assert twist_step(g, x, ident) == y


def test_linear_strategy_refuses_orthogonal_kinds():
    # membership admits all of SO_5, which is not the enumerated Omega_5:
    # every conjugator in SO_5 here, such as diag(1,2,1,2,1), lies outside
    so5 = GroupCtx(GroupKind.so_odd(2), F3)
    ident = GroupAut.identity(so5)
    x = so5.parse_elem("1,1,0,0,0;0,1,0,0,0;1,1,1,0,1;0,0,2,1,0;2,2,0,0,1")
    y = so5.parse_elem("1,2,0,0,0;0,1,0,0,0;1,2,1,0,1;0,0,1,1,0;2,1,0,0,1")
    assert are_twisted_conjugate(x, y, ident, strategy="orbit")[0] is False
    with pytest.raises(Unsupported):
        are_twisted_conjugate(x, y, ident, strategy="linear")
    for kind in [GroupKind.so_even(3), GroupKind.pso_even(3)]:
        ctx = GroupCtx(kind, F3)
        gens = generators(ctx)
        with pytest.raises(Unsupported):
            are_twisted_conjugate(gens[0], gens[1], GroupAut.identity(ctx), strategy="linear")


def test_linear_strategy_unknown_beyond_the_solver_cap():
    # diag(2,2,3,3) in Sp_4(F_5) commutes with an 8-dimensional algebra:
    # 5^8 kernel combinations are more than SOLVE_CAP
    sp4 = GroupCtx(GroupKind.sp(2), Fq(5))
    ident = GroupAut.identity(sp4)
    x = sp4.elem([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    y = twist_step(generators(sp4)[-1], x, ident)
    assert y != x
    assert are_twisted_conjugate(x, y, ident, strategy="linear") == (None, None)


def test_sampling_fallback_never_answers_false():
    # with a tiny orbit cap the exact sweep gives up; sampling either finds
    # a witness or reports unknown
    ident = GroupAut.identity(SL2_F3)
    e12 = SL2_F3.elem([[1, 1], [0, 1]])
    e21_2 = SL2_F3.elem([[1, 0], [2, 1]])
    ok, w = are_twisted_conjugate(e12, e21_2, ident, cap=2, seed=7)
    assert ok in (True, None)
    if ok:
        assert twist_step(w, e12, ident) == e21_2
    negI = SL2_F3.elem([[2, 0], [0, 2]])
    unknown, w2 = are_twisted_conjugate(e12, negI, ident, cap=2, seed=7)
    assert unknown is None and w2 is None


def test_decision_needs_finite_scalars():
    from chevtwist.polyring import RingDesc

    ctx = GroupCtx(GroupKind.sl(2), RingDesc(F3))
    with pytest.raises(Unsupported):
        are_twisted_conjugate(ctx.identity(), ctx.identity(), GroupAut.identity(ctx))


def test_power_reduction_identity_case():
    rng = random.Random(13)
    ident = GroupAut.identity(SL2_F3)
    for _ in range(10):
        x = _random_elem(SL2_F3, rng)
        g = _random_elem(SL2_F3, rng)
        y = twist_step(g, x, ident)
        assert power_reduction_check(x, y, ident, 1)
        assert power_reduction_check(x, x, ident, 1)


def test_power_reduction_requires_fixed_inputs():
    frob = GroupAut(SL2_F9, ring=1)
    moved = SL2_F9.elem([[F9.elem((0, 1)), F9.zero], [F9.zero, F9.elem((0, 1)) ** (-1)]])
    assert frob(moved) != moved
    with pytest.raises(PreconditionFailed):
        power_reduction_check(moved, moved, frob, 2)


def test_power_reduction_frobenius_pairs():
    # a couple of twisted-conjugate fixed pairs; the exhaustive loop is in
    # the acceptance suite
    frob = GroupAut(SL2_F9, ring=1)
    fixed = [g for g in enumerate_group(SL2_F9).elements() if frob(g) == g]
    assert len(fixed) == 24
    checked = 0
    for x in fixed[:6]:
        for y in fixed[:6]:
            ok, _ = are_twisted_conjugate(x, y, frob)
            if ok:
                assert power_reduction_check(x, y, frob, 2)
                checked += 1
    assert checked


def test_twisted_conjugacy_in_projective_quotient():
    # coset-level decision: -I collapses into the identity class downstairs
    ident = GroupAut.identity(PSL2_F3)
    negI = PSL2_F3.elem([[2, 0], [0, 2]])
    ok, w = are_twisted_conjugate(PSL2_F3.identity(), negI, ident)
    assert ok and w == PSL2_F3.identity()
    e12 = PSL2_F3.elem([[1, 1], [0, 1]])
    e21 = PSL2_F3.elem([[1, 0], [1, 1]])
    got, witness = are_twisted_conjugate(e12, e21, ident)
    if got:
        assert twist_step(witness, e12, ident) == e21


def test_count_invariant_under_inner_twist():
    # composing the automorphism with any inner automorphism permutes the
    # twisted classes ([x] -> [x g]), so the count cannot change
    rng = random.Random(17)
    ident = GroupAut.identity(SL2_F3)
    base = reidemeister_count(SL2_F3, ident).count
    for _ in range(3):
        g = _random_elem(SL2_F3, rng)
        twisted = reidemeister_count(SL2_F3, GroupAut(SL2_F3, inner=g))
        assert twisted.count == base == 7
        assert twisted.burnside_count == base
    frob = GroupAut(SL2_F9, ring=1)
    base9 = reidemeister_count(SL2_F9, frob).count
    g9 = _random_elem(SL2_F9, rng)
    shifted = reidemeister_count(SL2_F9, GroupAut(SL2_F9, inner=g9).compose(frob))
    assert shifted.count == base9


def test_transpose_inverse_twisted_count():
    eps = GroupAut(SL2_F3, graph="tinv")
    res = reidemeister_count(SL2_F3, eps)
    assert res.burnside_count == res.count  # quadratic method cross-check
    rep = twisted_orbits(SL2_F3, eps)
    assert sum(rep.orbit_sizes) == 24


def test_power_reduction_transpose_inverse_pairs():
    eps = GroupAut(SL2_F3, graph="tinv")
    fixed = [g for g in enumerate_group(SL2_F3).elements() if eps(g) == g]
    assert fixed  # orthogonal-type elements exist
    checked = 0
    for x in fixed:
        for y in fixed:
            ok, _ = are_twisted_conjugate(x, y, eps)
            if ok:
                assert power_reduction_check(x, y, eps, 2)
                checked += 1
    assert checked


def test_quotient_count_comparison():
    sigma = GroupAut.identity(SL2_F3)
    assert quotient_count_comparison(SL2_F3, PSL2_F3, sigma) == (7, 4)


def test_quotient_comparison_validates_contexts():
    with pytest.raises(IncompatibleKind):
        quotient_count_comparison(SL2_F3, SL2_F9, GroupAut.identity(SL2_F3))


def test_descend_aut_preserves_parts():
    sigma = GroupAut(SL2_F3, inner=SL2_F3.elem([[1, 1], [0, 1]]))
    down = descend_aut(sigma, PSL2_F3)
    assert down.ctx == PSL2_F3
    assert down.inner is not None


def test_report_csv_shape():
    rep = twisted_orbits(SL2_F3, GroupAut.identity(SL2_F3))
    text = report_to_csv(rep, method="orbit-partition+burnside")
    lines = text.strip().splitlines()
    assert lines[0] == "kind,representative,size"
    assert len(lines) == 1 + rep.count + 1
    assert lines[-1].startswith("summary,")
    assert lines[-1].endswith(",24")


def test_quotient_comparison_sp4():
    # larger instance: counts by orbit partition only (above the quadratic
    # method's cap), inequality still asserted inside
    sp4 = GroupCtx(GroupKind.sp(2), F3)
    psp4 = GroupCtx(GroupKind.psp(2), F3)
    big, quot = quotient_count_comparison(sp4, psp4, GroupAut.identity(sp4))
    assert big >= quot >= 1


def test_method_disagreement_raises(monkeypatch):
    real = twist._burnside_count
    monkeypatch.setattr(twist, "_burnside_count", lambda *args: real(*args) + 1)
    with pytest.raises(CertificateMismatch):
        reidemeister_count(SL2_F3, GroupAut.identity(SL2_F3))


def _cayley_fixed_point_count(G, sigma):
    """R(sigma) as the averaged fixed-point count: the pairs (g, x) with
    g x sigma(g)^(-1) = x, read off the Cayley table, divided by |G|.
    sigma's index map applies sigma to every element."""
    table = G.cayley(cap=2_000)
    inv = G.inverse_indices()
    sig = G.indices_of_stack(np.stack([mat_to_codes(sigma(g).mat) for g in G.elements()]))
    idx = np.arange(G.order)
    total = sum(int((table[table[g], inv[sig[g]]] == idx).sum()) for g in range(G.order))
    count, rem = divmod(total, G.order)
    assert rem == 0
    return count


# the benchmark's census, with SL_2(F_3) under the transpose inverse and
# SL_2(F_27), whose q + 4 = 31 classes lie above the second method's cap
COUNTS = [
    (GroupKind.sl(2), (3, 1), "id", 7),
    (GroupKind.sl(2), (3, 1), "graph=tinv", 7),
    (GroupKind.psl(2), (3, 1), "id", 4),
    (GroupKind.sl(2), (5, 1), "id", 9),
    (GroupKind.sl(2), (7, 1), "id", 11),
    (GroupKind.sl(2), (3, 2), "ring=frob^1", 7),
    (GroupKind.psl(2), (3, 2), "ring=frob^1", 5),
    (GroupKind.sl(2), (11, 1), "id", 15),
    (GroupKind.sl(2), (13, 1), "id", 17),
    (GroupKind.sl(3), (3, 1), "graph=tinv", 6),
    (GroupKind.psl(3), (3, 1), "graph=tinv", 6),
    (GroupKind.sl(2), (5, 2), "id", 29),
    (GroupKind.sl(2), (3, 3), "ring=frob^1", 7),
    (GroupKind.sl(2), (3, 3), "id", 31),
    (GroupKind.so_odd(2), (3, 1), "id", 20),
    (GroupKind.psp(2), (3, 1), "id", 20),
    (GroupKind.sp(2), (3, 1), "id", 34),
]


def _count_case(kind, pe, aut):
    ctx = GroupCtx(kind, Fq(*pe))
    return enumerate_group(ctx), parse_group_aut(aut, ctx)


def _ids(cases):
    return [f"{k!r}-F{p ** e}-{a}" for k, (p, e), a, _ in cases]


@pytest.mark.parametrize("kind, pe, aut, count", COUNTS, ids=_ids(COUNTS))
def test_fixed_class_count_equals_partition_count(kind, pe, aut, count):
    G, sigma = _count_case(kind, pe, aut)
    assert twist._burnside_count(G, sigma) == twisted_orbits(G.ctx, sigma).count == count


SMALL_COUNTS = [case for case in COUNTS if expected_order(case[0], case[1][0] ** case[1][1])[0] <= 2_000]


@pytest.mark.parametrize("kind, pe, aut, count", SMALL_COUNTS, ids=_ids(SMALL_COUNTS))
def test_fixed_class_count_equals_cayley_count(kind, pe, aut, count):
    G, sigma = _count_case(kind, pe, aut)
    assert _cayley_fixed_point_count(G, sigma) == twist._burnside_count(G, sigma) == count
    res = reidemeister_count(G.ctx, sigma)
    assert (res.count, res.burnside_count, res.method) == (count, count, "orbit-partition+burnside")


SMALL_GROUPS = list(dict.fromkeys((kind, pe) for kind, pe, _, _ in SMALL_COUNTS))


@pytest.mark.parametrize("kind, pe", SMALL_GROUPS, ids=[f"{k!r}-F{p ** e}" for k, (p, e) in SMALL_GROUPS])
def test_fixed_class_count_under_inner_parts(kind, pe):
    # an inner part, alone and with the Frobenius (e > 1) or the transpose
    # inverse (SL, PSL): both counts apply sigma itself
    G, _ = _count_case(kind, pe, "id")
    x = next(g for g in G.elements()[1:] if g * G.elem(1) != G.elem(1) * g)
    parts = [{}]
    if pe[1] > 1:
        parts.append({"ring": 1})
    if kind.family in ("SL", "PSL"):
        parts.append({"graph": "tinv"})
    for part in parts:
        sigma = GroupAut(G.ctx, inner=x, **part)
        assert twist._burnside_count(G, sigma) == _cayley_fixed_point_count(G, sigma)


def test_burnside_applies_sigma_to_each_class_representative(monkeypatch):
    # SL_2(F_9) has q + 4 = 13 classes; sigma, inner part included, is
    # applied once to each class representative
    G = enumerate_group(SL2_F9)
    sigma = GroupAut(SL2_F9, inner=G.elem(5), ring=1)
    applied = []
    plain_call = GroupAut.__call__

    def call(self, g):
        if self is sigma:
            applied.append(g)
        return plain_call(self, g)

    monkeypatch.setattr(GroupAut, "__call__", call)
    count = twist._burnside_count(G, sigma)
    assert len(set(applied)) == len(applied) == 13
    assert count == twisted_orbits(SL2_F9, sigma).count


# orbit-size multisets {size: multiplicity} of the ordinary conjugacy
# classes; PSp_4(3) and Omega_5(3) are isomorphic, so theirs agree
OMEGA5_CLASSES = {1: 1, 40: 2, 45: 1, 240: 1, 270: 1, 360: 2, 480: 1, 540: 1,
                  720: 2, 1440: 1, 2160: 3, 2880: 2, 3240: 1, 5184: 1}


@pytest.mark.parametrize("kind, count, sizes", [
    (GroupKind.sp(2), 34, {1: 2, 40: 4, 90: 1, 240: 2, 360: 4, 480: 2, 540: 3, 1440: 4,
                           2160: 4, 2880: 4, 4320: 1, 5184: 2, 6480: 1}),
    (GroupKind.psp(2), 20, OMEGA5_CLASSES),
    (GroupKind.so_odd(2), 20, OMEGA5_CLASSES),
])
def test_class_counts_of_order_25920_and_51840(kind, count, sizes):
    ctx = GroupCtx(kind, F3)
    res = reidemeister_count(ctx, GroupAut.identity(ctx))
    assert res.count == count
    got = {}
    for size in res.report.orbit_sizes:
        got[size] = got.get(size, 0) + 1
    assert got == sizes


def _reference_orbit(x, sigma):
    """Per-element breadth-first search: the oracle for twisted_orbit_of."""
    gens = generators(x.ctx)
    steps = gens + [g.inverse() for g in gens]
    seen = {x: x.ctx.identity()}
    frontier = [x]
    while frontier:
        fresh = []
        for cur in frontier:
            for h in steps:
                nxt = twist_step(h, cur, sigma)
                if nxt not in seen:
                    seen[nxt] = h * seen[cur]
                    fresh.append(nxt)
        frontier = fresh
    return seen


@pytest.mark.parametrize("ctx, sigma, which", [
    (SL2_F3, GroupAut(SL2_F3, graph="tinv"), None),
    (PSL2_F3, GroupAut.identity(PSL2_F3), None),
    (SL2_F9, GroupAut(SL2_F9, ring=1), [0, 1]),  # orbits of size 30 and 120
    (SL3_F3, GroupAut(SL3_F3, graph="tinv"), [0]),  # the orbit of size 234
], ids=["SL2_F3-tinv", "PSL2_F3-id", "SL2_F9-frob", "SL3_F3-tinv"])
def test_twisted_orbit_of_matches_reference(ctx, sigma, which):
    reps = twisted_orbits(ctx, sigma).orbit_representatives
    for x in reps if which is None else [reps[i] for i in which]:
        orbit = twisted_orbit_of(x, sigma)
        assert list(orbit.items()) == list(_reference_orbit(x, sigma).items())
        for y, w in orbit.items():
            assert twist_step(w, x, sigma) == y


def test_twisted_orbit_of_cap_is_exact():
    frob = GroupAut(SL2_F9, ring=1)
    reps = twisted_orbits(SL2_F9, frob).orbit_representatives[:4]
    sizes = [len(twisted_orbit_of(x, frob)) for x in reps]
    assert sizes == [30, 120, 120, 180]
    for x, size in zip(reps, sizes):
        with pytest.raises(CapExceeded):
            twisted_orbit_of(x, frob, cap=size - 1)
        assert len(twisted_orbit_of(x, frob, cap=size)) == size


@pytest.mark.parametrize("ctx, sigma, count", [
    (GroupCtx(GroupKind.sl(2), Fq(3, 3)), "ring", 6),
    (GroupCtx(GroupKind.sp(2), F3), "id", 8),
    (SL2_F9, "ring", 4),
], ids=["SL2_F27", "Sp4_F3", "SL2_F9"])
def test_one_action_per_root_and_basis_parameter(ctx, sigma, count):
    aut = GroupAut(ctx, ring=1) if sigma == "ring" else GroupAut.identity(ctx)
    G = enumerate_group(ctx)
    actions = twist._twisted_generator_actions(G, aut)
    assert len(actions) == count
    for perm in actions:
        assert sorted(perm.tolist()) == list(range(G.order))


def _product_actions(G, sigma):
    """x -> h x sigma(h)^(-1) for each basis root element h, as two stack
    products and a lookup."""
    field = G.ctx.field
    actions = []
    for h in basis_generators(G.ctx):
        left = mat_mul(field, mat_to_codes(h.mat), G.codes)
        prods = mat_mul(field, left, mat_to_codes(sigma(h).inverse().mat))
        actions.append(G.indices_of_stack(prods))
    return actions


def _action_case(kind, field, aut):
    ctx = GroupCtx(kind, field)
    G = enumerate_group(ctx)
    inner = G.elem(G.order // 3)  # far from the identity in the search
    parts = {"inner": inner, "ring": 1, "graph": "tinv"}
    return G, GroupAut(ctx, **{part: parts[part] for part in aut})


@pytest.mark.parametrize("kind, field, aut", [
    (GroupKind.sl(2), F9, ("ring",)),
    (GroupKind.sl(2), F9, ("inner", "ring")),
    (GroupKind.psl(2), F9, ("inner", "ring")),
    (GroupKind.sl(3), F3, ("graph",)),
    (GroupKind.sl(3), F3, ("inner", "graph")),
    (GroupKind.psl(3), F3, ("inner", "graph")),
    (GroupKind.sl(2), Fq(3, 3), ("ring",)),
    (GroupKind.sp(2), F3, ("inner",)),
    (GroupKind.psp(2), F3, ("inner",)),
    (GroupKind.so_odd(2), F3, ("inner",)),
    (GroupKind.so_odd(2), F3, ()),
], ids=lambda v: "+".join(v) or "id" if isinstance(v, tuple) else repr(v))
def test_index_actions_match_product_actions(kind, field, aut):
    G, sigma = _action_case(kind, field, aut)
    got = twist._twisted_generator_actions(G, sigma)
    want = _product_actions(G, sigma)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a == b).all()


def test_identity_count_partitions_once(monkeypatch):
    # with sigma the identity, the Burnside pass reuses the conjugation
    # partition: the actions are built once, for the twisted partition
    calls = []
    real = twist._twisted_generator_actions

    def counted(G, sigma):
        calls.append(sigma)
        return real(G, sigma)

    monkeypatch.setattr(twist, "_twisted_generator_actions", counted)
    res = reidemeister_count(SL2_F3, GroupAut.identity(SL2_F3))
    assert (res.count, res.burnside_count, res.method) == (7, 7, "orbit-partition+burnside")
    assert len(calls) == 1
    calls.clear()
    reidemeister_count(SL2_F3, GroupAut(SL2_F3, graph="tinv"))
    assert [sigma.is_identity for sigma in calls] == [False, True]
