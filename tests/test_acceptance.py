"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line with its runtime; every tolerance is
exact equality in the relevant field or ring.  Run with `pytest -v` (one
line per criterion) or `-s` to see the timing lines.
"""

import time

from chevtwist.auts import GroupAut, b_matrix
from chevtwist.gf import Fq
from chevtwist.groups import (
    GroupCtx,
    GroupKind,
    canonical_rep,
    center,
    enumerate_group,
    form_matrix,
)
from chevtwist.polyring import Poly, RatFrac, RingDesc, fixed_element, ring_automorphisms
from chevtwist.twist import (
    quotient_count_comparison,
    reidemeister_count,
    twist_step,
    twisted_orbit_of,
)
from chevtwist.witness import (
    FAMILY_SL,
    FAMILY_SP,
    WitnessConfig,
    block_constraint_check,
    explicit_conjugator,
    obstruction_report,
    power_identity_check,
    trace_certificate,
    witness_sl,
    witness_so,
    witness_sp,
)

F3 = Fq(3, 1)


def _report(number, name, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s < {budget}s]")


def _config(p, family=FAMILY_SL, n=2):
    field = Fq(p, 1)
    ring = RingDesc(field)
    s = fixed_element(Poly.t(field), ring)
    return WitnessConfig(ring=ring, s=s, family=family, n=n)


def test_criterion_1_trace_law():
    started = time.time()
    for p in (3, 5):
        cfg = _config(p)
        s_deg = cfg.s.num.degree()
        field = cfg.ring.field
        for r in range(1, 7):
            degrees = []
            for m in range(1, 5):
                cert = trace_certificate(m, r, cfg)
                # recurrence == direct power is enforced inside; re-assert
                # the degree law and leading coefficient here
                assert cert.deg_t == 2 * r * m * s_deg
                assert cert.leading_coeff == (-field.one) ** r * cfg.s.num.leading_coeff() ** (2 * r * m)
                degrees.append(cert.deg_t)
            assert len(set(degrees)) == len(degrees), "degrees collide across indices"
    _report(1, "trace law", started, 5)


def test_criterion_2_trace_doubling():
    started = time.time()
    for p in (3, 5):
        cfg = _config(p, family=FAMILY_SP)
        for m in range(1, 5):
            y = witness_sp(m, cfg, 2)  # a product of root elements, so a member
            x = witness_sl(m, cfg, 2)
            for r in range(1, 7):
                assert (y.mat ** r).trace() == (x.mat ** r).trace() * 2
    _report(2, "trace doubling", started, 5)


def test_criterion_3_power_identities():
    started = time.time()
    ring = RingDesc(F3)
    s = fixed_element(Poly.t(F3), ring)
    for n in (2, 3):  # SO_5 and SO_7
        for r in range(1, 9):
            assert power_identity_check(s, r, "SOodd", n, ring)
    for n in (3, 4):  # SO_6 and SO_8
        for r in (2, 4, 6, 8):
            assert power_identity_check(s, r, "SOeven", n, ring)
        B = b_matrix(n, ring)
        ident = GroupCtx(GroupKind.so_even(n), ring).identity_mat()
        A = form_matrix(GroupKind.so_even(n), n, ring)
        assert B * B == ident
        assert B.transpose() * A * B == A
    _report(3, "power identities", started, 5)


def test_criterion_4_reidemeister_counts():
    started = time.time()
    sl2 = GroupCtx(GroupKind.sl(2), F3)
    psl2 = GroupCtx(GroupKind.psl(2), F3)
    res_sl = reidemeister_count(sl2, GroupAut.identity(sl2))
    assert res_sl.count == 7
    assert res_sl.burnside_count == 7
    res_psl = reidemeister_count(psl2, GroupAut.identity(psl2))
    assert res_psl.count == 4
    assert res_psl.burnside_count == 4
    F9 = Fq(3, 2)
    sl2_f9 = GroupCtx(GroupKind.sl(2), F9)
    res_frob = reidemeister_count(sl2_f9, GroupAut(sl2_f9, ring=1))
    assert res_frob.burnside_count == res_frob.count  # both methods agree
    assert quotient_count_comparison(sl2, psl2, GroupAut.identity(sl2)) == (7, 4)
    _report(4, "Reidemeister counts", started, 30)


def test_criterion_5_fixed_group_power_reduction():
    started = time.time()
    F9 = Fq(3, 2)
    ctx = GroupCtx(GroupKind.sl(2), F9)
    frob = GroupAut(ctx, ring=1)
    G = enumerate_group(ctx)
    fixed = [g for g in G.elements() if frob(g) == g]
    assert len(fixed) == 24  # the rational points of the smaller field
    pending = list(fixed)
    pairs = 0
    while pending:
        orbit = twisted_orbit_of(pending[0], frob)
        members = [g for g in pending if g in orbit]
        pending = [g for g in pending if g not in orbit]
        for x in members:
            gx_inv = orbit[x].inverse()
            for y in members:
                z = orbit[y] * gx_inv
                assert twist_step(z, x, frob) == y  # verified twisted witness
                assert z * (x ** 2) * z.inverse() == y ** 2
                pairs += 1
    assert pairs >= len(fixed)  # every fixed element pairs at least with itself
    _report(5, "fixed-group power reduction", started, 60)


def test_criterion_6_obstruction_certificates():
    started = time.time()
    ring = RingDesc(F3, ["t"])
    s = fixed_element(Poly.t(F3), RingDesc(F3))  # polynomial, non-unit in ring
    assert ring.contains(s) and not ring.is_unit(s)
    for k in range(1, 6):
        for kp in range(k + 1, 6):
            rep = obstruction_report(s ** k, s ** kp, ring)
            assert rep.verdict == "Separated"
    c = RatFrac.t(F3)  # a unit of the localization
    lam = s
    g = explicit_conjugator(lam, c, "SOodd", 2, ring)
    # conjugation identity g x_lam g^-1 = x_{c^2 lam} is asserted inside;
    # restate it and check the entry-level relations on the intertwining
    assert g * witness_so(lam, "SOodd", 2, ring) * g.inverse() == witness_so(c * c * lam, "SOodd", 2, ring)
    assert block_constraint_check(g, c * c * lam, lam)
    assert obstruction_report(lam, c * c * lam, ring).verdict == "NotSeparated"
    _report(6, "obstruction certificates", started, 5)


def test_criterion_7_automorphism_algebra():
    started = time.time()
    import random

    rng = random.Random(2024)
    from chevtwist.groups import generators

    for kind, graph in [(GroupKind.sl(3), "tinv"), (GroupKind.so_even(3), "B")]:
        ctx = GroupCtx(kind, F3)
        gens = generators(ctx)

        def rand_elem():
            g = ctx.identity()
            for _ in range(6):
                g = g * rng.choice(gens)
            return g

        def rand_aut():
            return GroupAut(
                ctx,
                inner=rand_elem() if rng.random() < 0.8 else None,
                graph=rng.choice([None, graph]),
            )

        eps = GroupAut(ctx, graph=graph)
        rho = GroupAut(ctx)  # ring part is trivial over the prime field
        for _ in range(50):
            sigma, tau, g = rand_aut(), rand_aut(), rand_elem()
            assert sigma.compose(tau)(g) == sigma(tau(g))
            x = rand_elem()
            left = sigma.compose(GroupAut(ctx, inner=x))
            right = GroupAut(ctx, inner=sigma(x)).compose(sigma)
            assert left == right and left(g) == right(g)
            assert eps.compose(rho)(g) == rho.compose(eps)(g)
            assert eps(eps(g)) == g
        assert eps.compose(eps).is_identity
    _report(7, "automorphism algebra", started, 10)


def test_criterion_8_center_triviality():
    started = time.time()
    so5 = GroupCtx(GroupKind.so_odd(2), F3)
    assert center(so5) == [so5.identity()]
    sp4 = GroupCtx(GroupKind.sp(2), F3)
    neg = sp4.elem([[2 if i == j else 0 for j in range(4)] for i in range(4)])
    assert set(center(sp4)) == {sp4.identity(), neg}
    psp4 = GroupCtx(GroupKind.psp(2), F3)
    neg_mat = neg.mat
    assert canonical_rep(psp4, neg_mat) == canonical_rep(psp4, psp4.identity_mat())
    _report(8, "center triviality", started, 60)


def test_criterion_9_fixed_element_construction():
    started = time.time()
    ring = RingDesc(F3)
    s = fixed_element(Poly.t(F3), ring)
    expected = RatFrac(Poly.from_elems(F3, [0, 0, 2, 0, 2, 0, 2]))
    assert s == expected  # 2 t^6 + 2 t^4 + 2 t^2
    auts = ring_automorphisms(ring)
    assert len(auts) == 6
    for sigma in auts:
        assert sigma(s) == s
    assert not ring.is_unit(s)
    _report(9, "fixed element construction", started, 1)
