"""Witness families and their separating certificates."""

import pytest

from chevtwist.auts import b_matrix
from chevtwist.errors import (
    IncompatibleKind,
    NotAConjugator,
    NotUnit,
    OddPower,
    TrialityUnsupported,
    UnitInput,
    ZeroLambda,
)
from chevtwist.gf import Fq
from chevtwist.groups import GroupCtx, GroupKind, is_member  # noqa: F401
from chevtwist.matrices import Mat
from chevtwist.polyring import Poly, RatFrac, RingDesc, fixed_element
from chevtwist.witness import (
    FAMILY_SL,
    FAMILY_SO_EVEN,
    FAMILY_SP,
    WitnessConfig,
    block_constraint_check,
    d4_tau_suite,
    decompose_blocks,
    explicit_conjugator,
    obstruction_report,
    power_identity_check,
    trace_certificate,
    witness_sl,
    witness_so,
    witness_sp,
)

F3 = Fq(3, 1)
R3 = RingDesc(F3)
R3_T = RingDesc(F3, ["t"])
S3 = fixed_element(Poly.t(F3), R3)
CFG3 = WitnessConfig(ring=R3, s=S3, family=FAMILY_SL, n=2)


def test_config_validation():
    with pytest.raises(UnitInput):
        WitnessConfig(ring=R3, s=RatFrac.const(F3, 2), family=FAMILY_SL, n=2)
    with pytest.raises(ValueError):
        WitnessConfig(ring=R3, s=S3, family="bogus", n=2)


def test_witness_sl_block_values():
    x = witness_sl(2, CFG3, 3)
    u = S3 ** 2
    assert x.mat[0, 0] == RatFrac.one(F3) - u * u
    assert x.mat[0, 1] == u
    assert x.mat[1, 0] == -u
    assert x.mat[1, 1] == RatFrac.one(F3)
    assert x.mat[2, 2] == RatFrac.one(F3)
    assert x.mat.det() == RatFrac.one(F3)


def test_trace_certificate_small_powers():
    u = S3
    cert1 = trace_certificate(1, 1, CFG3)
    assert cert1.trace == 2 - u * u
    cert2 = trace_certificate(1, 2, CFG3)
    assert cert2.trace == 2 - 4 * u ** 2 + u ** 4
    assert cert1.deg_t == 12 == 2 * 1 * 1 * 6


def test_trace_certificate_sweep_f3():
    for m in range(1, 4):
        for r in range(1, 5):
            cert = trace_certificate(m, r, CFG3)
            assert cert.ok
            assert cert.deg_t == 2 * r * m * 6
            assert cert.leading_coeff == (-F3.one) ** r * S3.num.leading_coeff() ** (2 * r * m)


def test_trace_polynomial_specializes_correctly():
    # independent oracle: evaluating t at points of F_9 must commute with
    # taking traces of matrix powers computed purely in the finite field
    F9 = Fq(3, 2)

    def embed_eval(poly, theta):
        acc = F9.zero
        for code in reversed(poly._codes):
            acc = acc * theta + F9.elem(code)
        return acc

    for m, r in [(1, 1), (1, 3), (2, 2)]:
        cert = trace_certificate(m, r, CFG3)
        for theta in F9.elements():
            s_val = embed_eval(S3.num, theta)
            u = s_val ** m
            x = Mat([[F9.one - u * u, u], [-u, F9.one]])
            assert (x ** r).trace() == embed_eval(cert.trace.num, theta)


def test_trace_degrees_separate_indices():
    r = 3
    degrees = [trace_certificate(m, r, CFG3).deg_t for m in range(1, 5)]
    assert len(set(degrees)) == len(degrees)


def test_witness_sp_membership_and_doubling():
    cfg = WitnessConfig(ring=R3, s=S3, family=FAMILY_SP, n=2)
    for m in (1, 2):
        y = witness_sp(m, cfg, 2)
        x = witness_sl(m, cfg, 2)
        assert is_member(y.ctx, y.mat)
        for r in range(1, 5):
            assert (y.mat ** r).trace() == (x.mat ** r).trace() * 2
            assert (y.mat ** r).trace() == trace_certificate(m, r, cfg).trace * 2


def test_witness_sp_doubling_nontrivial():
    # 4 - 2 s^2 is nonzero: the doubling factor is invertible in odd
    # characteristic
    cfg = WitnessConfig(ring=R3, s=S3, family=FAMILY_SP, n=2)
    y = witness_sp(1, cfg, 2)
    assert y.trace() == 2 * (2 - S3 ** 2)
    assert not y.trace().is_zero


def test_witness_sp_higher_rank():
    cfg = WitnessConfig(ring=R3, s=S3, family=FAMILY_SP, n=3)
    y = witness_sp(1, cfg, 3)
    x = witness_sl(1, cfg, 3)
    assert is_member(y.ctx, y.mat)
    assert (y.mat ** 2).trace() == (x.mat ** 2).trace() * 2


def test_witness_so_membership_and_shape():
    t = RatFrac.t(F3)
    for kind, n in [("SOodd", 2), ("SOodd", 3), ("SOeven", 3), ("SOeven", 4)]:
        x = witness_so(t, kind, n, R3)
        assert is_member(x.ctx, x.mat)
        nonzero_off_diag = [
            (i, j)
            for i in range(x.ctx.dim)
            for j in range(x.ctx.dim)
            if i != j and x.mat[i, j] != RatFrac.zero(F3)
        ]
        assert nonzero_off_diag == [(0, n + 1), (1, n)]
        assert x.mat[0, n + 1] == -t
        assert x.mat[1, n] == t


def test_witness_so_inverse_negates_parameter():
    t = RatFrac.t(F3)
    x = witness_so(t, "SOodd", 2, R3)
    assert x.inverse() == witness_so(-t, "SOodd", 2, R3)


def test_witness_so_zero_rejected():
    with pytest.raises(ZeroLambda):
        witness_so(RatFrac.zero(F3), "SOodd", 2, R3)


def test_power_identity_so_odd():
    t = RatFrac.t(F3)
    for n in (2, 3):
        for r in range(1, 9):
            assert power_identity_check(t, r, "SOodd", n, R3)
            assert power_identity_check(S3, r, "SOodd", n, R3)


def test_power_identity_characteristic_collapse():
    # 3 * lambda = 0 over F_3: the cube of the witness is the identity
    t = RatFrac.t(F3)
    x = witness_so(t, "SOodd", 2, R3)
    assert x.mat ** 3 == x.ctx.identity_mat()
    assert power_identity_check(t, 3, "SOodd", 2, R3)


def test_power_identity_so_even():
    t = RatFrac.t(F3)
    for n in (3, 4):
        for r in (2, 4, 6, 8):
            assert power_identity_check(t, r, "SOeven", n, R3)
    with pytest.raises(OddPower):
        power_identity_check(t, 3, "SOeven", 3, R3)


def test_reflected_witness_squares_to_shifted_parameter():
    # (x_lambda B)^2 = x_{2 lambda}, spelled out at rank 3
    t = RatFrac.t(F3)
    x = witness_so(t, "SOeven", 3, R3)
    B = b_matrix(3, R3)
    assert (x.mat * B) ** 2 == witness_so(2 * t, "SOeven", 3, R3).mat


def test_obstruction_separates_fixed_element_powers():
    for k in range(1, 4):
        for kp in range(k + 1, 4):
            rep = obstruction_report(S3 ** k, S3 ** kp, R3_T)
            assert rep.verdict == "Separated"
            assert not rep.ratio_is_unit


def test_obstruction_unit_ratio_not_separated():
    t = RatFrac.t(F3)
    lam = S3
    c = t  # unit of F_3[t][1/t]
    rep = obstruction_report(lam, lam * c * c, R3_T)
    assert rep.verdict == "NotSeparated"
    rep_same = obstruction_report(lam, lam, R3_T)
    assert rep_same.verdict == "NotSeparated"
    assert rep_same.ratio == RatFrac.one(F3)


def test_obstruction_requires_ring_members():
    from chevtwist.errors import NotInRing

    t = RatFrac.t(F3)
    with pytest.raises(NotInRing):
        obstruction_report(1 / (t + 1), t, R3_T)


def test_explicit_conjugator_action():
    t = RatFrac.t(F3)
    one = RatFrac.one(F3)
    g = explicit_conjugator(one, t, "SOodd", 2, R3_T)
    x1 = witness_so(one, "SOodd", 2, R3_T)
    assert g * x1 * g.inverse() == witness_so(t * t, "SOodd", 2, R3_T)
    g_triv = explicit_conjugator(S3, one, "SOodd", 2, R3_T)
    x = witness_so(S3, "SOodd", 2, R3_T)
    assert g_triv * x * g_triv.inverse() == x


def test_explicit_conjugator_rejects_non_units():
    with pytest.raises(NotUnit):
        explicit_conjugator(RatFrac.one(F3), RatFrac.t(F3), "SOodd", 2, R3)


def test_conjugator_consistent_with_obstruction():
    t = RatFrac.t(F3)
    rep = obstruction_report(S3, S3 * t * t, R3_T)
    assert rep.verdict == "NotSeparated"


def test_block_constraints_on_explicit_conjugator():
    t = RatFrac.t(F3)
    for kind, n in [("SOodd", 2), ("SOodd", 3), ("SOeven", 3)]:
        lam = S3
        g = explicit_conjugator(lam, t, kind, n, R3_T)
        # g x_lam g^-1 = x_{t^2 lam}, so x_{t^2 lam} g = g x_lam
        assert block_constraint_check(g, t * t * lam, lam)


def test_block_constraints_projective_route():
    # in the projective quotient the intertwining only holds up to sign;
    # the check passes to the squared relation, which is exact
    t = RatFrac.t(F3)
    lam = S3
    g_lin = explicit_conjugator(lam, t, "SOeven", 3, R3_T)
    pso = GroupCtx(GroupKind.pso_even(3), R3_T)
    g_pso = pso.elem(g_lin.mat)
    assert block_constraint_check(g_pso, t * t * lam, lam)
    neg = pso.elem(g_lin.mat * RatFrac.const(F3, 2))  # same coset
    assert g_pso == neg
    assert block_constraint_check(neg, t * t * lam, lam)


def test_block_constraints_identity_case():
    x = witness_so(S3, "SOodd", 2, R3)
    ident = x.ctx.identity()
    assert block_constraint_check(ident, S3, S3)


def test_block_constraints_reject_non_conjugator():
    g = witness_so(RatFrac.t(F3), "SOodd", 2, R3)  # does not intertwine
    with pytest.raises(NotAConjugator):
        block_constraint_check(g, S3, S3 ** 2)


def test_block_decomposition_shape():
    g = explicit_conjugator(S3, RatFrac.t(F3), "SOodd", 2, R3_T)
    dec = decompose_blocks(g)
    assert dec.K.nrows == 2 and dec.N.nrows == 2
    assert dec.last_col is not None and dec.last_row is not None
    h = witness_so(S3, "SOeven", 3, R3)
    dec_even = decompose_blocks(h)
    assert dec_even.last_col is None


def test_d4_suite_passes():
    s_loc = fixed_element(Poly.from_elems(F3, [1, 1]), R3_T)  # t + 1 seed
    cfg = WitnessConfig(ring=R3_T, s=s_loc, family=FAMILY_SO_EVEN, n=4)
    report = d4_tau_suite(cfg, k_max=2)
    assert report.passed
    assert report.reflection_order == 2
    names = [name for name, _ in report.checks]
    assert "reflection_involution" in names
    assert "power_identity_r8" in names


def test_d4_rejects_triality():
    cfg = WitnessConfig(ring=R3, s=S3, family=FAMILY_SO_EVEN, n=4)
    with pytest.raises(TrialityUnsupported):
        d4_tau_suite(cfg, graph="sigma")


def test_d4_needs_rank_four():
    cfg = WitnessConfig(ring=R3, s=S3, family=FAMILY_SO_EVEN, n=3)
    with pytest.raises(ValueError):
        d4_tau_suite(cfg)


def test_witness_so_over_finite_field():
    x = witness_so(F3.one, "SOodd", 2, F3)
    assert is_member(x.ctx, x.mat)
    assert power_identity_check(F3.one, 4, "SOodd", 2, F3)
    g = explicit_conjugator(F3.one, F3.elem(2), "SOodd", 2, F3)
    assert block_constraint_check(g, F3.elem(2) ** 2 * F3.one, F3.one)


def test_block_constraints_on_all_finite_conjugators():
    # every conjugator between witness elements found inside the finite
    # group satisfies the entry-level relations
    import numpy as np

    from chevtwist.groups import (
        enumerate_group,
        mat_to_codes,
        mul_pairwise,
        mul_stack,
    )

    ctx = GroupCtx(GroupKind.so_odd(2), F3)
    G = enumerate_group(ctx)
    inv = G.inverse_indices()
    checked = 0
    for lam_code, lamp_code in [(1, 1), (1, 2), (2, 2)]:
        lam, lamp = F3.from_code(lam_code), F3.from_code(lamp_code)
        x = witness_so(lam, "SOodd", 2, F3)
        y = witness_so(lamp, "SOodd", 2, F3)
        # g x g^-1 over the whole group in one vectorized pass
        gx = mul_stack(G.ctx.field, G.codes, mat_to_codes(x.mat))
        conj = mul_pairwise(G.ctx.field, gx, G.codes[inv])
        hits = np.nonzero(
            (conj == mat_to_codes(y.mat)[None, :, :]).all(axis=(1, 2))
        )[0]
        for i in hits[:12]:
            g = G.elem(int(i))
            assert g * x * g.inverse() == y
            # g x g^-1 = y means y g = g x: first slot takes the target
            assert block_constraint_check(g, lamp, lam)
            checked += 1
    assert checked  # at least the centralizer of each witness shows up


def test_witness_block_check_wrong_kind():
    cfg = WitnessConfig(ring=R3, s=S3, family=FAMILY_SL, n=3)
    x = witness_sl(1, cfg, 3)
    with pytest.raises(IncompatibleKind):
        block_constraint_check(x, S3, S3)


def test_orthogonal_witnesses_reuse_the_context_they_hold(monkeypatch):
    # witness_so builds the one context of a call; the checks build every
    # further x_lambda in it
    built = []
    init = GroupCtx.__init__

    def counting_init(self, kind, scalars):
        built.append(kind)
        init(self, kind, scalars)

    t = RatFrac.t(F3)
    g = explicit_conjugator(S3, t, "SOodd", 2, R3_T)
    monkeypatch.setattr(GroupCtx, "__init__", counting_init)
    assert explicit_conjugator(S3, t, "SOodd", 2, R3_T) == g
    assert power_identity_check(S3, 2, "SOeven", 3, R3_T)
    assert block_constraint_check(g, t * t * S3, S3)
    assert built == [GroupKind.so_odd(2), GroupKind.so_even(3)]
    with pytest.raises(ZeroLambda):
        block_constraint_check(g, S3, RatFrac.zero(F3))
