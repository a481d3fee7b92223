"""Group contexts, forms, membership, generators, enumeration, centers."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevtwist.errors import (
    CapExceeded,
    CertificateMismatch,
    NoForm,
    NotInGroup,
    NotProjective,
    SizeMismatch,
    Unsupported,
)
from chevtwist import groups
from chevtwist.auts import GroupAut
from chevtwist.gf import Fq
from chevtwist.groups import (
    ENUM_CAP,
    FiniteGroup,
    GrpElem,
    GroupCtx,
    GroupKind,
    canonical_entries,
    canonical_rep,
    canonical_stack,
    center,
    closure,
    codes_to_mat,
    enumerate_group,
    expected_order,
    form_matrix,
    generators,
    is_member,
    mat_mul,
    mat_to_codes,
    order_omega_odd,
    order_omega_plus,
    order_sl,
    order_sp,
    projective_canonicalize,
    root_directions,
    root_element,
    row_codes,
    row_entries,
    row_keys,
    row_table,
    unit_mat,
)
from chevtwist.matrices import Mat
from chevtwist.polyring import (
    Poly,
    RatFrac,
    RingDesc,
    fixed_element,
    parse_frac,
    parse_poly,
    ring_automorphisms,
)
from chevtwist.witness import FAMILY_SP, WitnessConfig, explicit_conjugator, witness_so, witness_sp

F3 = Fq(3, 1)
F9 = Fq(3, 2)


def test_kind_dimensions_and_bounds():
    assert GroupKind.sl(3).dim == 3
    assert GroupKind.sp(2).dim == 4
    assert GroupKind.so_odd(2).dim == 5
    assert GroupKind.so_even(3).dim == 6
    with pytest.raises(ValueError):
        GroupKind.so_even(2)
    with pytest.raises(ValueError):
        GroupKind.sl(1)


def test_characteristic_two_rejected():
    with pytest.raises(Unsupported):
        GroupCtx(GroupKind.sl(2), Fq(2, 1))


def test_form_so_odd_5x5():
    ctx = GroupCtx(GroupKind.so_odd(2), F3)
    A = ctx.form
    expected = [
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1],
    ]
    assert A == Mat([[F3.elem(v) for v in row] for row in expected])


def test_form_so_even_6x6():
    A = form_matrix(GroupKind.so_even(3), 3, F3)
    for i in range(3):
        for j in range(3):
            assert (A[i, 3 + j] == F3.one) == (i == j)
            assert (A[3 + i, j] == F3.one) == (i == j)
            assert A[i, j] == F3.zero and A[3 + i, 3 + j] == F3.zero


def test_form_sp_antisymmetric():
    A = form_matrix(GroupKind.sp(2), 2, F3)
    assert A.transpose() == -A
    assert A.det() == F3.one


def test_sl_has_no_form():
    with pytest.raises(NoForm):
        form_matrix(GroupKind.sl(3), 3, F3)


def test_membership_basics():
    ctx = GroupCtx(GroupKind.sl(2), F3)
    assert is_member(ctx, ctx.identity_mat())
    # diag(2,1) has determinant 2 over F_3
    assert not is_member(ctx, Mat([[F3.elem(2), F3.zero], [F3.zero, F3.one]]))
    ctx3 = GroupCtx(GroupKind.sl(3), F3)
    scalar2 = Mat([[F3.elem(2 if i == j else 0) for j in range(3)] for i in range(3)])
    assert not is_member(ctx3, scalar2)  # det = 8 = 2 over F_3
    with pytest.raises(SizeMismatch):
        is_member(ctx, Mat([[F3.one]]))


def test_membership_witness_so5_over_ring():
    R = RingDesc(F3)
    ctx = GroupCtx(GroupKind.so_odd(2), R)
    t = RatFrac.t(F3)
    one, zero = R.one, R.zero
    rows = [[one if i == j else zero for j in range(5)] for i in range(5)]
    rows[0][3] = -t
    rows[1][2] = t
    assert is_member(ctx, Mat(rows))


def test_membership_needs_ring_entries():
    R = RingDesc(F3)  # plain F_3[t], no inverted irreducibles
    ctx = GroupCtx(GroupKind.sl(2), R)
    t = RatFrac.t(F3)
    mat = Mat([[1 / t, R.zero], [R.zero, t]])
    assert mat.det() == R.one
    assert not is_member(ctx, mat)


def test_membership_multiplicative_closure():
    rng = random.Random(5)
    for ctx in [
        GroupCtx(GroupKind.sl(2), F9),
        GroupCtx(GroupKind.sp(2), F3),
        GroupCtx(GroupKind.so_odd(2), F3),
        GroupCtx(GroupKind.so_even(3), F3),
        GroupCtx(GroupKind.so_even(4), F3),
    ]:
        gens = generators(ctx)
        for _ in range(10):
            g = ctx.identity()
            h = ctx.identity()
            for _ in range(5):
                g = g * rng.choice(gens)
                h = h * rng.choice(gens)
            assert is_member(ctx, (g * h).mat)
            assert is_member(ctx, g.inverse().mat)


def test_generators_pass_membership():
    for ctx in [
        GroupCtx(GroupKind.sl(3), F3),
        GroupCtx(GroupKind.sp(2), F3),
        GroupCtx(GroupKind.so_odd(2), F3),
        GroupCtx(GroupKind.so_even(3), F3),
    ]:
        for g in generators(ctx):
            assert is_member(ctx, g.mat)


def test_generators_need_finite_scalars():
    with pytest.raises(Unsupported):
        generators(GroupCtx(GroupKind.sl(2), RingDesc(F3)))


def test_sl2_f3_closure_has_24_elements():
    G = enumerate_group(GroupCtx(GroupKind.sl(2), F3))
    assert G.order == 24 == order_sl(2, 3)


def test_psl2_f3_has_12_cosets():
    G = enumerate_group(GroupCtx(GroupKind.psl(2), F3))
    assert G.order == 12


def test_sp4_f3_closure_matches_formula():
    G = enumerate_group(GroupCtx(GroupKind.sp(2), F3))
    assert G.order == 51840 == order_sp(2, 3)


def test_sl2_f9_closure_matches_formula():
    G = enumerate_group(GroupCtx(GroupKind.sl(2), F9))
    assert G.order == 720 == order_sl(2, 9)


def test_enumeration_cap_is_an_error():
    from chevtwist.errors import CapExceeded

    with pytest.raises(CapExceeded):
        enumerate_group.__wrapped__(GroupCtx(GroupKind.sl(2), F3), 10)


def test_enumeration_cap_just_below_the_order():
    ctx = GroupCtx(GroupKind.sl(3), F3)
    with pytest.raises(CapExceeded):
        enumerate_group(ctx, cap=order_sl(3, 3) - 1)
    assert enumerate_group(ctx, cap=order_sl(3, 3)).order == order_sl(3, 3)


def test_omega_orders():
    # |Omega_5(3)| = |PSp_4(3)|; |Omega^+_6(3)| = |SL_4(3)| / 2
    assert order_omega_odd(2, 3) == 25_920
    assert order_omega_plus(3, 3) == 6_065_280 == order_sl(4, 3) // 2
    assert expected_order(GroupKind.so_odd(2), 3) == (25_920, True)
    assert expected_order(GroupKind.pso_even(3), 3) == (3_032_640, False)


@pytest.mark.parametrize("kind", [GroupKind.so_even(3), GroupKind.pso_even(3)], ids=repr)
def test_enumeration_refuses_before_any_product(kind, monkeypatch):
    def no_products(*args):
        raise AssertionError("a product was made")

    monkeypatch.setattr(groups, "mul_stack", no_products)
    with pytest.raises(CapExceeded, match="group enumeration exceeded cap 1000000"):
        enumerate_group.__wrapped__(GroupCtx(kind, F3))


def test_enumeration_checks_the_order_formula(monkeypatch):
    monkeypatch.setattr(groups, "expected_order", lambda kind, q: (25, True))
    with pytest.raises(CertificateMismatch):
        enumerate_group.__wrapped__(GroupCtx(GroupKind.sl(2), F3))


def test_enumeration_caches_one_entry_whatever_the_call_form():
    ctx = GroupCtx(GroupKind.sl(2), F3)
    enumerate_group.cache_clear()
    G = enumerate_group(ctx)
    assert enumerate_group(ctx, ENUM_CAP) is G
    assert enumerate_group(ctx, cap=ENUM_CAP) is G
    info = enumerate_group.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 2, 1)


def test_enumeration_deterministic():
    ctx = GroupCtx(GroupKind.sl(2), F3)
    a = enumerate_group.__wrapped__(ctx, 1_000_000)
    b = enumerate_group.__wrapped__(ctx, 1_000_000)
    assert (a.codes == b.codes).all()


def test_projective_canonicalize_collapses_center():
    ctx = GroupCtx(GroupKind.psp(2), F3)
    ident = ctx.identity()
    neg = ctx.elem([[2 if i == j else 0 for j in range(4)] for i in range(4)])
    assert ident == neg
    assert projective_canonicalize(neg) == projective_canonicalize(ident)


def test_projective_canonicalize_scalar_invariance():
    rng = random.Random(9)
    ctx = GroupCtx(GroupKind.psp(2), F3)
    gens = generators(ctx)
    for _ in range(10):
        g = ctx.identity()
        for _ in range(6):
            g = g * rng.choice(gens)
        scaled = canonical_rep(ctx, g.mat * F3.elem(2))
        assert scaled == g.mat
        assert canonical_rep(ctx, scaled) == scaled  # idempotent


def _entry_canonical_rep(ctx, mat):
    """The coset representative read off the entries: mat times the center
    scalar that gives its first nonzero entry the least sort_key."""
    lead = next(x for row in mat.rows for x in row if x)
    best = min(ctx.center_scalars(), key=lambda lam: (lam * lead).sort_key())
    return Mat([[best * x for x in row] for row in mat.rows])


def _boxed(m):
    """Whether the rows slot of m is set, read past __getattr__."""
    try:
        Mat.rows.__get__(m)
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("kind, q", [
    (GroupKind.psl(2), (3, 2)), (GroupKind.psl(3), (3, 1)),
    (GroupKind.psp(2), (3, 1)), (GroupKind.pso_even(3), (5, 1)),
], ids=lambda v: repr(v) if isinstance(v, GroupKind) else f"F{v[0] ** v[1]}")
def test_canonical_rep_of_code_rows_matches_the_entries(kind, q):
    # every center multiple of a few members, coded and from entries
    rng = random.Random(3)
    ctx = GroupCtx(kind, Fq(*q))
    gens = generators(ctx)
    for _ in range(6):
        g = ctx.identity()
        for _ in range(5):
            g = g * rng.choice(gens)
        for lam in ctx.center_scalars():
            coded = g.mat * lam
            rep = canonical_rep(ctx, coded)
            assert not _boxed(rep)
            assert rep == _entry_canonical_rep(ctx, coded) == g.mat
            assert canonical_rep(ctx, Mat(coded.rows)) == rep


def test_projective_products_stay_coded():
    ctx = GroupCtx(GroupKind.psl(2), Fq(3, 2))
    g, h = generators(ctx)[:2]
    assert len(ctx.center_scalars()) == 2 and not _boxed((g * h).mat)


def test_psl3_f3_center_scalars_trivial():
    # cube roots of unity over F_3: only 1, so canonicalization is identity
    ctx = GroupCtx(GroupKind.psl(3), F3)
    assert ctx.center_scalars() == [F3.one]
    mat = ctx.elem([[1, 1, 0], [0, 1, 0], [0, 0, 1]]).mat
    assert canonical_rep(ctx, mat) == mat


def test_not_projective_error():
    g = GroupCtx(GroupKind.sl(2), F3).identity()
    with pytest.raises(NotProjective):
        projective_canonicalize(g)


def test_center_values():
    c_sl2 = center(GroupCtx(GroupKind.sl(2), F3))
    assert len(c_sl2) == 2  # scalar solutions of det = 1: +I and -I
    c_sp4 = center(GroupCtx(GroupKind.sp(2), F3))
    ident = GroupCtx(GroupKind.sp(2), F3).identity()
    neg = GroupCtx(GroupKind.sp(2), F3).elem(
        [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    )
    assert set(c_sp4) == {ident, neg}
    c_so5 = center(GroupCtx(GroupKind.so_odd(2), F3))
    assert c_so5 == [GroupCtx(GroupKind.so_odd(2), F3).identity()]


@pytest.mark.parametrize("n,field,has_minus_one", [
    (3, F3, False),  # 3^3 = 27 = 3 (mod 4): -I has non-square spinor norm
    (3, Fq(5), True),
    (3, F9, True),
    (4, F3, True),
])
def test_center_so_even_is_the_center_of_omega(n, field, has_minus_one):
    # -I lies in Omega^+_2n(q) iff its spinor norm, the discriminant (-1)^n
    # of the form, is a square: iff q^n = 1 (mod 4)
    ctx = GroupCtx(GroupKind.so_even(n), field)
    minus = ctx.elem([[-1 if i == j else 0 for j in range(2 * n)] for i in range(2 * n)])
    expected = [ctx.identity(), minus] if has_minus_one else [ctx.identity()]
    assert center(ctx) == expected


def test_center_adjoint_projective_trivial():
    for kind in [GroupKind.psl(3), GroupKind.psp(2), GroupKind.pso_even(3)]:
        ctx = GroupCtx(kind, F3)
        assert center(ctx) == [ctx.identity()]


def test_center_adjoint_trivial_over_f9():
    for kind in [GroupKind.psl(3), GroupKind.so_odd(2)]:
        ctx = GroupCtx(kind, F9)
        assert center(ctx) == [ctx.identity()]


def test_center_refuses_beyond_its_cap():
    # the scalar matrices of SL_2(F_3) give 3 kernel combinations
    ctx = GroupCtx(GroupKind.sl(2), F3)
    with pytest.raises(CapExceeded):
        center(ctx, cap=2)
    assert len(center(ctx, cap=3)) == 2


def test_grp_elem_rejects_non_member():
    ctx = GroupCtx(GroupKind.sl(2), F3)
    with pytest.raises(ValueError):
        ctx.elem([[1, 0], [0, 2]])


# a root element with parameter a, a member whenever a lies in the scalars
ROOT_ENTRIES = {
    "SL": lambda n, a: [(0, 1, a)],
    "Sp": lambda n, a: [(0, 1, a), (n + 1, n, -a)],
    "SOodd": lambda n, a: [(0, n + 1, -a), (1, n, a)],
}


@pytest.mark.parametrize("scalars", [F3, RingDesc(F3, ["t"])], ids=["F3", "F3[t]_(t)"])
@pytest.mark.parametrize("kind", [GroupKind.sl(3), GroupKind.sp(2), GroupKind.so_odd(2)], ids=repr)
def test_constructors_verify_membership(kind, scalars):
    ctx = GroupCtx(kind, scalars)
    n, one = kind.n, ctx.one
    root = ROOT_ENTRIES[kind.family]
    a = one if ctx.is_finite else ctx.scalar(RatFrac.t(F3))
    member = unit_mat(ctx, root(n, a))
    assert GrpElem(ctx, member).mat == ctx.elem(member).mat == member
    bad = {"det": unit_mat(ctx, [(ctx.dim - 1, ctx.dim - 1, -(one + one))])}  # det -1
    if kind.formed:
        bad["form"] = unit_mat(ctx, root(n, a)[:1])  # det 1, half a root element
    if not ctx.is_finite:
        bad["entry"] = unit_mat(ctx, root(n, parse_frac(F3, "1 / t+1")))
    assert len(bad) == 1 + kind.formed + (not ctx.is_finite)
    for why, mat in bad.items():
        assert not is_member(ctx, mat), why
        with pytest.raises(NotInGroup):
            GrpElem(ctx, mat)
        with pytest.raises(NotInGroup):
            ctx.elem(mat)


def test_matrix_text_roundtrip():
    ctx = GroupCtx(GroupKind.sl(2), F9)
    g = ctx.elem([[F9.elem((1, 1)), F9.one], [F9.zero, F9.elem((1, 1)) ** (-1)]])
    assert ctx.parse_elem(str(g)) == g


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4)])
def test_mat_mul_matches_mat_products(p, e):
    field = Fq(p, e)
    rng = np.random.default_rng(p * 10 + e)
    for n in range(2, 6):
        stack = rng.integers(0, field.q, (3, n, n), dtype=np.uint8)
        other = rng.integers(0, field.q, (3, n, n), dtype=np.uint8)
        single = rng.integers(0, field.q, (n, n), dtype=np.uint8)
        cases = [
            (mat_mul(field, stack, single), [(a, single) for a in stack]),
            (mat_mul(field, single, stack), [(single, b) for b in stack]),
            (mat_mul(field, stack, other), list(zip(stack, other))),
            # one factor side by side with another, [single | other[0]]
            (mat_mul(field, stack, np.concatenate([single, other[0]], axis=1))[..., n:],
             [(a, other[0]) for a in stack]),
        ]
        for got, pairs in cases:
            for prod, (a, b) in zip(got, pairs):
                want = codes_to_mat(field, a) * codes_to_mat(field, b)
                assert codes_to_mat(field, prod) == want


@pytest.mark.parametrize("p, n", [(79, 336), (79, 345), (83, 300), (251, 33), (251, 34), (251, 300)])
def test_mat_mul_exact_at_the_float_bound(p, n):
    # n (p-1)^2 just below 2^21 takes the float32 path, just above the
    # int64 one; entries of p-1 give the largest sums, and at n = 300 they
    # pass 2^24, where float32 stops being exact.  The float32 reciprocal
    # of 83 rounds down, so the reduction needs its half-step offset there.
    field = Fq(p, 1, cap=p)
    rng = np.random.default_rng(n)
    A = np.full((2, n, n), p - 1, dtype=np.uint8)
    A[1] = rng.integers(0, p, (n, n))
    B = rng.integers(p - 2, p, (n, n), dtype=np.uint8)
    want = A.astype(np.int64) @ B.astype(np.int64) % p
    assert (mat_mul(field, A, B) == want).all()
    assert (mat_mul(field, A, np.stack([B, B])) == want).all()


@pytest.mark.parametrize("kind, field", [
    (GroupKind.sl(2), Fq(3, 3)),
    (GroupKind.so_odd(2), F3),
    (GroupKind.psl(2), F9),
])
def test_inverse_indices_match_mat_inverse(kind, field):
    ctx = GroupCtx(kind, field)
    G = enumerate_group(ctx)
    inv = G.inverse_indices()
    for i in random.Random(3).sample(range(G.order), 40):
        assert G.elem(int(inv[i])) == G.elem(i).inverse()


def test_index_of_round_trips():
    for ctx in [GroupCtx(GroupKind.sl(2), F9), GroupCtx(GroupKind.psp(2), F3)]:
        G = enumerate_group(ctx)
        for i in random.Random(4).sample(range(G.order), 20):
            assert G.indices_of_stack(mat_to_codes(G.elem(i).mat)[None]).tolist() == [i]


def test_index_of_non_member_raises():
    # diag(2,1,2,1,1) lies in SO_5(F_3) but outside the root-generated
    # Omega_5(F_3) that the enumeration produces
    ctx = GroupCtx(GroupKind.so_odd(2), F3)
    G = enumerate_group(ctx)
    outside = Mat([[F3.elem(d if i == j else 0) for j in range(5)] for i, d in enumerate([2, 1, 2, 1, 1])])
    assert is_member(ctx, outside)
    with pytest.raises(NotInGroup):
        G.indices_of_stack(mat_to_codes(outside)[None])
    stack = np.stack([G.codes[7], mat_to_codes(outside)])
    with pytest.raises(NotInGroup):
        G.indices_of_stack(stack)


def test_empty_stacks():
    empty = np.empty((0, 2, 2), np.uint8)
    for ctx in [GroupCtx(GroupKind.psl(2), F3), GroupCtx(GroupKind.sl(2), F9)]:
        assert canonical_stack(ctx, row_codes(empty, ctx.field.q)).shape == (0, 2)
        assert canonical_entries(ctx, empty).shape == (0, 2, 2)
        assert enumerate_group(ctx).indices_of_stack(empty).shape == (0,)


def _reference_canonical(ctx, stack):
    """Canonical coset representatives of a uint8 code stack, one pass per
    center scalar over whole matrices: the least first nonzero entry in
    the scalar order wins.  Shares no table with the library's
    canonicalisers."""
    lams = ctx._center_codes()
    if len(lams) <= 1 or not len(stack):
        return stack
    field = ctx.field
    k = stack.shape[0]
    flat = stack.reshape(k, -1)
    rows = np.arange(k)
    pos = (flat != 0).argmax(axis=1)
    best = stack
    best_rank = field._rank[flat[rows, pos]]
    for lam in lams:
        if lam == 1:
            continue
        cand = field._mul_np[lam, stack]
        r = field._rank[cand.reshape(k, -1)[rows, pos]]
        mask = r < best_rank
        if mask.any():
            best = np.where(mask[:, None, None], cand, best)
            best_rank = np.where(mask, r, best_rank)
    return best


def _random_stack(rng, field, n, k):
    """k random code matrices, a quarter of their rows zeroed (whole
    matrices among them), so leading zero rows occur."""
    stack = rng.integers(0, field.q, (k, n, n), dtype=np.uint8)
    stack[rng.random((k, n)) < 0.25] = 0
    stack[:3] = 0
    return stack


# the table has q^n rows: F_25 and F_27 at n >= 4 would hold 390,625 and
# more, so those pairs are left out
ROW_CASES = [(field, n) for field in [F3, Fq(5, 1), F9, Fq(5, 2), Fq(3, 3)] for n in range(2, 6)
             if field.q ** n <= 60_000]


@pytest.mark.parametrize("field, n", ROW_CASES, ids=lambda v: f"F{v.q}" if isinstance(v, Fq) else str(v))
def test_row_table_products_match_mat_mul(field, n):
    rng = np.random.default_rng(field.q * 10 + n)
    A, B = _random_stack(rng, field, n, 200), _random_stack(rng, field, n, 3)
    rows = row_codes(A, field.q)
    assert (row_entries(rows, field.q) == A).all()
    table = row_table(field, B)
    assert table.shape == (field.q ** n, 3) and table.dtype == np.int32
    want = row_codes(mat_mul(field, A[:, None], B[None]), field.q)  # (k, b, n)
    assert (table[rows] == want.swapaxes(1, 2)).all()


def test_row_codes_refuse_rows_past_63_bits():
    # 3^39 < 2^63 <= 3^40
    assert row_codes(np.ones((1, 39, 39), np.uint8), 3).tolist() == [[(3 ** 39 - 1) // 2] * 39]
    with pytest.raises(Unsupported):
        row_codes(np.zeros((1, 40, 40), np.uint8), 3)


def test_row_table_is_no_larger_than_a_right_map():
    # every (kind, odd q < 256) pair whose order passes ENUM_CAP has
    # q^dim <= |G| + 1, so enumeration's q^dim-row table needs no cap
    primes = [p for p in range(3, 256, 2) if all(p % d for d in range(3, p, 2))]
    fields = sorted({p ** e for p in primes for e in range(1, 6) if p ** e < 256})
    pairs = []
    for family in groups.FAMILIES:
        for q in fields:
            n = groups._MIN_RANK[family]
            while expected_order(GroupKind(family, n), q)[0] <= ENUM_CAP:
                pairs.append((GroupKind(family, n), q))
                n += 1
    assert len(pairs) == 72
    assert all(q ** kind.dim <= expected_order(kind, q)[0] + 1 for kind, q in pairs)


@pytest.mark.parametrize("ctx", [GroupCtx(GroupKind.psl(2), F9), GroupCtx(GroupKind.psl(2), Fq(5, 2)),
                                 GroupCtx(GroupKind.psp(2), F3)], ids=repr)
def test_row_canonicalisation_matches_the_stack_canonicaliser(ctx):
    field, n = ctx.field, ctx.dim
    rng = np.random.default_rng(n * field.q)
    G = enumerate_group(ctx)
    members = G.codes[rng.integers(0, G.order, 300)]
    # a member's coset: the member times each center scalar
    lams = np.array(ctx._center_codes())
    coset = field._mul_np[lams[rng.integers(0, len(lams), 300)][:, None, None], members]
    for stack in (_random_stack(rng, field, n, 500), coset):
        want = _reference_canonical(ctx, stack)
        assert (canonical_entries(ctx, stack) == want).all()
        assert (canonical_stack(ctx, row_codes(stack, field.q)) == row_codes(want, field.q)).all()
    assert (canonical_entries(ctx, coset) == members).all()


def test_one_enumeration_makes_one_stack_product(monkeypatch):
    calls = []
    real = groups.mul_stack

    def counted(field, A, B):
        calls.append(len(A))
        return real(field, A, B)

    monkeypatch.setattr(groups, "mul_stack", counted)
    for kind, field in [(GroupKind.sl(2), F3), (GroupKind.psl(2), F9), (GroupKind.sl(2), Fq(3, 3)),
                        (GroupKind.sp(2), F3)]:
        calls.clear()
        G = enumerate_group.__wrapped__(GroupCtx(kind, field))
        assert calls == [field.q ** kind.dim], (kind, G.order)


def _byte_keys(stack):
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1)
    return flat.view(np.dtype((np.void, flat.shape[1]))).ravel()


def _reference_closure(ctx, gens):
    """Breadth-first closure with a whole-level dedupe on byte keys: every
    frontier x generator product of a level, generator-major, then one
    np.unique + np.isin against all keys seen so far."""
    field = ctx.field
    gens = [mat_to_codes(g.mat) for g in gens]
    frontier = mat_to_codes(ctx.identity().mat)[None]
    levels, seen = [frontier], _byte_keys(frontier)
    while len(frontier):
        prods = np.concatenate([mat_mul(field, frontier, g) for g in gens])
        if ctx.projective:
            prods = _reference_canonical(ctx, prods)
        keys = _byte_keys(prods)
        _, first = np.unique(keys, return_index=True)
        first.sort()
        first = first[~np.isin(keys[first], seen)]
        frontier = prods[first]
        levels.append(frontier)
        seen = np.concatenate([seen, keys[first]])
    return np.concatenate(levels)


ENUMERATED = [
    GroupCtx(GroupKind.sl(2), F3),
    GroupCtx(GroupKind.sl(2), F9),
    GroupCtx(GroupKind.sl(2), Fq(3, 3)),
    GroupCtx(GroupKind.psl(2), F9),
    GroupCtx(GroupKind.psl(3), F3),
    GroupCtx(GroupKind.sp(2), F3),
    GroupCtx(GroupKind.psp(2), F3),
    GroupCtx(GroupKind.so_odd(2), F3),
]


@pytest.mark.parametrize("ctx", ENUMERATED, ids=repr)
def test_enumeration_matches_whole_level_reference(ctx):
    codes = enumerate_group(ctx).codes
    assert codes.tobytes() == _reference_closure(ctx, generators(ctx)).tobytes()


def _lookup_closure(G, gens):
    """Breadth-first closure over gens, one generator at a time, on G's
    indices: each product made with mat_mul and found with
    indices_of_stack, and kept where it first appears."""
    field = G.ctx.field
    gens = [mat_to_codes(g.mat) for g in gens]
    frontier = G.indices_of_stack(mat_to_codes(G.ctx.identity().mat)[None])
    seen = np.zeros(G.order, dtype=bool)
    seen[frontier] = True
    levels = [frontier]
    while len(frontier):
        level = []
        for g in gens:
            found = G.indices_of_stack(mat_mul(field, G.codes[frontier], g))
            found = found[~seen[found]]
            found = found[np.sort(np.unique(found, return_index=True)[1])]
            seen[found] = True
            level.append(found)
        frontier = np.concatenate(level)
        levels.append(frontier)
    return np.concatenate(levels)


LOOKUP_CASES = [
    GroupCtx(GroupKind.sl(2), F9),
    GroupCtx(GroupKind.psl(2), F9),
    GroupCtx(GroupKind.sl(3), F3),
    GroupCtx(GroupKind.psl(3), F3),
    GroupCtx(GroupKind.so_odd(2), F3),
]


@pytest.mark.parametrize("ctx", LOOKUP_CASES, ids=repr)
def test_enumeration_order_is_the_all_parameter_search(ctx):
    # the codes sit in the order of the search over every root element,
    # redone here with products and lookups: index i is found i-th
    G = enumerate_group(ctx)
    assert (_lookup_closure(G, generators(ctx)) == np.arange(G.order)).all()


def _basis_generators(ctx):
    """x_r(p^k) for each root r and k < e: the root elements at the basis
    parameters 1, w, ..., w^(e-1), in the order of generators()."""
    field = ctx.field
    basis = [field.from_code(field.p ** k) for k in range(field.e)]
    return [root_element(ctx, root, a) for root in root_directions(ctx.kind) for a in basis]


@pytest.mark.parametrize("ctx", LOOKUP_CASES, ids=repr)
def test_index_maps_match_products(ctx):
    G = enumerate_group(ctx)
    field = ctx.field
    hs = [mat_to_codes(h.mat) for h in _basis_generators(ctx)]
    assert G.right.shape == (len(hs), G.order) and G.right.dtype == np.int32
    for h, right, left in zip(hs, G.right, G.left_maps()):
        assert (right == G.indices_of_stack(mat_mul(field, G.codes, h))).all()
        assert (left == G.indices_of_stack(mat_mul(field, h, G.codes))).all()
    # the tree: x_i = x_parent b_step, each parent one level up
    parent, step, levels = G.tree
    kids = np.arange(1, G.order)
    prods = mat_mul(field, G.codes[parent[kids]], np.stack(hs)[step[kids]])
    assert (G.indices_of_stack(prods) == kids).all()
    depth = np.empty(G.order, dtype=int)
    for d, level in enumerate(levels):
        depth[level] = d
    assert sorted(np.concatenate(levels).tolist()) == list(range(G.order))
    assert (depth[parent[kids]] == depth[kids] - 1).all()
    for i in np.random.default_rng(7).integers(0, G.order, 5):
        want = G.indices_of_stack(mat_mul(field, G.codes, G.codes[i]))
        assert (G.right_mul(np.arange(G.order), int(i)) == want).all()


def _classical_order(kind, q):
    n = kind.n
    if kind.family == "SL":
        return order_sl(n, q)
    if kind.family == "PSL":
        return order_sl(n, q) // np.gcd(n, q - 1)
    if kind.family == "Sp":
        return order_sp(n, q)
    # PSp_2n and Omega_2n+1 over odd q share the order |Sp_2n(q)| / 2
    return order_sp(n, q) // 2


# the families and fields of the reidemeister census
CENSUS_GROUPS = [(GroupKind.sl(2), Fq(p, e)) for p, e in
                 [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]] + [
    (GroupKind.psl(2), F3), (GroupKind.psl(2), F9), (GroupKind.sl(3), F3),
    (GroupKind.psl(3), F3), (GroupKind.so_odd(2), F3), (GroupKind.psp(2), F3),
    (GroupKind.sp(2), F3),
]


# sha256 prefixes of each census group's codes, right maps and tree
# (parent, step and the levels), with dtype and shape: the enumeration's
# output, pinned byte for byte
CENSUS_DIGESTS = {
    "SL(2) F3": ("3e0970a1efbf2223", "cd7f385c2bb35a3e", "91194166b7e2909d"),
    "SL(2) F5": ("1a778ecb1c233244", "cc8ff36a42b4bf20", "807ba64c11329b8d"),
    "SL(2) F7": ("3adddb21c1c3bb6f", "a582df173e02b313", "6f05c53bad1c128a"),
    "SL(2) F9": ("eb1e08bf768a866f", "e6a43b230f519aaf", "d576e30315aea276"),
    "SL(2) F11": ("48e1d3e554b6594f", "132fde9b175283d8", "8b6f0eef7398de0e"),
    "SL(2) F13": ("c5b8f09e5581661a", "94422fcb9f982b5b", "692005279b951592"),
    "SL(2) F25": ("3bad1c3b71e36b3a", "c4e9128a32fe1594", "9cdce916b29ca2de"),
    "SL(2) F27": ("bcbc1cc2da8b98bb", "1cca2063f21dcbde", "be4ccf8ad052f5a0"),
    "PSL(2) F3": ("ef8481e8ba2a5875", "fd028e9fa521072b", "5f5901baec24086c"),
    "PSL(2) F9": ("78bc4039f1bc24c1", "faf22c87a646f601", "bced5b2086b21f5b"),
    "SL(3) F3": ("06536d8b6a50ae6a", "6bd50989f25956cd", "5273cb1ce8349a50"),
    "PSL(3) F3": ("06536d8b6a50ae6a", "6bd50989f25956cd", "5273cb1ce8349a50"),
    "SOodd(2) F3": ("65512a73496b7b37", "4673a8ea21577914", "4d64e64059a47efd"),
    "PSp(2) F3": ("db1b11675549d182", "5a1ffaa3eb5b21b9", "eb238c64cf93faf9"),
    "Sp(2) F3": ("8ea288f792aba75e", "9dfa29068e8a70bd", "9ee94b3d889430af"),
}


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind, field", CENSUS_GROUPS, ids=lambda v: repr(v))
def test_enumeration_output_is_pinned(kind, field):
    G = enumerate_group(GroupCtx(kind, field))
    parent, step, levels = G.tree
    got = _sha(G.codes), _sha(G.right), _sha(parent, step, *levels)
    assert got == CENSUS_DIGESTS[f"{kind!r} F{field.q}"]


@pytest.mark.parametrize("kind, field", CENSUS_GROUPS, ids=lambda v: repr(v))
def test_basis_parameters_generate_the_group(kind, field):
    ctx = GroupCtx(kind, field)
    gens = _basis_generators(ctx)
    assert len(gens) * (field.q - 1) == len(generators(ctx)) * field.e
    assert len(_reference_closure(ctx, gens)) == _classical_order(kind, field.q)


@pytest.mark.parametrize("ctx", [
    GroupCtx(GroupKind.psl(2), F9),
    GroupCtx(GroupKind.sl(2), Fq(3, 3)),
    GroupCtx(GroupKind.so_odd(2), F3),
], ids=repr)
def test_enumeration_cap_below_the_order_per_generator(ctx):
    order = enumerate_group(ctx).order
    with pytest.raises(CapExceeded):
        enumerate_group.__wrapped__(ctx, order - 1)
    assert enumerate_group.__wrapped__(ctx, order).order == order


def test_integer_keys_sort_like_entries():
    rng = np.random.default_rng(5)
    stack = rng.integers(0, 9, (500, 3, 3), dtype=np.uint8)
    keys = row_keys(row_codes(stack, 9), 9)
    assert keys.dtype == np.int64
    order = np.argsort(keys, kind="stable")
    assert (order == np.argsort(_byte_keys(stack), kind="stable")).all()
    assert len(np.unique(keys)) == len(np.unique(_byte_keys(stack)))


def test_wide_matrices_keep_byte_keys():
    # 3^49 >= 2^63: a 7x7 matrix over F_3 does not fit an int64 key
    ctx = GroupCtx(GroupKind.sl(7), F3)
    gens = np.stack([mat_to_codes(g.mat) for g in generators(ctx)])
    stack = np.concatenate([gens, mat_mul(F3, gens[:, None], gens[None]).reshape(-1, 7, 7)])
    keys = row_keys(row_codes(stack, 3), 3)
    assert keys.dtype.kind == "V" and (keys == _byte_keys(stack)).all()
    codes = stack[np.sort(np.unique(keys, return_index=True)[1])]
    code_keys = row_keys(row_codes(codes, 3), 3)
    by_key = np.argsort(code_keys)
    # a lookup table only: no index maps, no tree
    G = FiniteGroup(ctx, codes, None, None, (code_keys[by_key], by_key))
    perm = np.random.default_rng(6).permutation(len(codes))
    assert (G.indices_of_stack(codes[perm]) == perm).all()


def _frontier_major_closure(ctx, gens):
    """Breadth-first closure of the identity, one product at a time: each
    frontier element meets every generator in turn, and a product joins
    where it first appears, found in a dict of byte keys."""
    field = ctx.field
    found = {mat_to_codes(ctx.identity().mat).tobytes(): 0}
    codes, edges, images = [mat_to_codes(ctx.identity().mat)], [(0, 0)], []
    frontier = [0]
    while frontier:
        level = []
        for i in frontier:
            for j, g in enumerate(gens):
                prod = mat_mul(field, codes[i], g)
                if ctx.projective:
                    prod = _reference_canonical(ctx, prod[None])[0]
                key = prod.tobytes()
                if key not in found:
                    found[key] = len(codes)
                    codes.append(prod)
                    edges.append((i, j))
                    level.append(found[key])
                images.append(found[key])
        frontier = level
    return np.stack(codes), np.array(edges), np.array(images)


@pytest.mark.parametrize("ctx", [GroupCtx(GroupKind.sl(2), F3), GroupCtx(GroupKind.psl(2), F9)],
                         ids=repr)
def test_closure_adds_elements_in_discovery_order(ctx, monkeypatch):
    # small blocks, so a level spans several and new elements repeat
    # across them
    monkeypatch.setattr(groups, "PRODUCT_BLOCK", 8)
    field, q = ctx.field, ctx.field.q
    gens = np.stack([mat_to_codes(g.mat) for g in generators(ctx)])

    def act(block):
        prods = mat_mul(field, row_entries(block, q)[:, None], gens[None])
        rows = row_codes(prods, q).reshape(-1, 2)
        return canonical_stack(ctx, rows) if ctx.projective else rows

    start = row_codes(mat_to_codes(ctx.identity().mat), q)
    rows, (parent, step), ends, (keys, index), images = closure(
        ctx, start, act, len(gens), ENUM_CAP, "cap", maps=True)
    codes = row_entries(rows, q)
    want, edges, want_images = _frontier_major_closure(ctx, gens)
    assert codes.tobytes() == want.tobytes()
    assert (parent == edges[:, 0]).all() and (step == edges[:, 1]).all()
    assert (np.concatenate(images) == want_images).all()
    assert ends[-1] == len(codes) and (np.diff(ends) > 0).all()
    assert (np.diff(keys) > 0).all() and (keys == row_keys(row_codes(codes, q), q)[index]).all()
    with pytest.raises(CapExceeded, match="^cap$"):
        closure(ctx, start, act, len(gens), len(codes) - 1, "cap")
    assert len(closure(ctx, start, act, len(gens), len(codes), "cap")[0]) == len(codes)


def test_closure_keeps_byte_keys_and_first_images():
    # one generator of SL_7(F_3), met twice by each element: the second
    # image of a new element is a repeat within its block
    ctx = GroupCtx(GroupKind.sl(7), F3)
    g = mat_to_codes(generators(ctx)[0].mat)

    def act(block):
        return row_codes(mat_mul(F3, row_entries(block, 3), g), 3).repeat(2, axis=0)

    rows, (parent, step), ends, (keys, index), images = closure(
        ctx, row_codes(mat_to_codes(ctx.identity().mat), 3), act, 2, ENUM_CAP, "cap", maps=True)
    codes = row_entries(rows, 3)
    assert keys.dtype.kind == "V"
    assert [m.tobytes() for m in codes] == [mat_to_codes((generators(ctx)[0] ** k).mat).tobytes()
                                           for k in range(3)]
    assert parent.tolist() == [0, 0, 1] and step.tolist() == [0, 0, 0] and ends == [1, 2, 3]
    assert np.concatenate(images).tolist() == [1, 1, 2, 2, 0, 0]
    assert (np.argsort(keys, kind="stable") == np.arange(3)).all()
    assert (keys == row_keys(row_codes(codes, 3), 3)[index]).all()
    assert (keys == _byte_keys(codes)[index]).all()


def test_form_invariant_failures_are_typed():
    from chevtwist.groups import _check_form_invariants

    J = form_matrix(GroupKind.sp(2), 2, F3)
    with pytest.raises(CertificateMismatch):
        _check_form_invariants(J, GroupKind.so_even(3))  # antisymmetric, not symmetric
    zero = Mat([[F3.zero] * 4 for _ in range(4)])
    with pytest.raises(CertificateMismatch):
        _check_form_invariants(zero, GroupKind.sp(2))  # singular


# -- inverses by the form: g^-1 = J^-1 g^T J for the formed kinds

FORMED_KINDS = [GroupKind.sp(2), GroupKind.psp(2), GroupKind.so_odd(2),
                GroupKind.so_even(3), GroupKind.pso_even(3)]


def _check_form_inverse(g):
    ctx = g.ctx
    inv = g.inverse()
    eliminated = g.mat.inverse()
    assert inv == GrpElem._of(ctx, eliminated)
    assert inv.mat == (canonical_rep(ctx, eliminated) if ctx.projective else eliminated)
    assert is_member(ctx, inv.mat)
    assert g * inv == ctx.identity() == inv * g


def _check_closure(g, h, auts):
    """Products, inverses, powers and automorphic images of members are
    members: the matrices GrpElem._of takes without a check."""
    ctx = g.ctx
    for x in (g * h, h * g, g.inverse(), g ** 3, g ** -2, *(sigma(g) for sigma in auts)):
        assert x.ctx == ctx and is_member(ctx, x.mat)


def _finite_auts(ctx, inner):
    auts = [GroupAut(ctx, ring=1), GroupAut(ctx, inner=inner, ring=1)]
    if ctx.kind.family in ("SOeven", "PSOeven"):
        auts.append(GroupAut(ctx, inner=inner, ring=1, graph="B"))
    return auts


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
@pytest.mark.parametrize("kind", FORMED_KINDS, ids=repr)
def test_form_inverse_matches_elimination(kind, field):
    ctx = GroupCtx(kind, field)
    gens = generators(ctx)
    auts = _finite_auts(ctx, gens[-1])

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=10))
    def check(word):
        g = gens[word[0]]
        for i in word[1:]:
            g = g * gens[i]
        _check_form_inverse(g)
        _check_closure(g, gens[word[-1]], auts)

    check()


def test_form_inverse_on_witnesses_over_localization():
    ring = RingDesc(F3, ["t"])
    s = fixed_element(parse_poly(F3, "t+1"), ring)
    cfg = WitnessConfig(ring=ring, s=s, family=FAMILY_SP, n=2)
    witnesses = [witness_sp(m, cfg, 2) for m in (1, 2)]
    for lam in (s, s * s, RatFrac.t(F3), RatFrac.t(F3).inverse()):
        witnesses.append(witness_so(lam, "SOodd", 2, ring))
        witnesses.append(witness_so(lam, "SOeven", 3, ring))
    for g in witnesses:
        assert g.ctx.kind.formed and not g.ctx.is_finite
        _check_form_inverse(g)


def test_members_closed_under_moebius_maps_over_localization():
    # ring parts are the Moebius maps t -> +-t, +-1/t of F_3[t, 1/t]
    ring = RingDesc(F3, ["t"])
    t = RatFrac.t(F3)
    pool = [witness_so(lam, "SOodd", 2, ring) for lam in (t, t.inverse(), t + 1)]
    pool.append(explicit_conjugator(t, t, "SOodd", 2, ring))
    ctx = pool[0].ctx
    rhos = [rho for rho in ring_automorphisms(ring) if not rho.is_identity]
    assert len(rhos) == 3
    auts = [GroupAut(ctx, inner=h, ring=rho) for rho in rhos for h in (None, pool[-1])]

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4),
           st.integers(0, len(auts) - 1))
    def check(word, k):
        g = pool[word[0]]
        for i in word[1:]:
            g = g * pool[i]
        _check_closure(g, pool[word[-1]], [auts[k]])

    check()


_ROOT_KINDS = [GroupKind(fam, groups._MIN_RANK[fam]) for fam in groups.FAMILIES]
_R_T = RingDesc(F3, ["t"])


def _root_scalars(scalars):
    """Parameters drawn from the scalars: field elements, or fractions
    f/t^k in F_3[t] localised at t."""
    if isinstance(scalars, Fq):
        return st.sampled_from(scalars.elements())
    return st.builds(
        lambda codes, k: RatFrac(Poly(F3, codes)) / RatFrac.t(F3) ** k,
        st.lists(st.integers(0, 2), max_size=3), st.integers(0, 2))


@pytest.mark.parametrize("scalars", [F3, F9, _R_T], ids=["F3", "F9", "F3[t]_(t)"])
@pytest.mark.parametrize("kind", _ROOT_KINDS, ids=repr)
def test_root_elements_are_additive_members(kind, scalars):
    # x_r(a) x_r(b) = x_r(a + b) and x_r(a)^-1 = x_r(-a), root by root; the
    # membership root_table certifies is tested once here, independently
    ctx = GroupCtx(kind, scalars)

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(_root_scalars(scalars), _root_scalars(scalars))
    def check(a, b):
        a, b = ctx.scalar(a), ctx.scalar(b)
        for root in root_directions(kind):
            x = root_element(ctx, root, a)
            assert is_member(ctx, x.mat)
            assert x * root_element(ctx, root, b) == root_element(ctx, root, a + b)
            assert x.inverse() == root_element(ctx, root, -a)

    check()
