"""Group contexts, forms, membership, generators, enumeration, centers."""

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
    basis_generators,
    canonical_rep,
    canonical_stack,
    center,
    codes_to_mat,
    enumerate_group,
    expected_order,
    form_matrix,
    generators,
    is_member,
    mat_mul,
    mat_to_codes,
    merge_new,
    order_omega_odd,
    order_omega_plus,
    order_sl,
    order_sp,
    projective_canonicalize,
    stack_keys,
    unit_mat,
)
from chevtwist.matrices import Mat
from chevtwist.polyring import (
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
        assert canonical_stack(ctx, empty).shape == (0, 2, 2)
        assert enumerate_group(ctx).indices_of_stack(empty).shape == (0,)


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
            prods = canonical_stack(ctx, prods)
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


@pytest.mark.parametrize("ctx", LOOKUP_CASES, ids=repr)
def test_index_maps_match_products(ctx):
    G = enumerate_group(ctx)
    field = ctx.field
    hs = [mat_to_codes(h.mat) for h in basis_generators(ctx)]
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


@pytest.mark.parametrize("kind, field", CENSUS_GROUPS, ids=lambda v: repr(v))
def test_basis_parameters_generate_the_group(kind, field):
    ctx = GroupCtx(kind, field)
    basis = [field.from_code(field.p ** j) for j in range(field.e)]
    gens = generators(ctx, basis)
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
    keys = stack_keys(stack, 9)
    assert keys.dtype == np.int64
    order = np.argsort(keys, kind="stable")
    assert (order == np.argsort(_byte_keys(stack), kind="stable")).all()
    assert len(np.unique(keys)) == len(np.unique(_byte_keys(stack)))


def test_wide_matrices_keep_byte_keys():
    # 3^49 >= 2^63: a 7x7 matrix over F_3 does not fit an int64 key
    ctx = GroupCtx(GroupKind.sl(7), F3)
    gens = np.stack([mat_to_codes(g.mat) for g in generators(ctx)])
    stack = np.concatenate([gens, mat_mul(F3, gens[:, None], gens[None]).reshape(-1, 7, 7)])
    keys = stack_keys(stack, 3)
    assert keys.dtype.kind == "V"
    distinct = {m.tobytes() for m in stack}
    first, seen = merge_new(keys, keys[:1])
    assert len(first) == len(distinct) - 1 and len(seen) == len(distinct)
    assert (np.argsort(seen, kind="stable") == np.arange(len(seen))).all()
    codes = stack[np.sort(np.unique(keys, return_index=True)[1])]
    G = FiniteGroup(ctx, codes, None, None)  # a lookup table only: no index maps
    perm = np.random.default_rng(6).permutation(len(codes))
    assert (G.indices_of_stack(codes[perm]) == perm).all()


def test_merge_new_keeps_first_occurrences_in_order():
    seen = np.array([2, 5, 9], dtype=np.int64)
    keys = np.array([7, 5, 1, 7, 12, 1, 2, 3], dtype=np.int64)
    first, merged = merge_new(keys, seen)
    assert first.tolist() == [0, 2, 4, 7]
    assert merged.tolist() == [1, 2, 3, 5, 7, 9, 12]


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
