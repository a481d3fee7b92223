"""Twisted conjugation: orbits, Reidemeister counts, decision procedures.

The action is g . x = g x sigma(g)^(-1).  The root elements with
parameters in an F_p-basis of F_q generate the group, and each acts on the
enumerated group as an index permutation, built by index arithmetic on
the maps the enumeration keeps, with no matrix product: the left map of h
runs down the enumeration's tree, and is then followed by right
multiplication by sigma(h)^(-1), one basis map per letter of its tree
word; only the b elements sigma(h)^(-1) are looked up.  Orbits are the
connected components of these permutations, found by propagating the
least index along them and pointer jumping.  Up to a size cap the count
is cross-checked by a second method: for a finite group, R(sigma) is the
number of ordinary conjugacy classes that sigma maps to themselves (the
twisted Burnside-Frobenius theorem, Fel'shtyn-Hill with Brauer's
permutation lemma).  The classes come from the same propagation under the
plain conjugation action (the twisted partition itself when sigma is the
identity), and sigma is applied to each class representative.

The orbit of a single element is the enumeration's closure
(groups.closure) under another action, without enumerating the group:
each block of the frontier, decoded from its row codes, meets every
generator (their inverses are generators too) in two broadcast products.  The witnesses follow the
closure's tree, one product per depth.  The decision procedure finds y
among the closure's sorted keys and verifies the witness it returns with
the per-element action.

The linear strategy decides plain conjugacy from the intertwiners
x M = lam M y, for SL, PSL, Sp and PSp only: the orthogonal kinds work in
Omega, which the membership test does not see.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import numpy as np

from .auts import GroupAut
from .errors import (
    CapExceeded,
    CertificateMismatch,
    IncompatibleKind,
    PreconditionFailed,
    Unsupported,
)
from .groups import (
    ENUM_CAP,
    FiniteGroup,
    GroupCtx,
    GrpElem,
    canonical_entries,
    closure,
    codes_to_mat,
    enumerate_group,
    generators,
    intertwiners,
    mat_mul,
    mat_to_codes,
    row_codes,
    row_entries,
    row_keys,
)

BURNSIDE_CAP = 2_000


def twist_step(g: GrpElem, x: GrpElem, sigma: GroupAut) -> GrpElem:
    """One step of the twisted action: g x sigma(g)^(-1)."""
    if g.ctx != x.ctx or sigma.ctx != x.ctx:
        raise IncompatibleKind("mismatched contexts in twisted action")
    return g * x * sigma(g).inverse()


@dataclass
class TwistedOrbitReport:
    """The twisted orbits of a finite group; labels holds each element's
    orbit as the orbit's least index."""

    aut: GroupAut
    orbit_representatives: list
    orbit_sizes: list
    group_order: int
    labels: np.ndarray = dataclasses.field(repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.orbit_sizes)


@dataclass
class ReidemeisterResult:
    """A Reidemeister count and how it was reached.

    burnside_count is the number of conjugacy classes fixed by the
    automorphism, the second method; it is None when the group order
    exceeds the cap under which that method runs.
    """

    count: int
    method: str
    group_order: int
    burnside_count: int | None = None
    report: TwistedOrbitReport | None = dataclasses.field(default=None, repr=False)


def _twisted_generator_actions(G: FiniteGroup, sigma: GroupAut):
    """For each basis root element h = b_j, the index map
    x -> h x sigma(h)^(-1): G's left map of h, then right multiplication
    by sigma(h)^(-1) along its tree word.  No matrix product is made."""
    hs = [G.elem(int(i)) for i in G.right[:, 0]]  # b_j = x_0 b_j, x_0 = 1
    right = G.indices_of_stack(np.stack([mat_to_codes(sigma(h).inverse().mat) for h in hs]))
    return [G.right_mul(left, int(y)) for left, y in zip(G.left_maps(), right)]


def _least_labels(order: int, actions) -> np.ndarray:
    """The least index of each element's orbit under the index
    permutations `actions`."""
    # every label stays an index in its own orbit and only decreases; at
    # the fixed point each orbit carries its least index
    label = np.arange(order)
    while True:
        before = label
        for perm in actions:
            label = np.minimum(label, label[perm])
            label[perm] = np.minimum(label[perm], label)
        label = label[label]
        if np.array_equal(label, before):
            return label


def twisted_orbits(ctx: GroupCtx, sigma: GroupAut, cap: int = ENUM_CAP) -> TwistedOrbitReport:
    """Partition the full finite group into twisted conjugacy orbits.

    Orbits are listed by their least element index, which is also their
    representative.  The sizes partition the group by construction: they
    are np.unique's counts over label, an array with one entry per
    element, so they sum to |G|.
    """
    G = enumerate_group(ctx, cap)
    label = _least_labels(G.order, _twisted_generator_actions(G, sigma))
    roots, sizes = np.unique(label, return_counts=True)
    return TwistedOrbitReport(
        aut=sigma,
        orbit_representatives=[G.elem(int(r)) for r in roots],
        orbit_sizes=sizes.tolist(),
        group_order=G.order,
        labels=label,
    )


def _burnside_count(G: FiniteGroup, sigma: GroupAut, cls=None) -> int:
    """Number of conjugacy classes of G that sigma maps to themselves;
    cls, each element's class as its least index, is computed unless
    given."""
    if cls is None:
        cls = _least_labels(G.order, _twisted_generator_actions(G, GroupAut.identity(G.ctx)))
    reps = np.flatnonzero(cls == np.arange(G.order))
    images = np.stack([mat_to_codes(sigma(G.elem(int(r))).mat) for r in reps])
    return int((cls[G.indices_of_stack(images)] == reps).sum())


def reidemeister_count(
    ctx: GroupCtx,
    sigma: GroupAut,
    cap: int = ENUM_CAP,
    burnside_cap: int = BURNSIDE_CAP,
) -> ReidemeisterResult:
    """Number of twisted conjugacy classes of a finite instance.

    Always runs the orbit partition; when the group order is within
    burnside_cap, also counts the conjugacy classes that sigma fixes, and
    raises CertificateMismatch unless the two methods agree.  For the
    identity automorphism both counts come from the same conjugation
    partition, built once.  The result carries the orbit report it
    counted.
    """
    report = twisted_orbits(ctx, sigma, cap)
    burnside = None
    method = "orbit-partition"
    if report.group_order <= burnside_cap:
        G = enumerate_group(ctx, cap)
        burnside = _burnside_count(G, sigma, report.labels if sigma.is_identity else None)
        if burnside != report.count:
            raise CertificateMismatch(
                f"method disagreement: partition {report.count}, burnside {burnside}"
            )
        method = "orbit-partition+burnside"
    return ReidemeisterResult(
        count=report.count,
        method=method,
        group_order=report.group_order,
        burnside_count=burnside,
        report=report,
    )


def are_twisted_conjugate(
    x: GrpElem,
    y: GrpElem,
    sigma: GroupAut,
    strategy: str = "auto",
    cap: int = ENUM_CAP,
    seed: int = 0,
    samples: int = 2_000,
):
    """Decide whether y lies in the twisted orbit of x.

    Returns (True, g) with a verified witness g x sigma(g)^(-1) = y,
    (False, None) when the decision procedure proves non-membership, or
    (None, None) when the strategy in play is incomplete.  The exact
    strategies are tried first; seeded random sampling is the last rung
    and can only answer True or Unknown, never False.  The "linear"
    strategy needs the identity automorphism and an SL, PSL, Sp or PSp
    context, and is unknown beyond groups.SOLVE_CAP kernel combinations.
    """
    ctx = x.ctx
    if y.ctx != ctx or sigma.ctx != ctx:
        raise IncompatibleKind("mismatched contexts")
    if not ctx.is_finite:
        raise Unsupported("twisted conjugacy decision needs finite scalars")
    if x == y:
        return True, ctx.identity()
    if strategy == "linear":
        if not sigma.is_identity:
            raise Unsupported("linear strategy only applies to plain conjugacy")
        return _plain_conjugacy_linear(x, y)
    if strategy == "sample":
        return _sampled_search(x, y, sigma, seed, samples)
    if strategy in ("auto", "orbit"):
        try:
            return _orbit_search(x, y, sigma, cap)
        except CapExceeded:
            if strategy == "auto":
                return _sampled_search(x, y, sigma, seed, samples)
            raise
    raise Unsupported(f"unknown strategy {strategy!r}")


def _orbit_stacks(x: GrpElem, sigma: GroupAut, cap: int):
    """The twisted orbit of x as code stacks in discovery order: its
    elements, a witness for each, and the sorted keys with their indices.

    The closure of x under the steps h, the generators, each acting by
    one broadcast product h y sigma(h)^(-1); their inverses need no step,
    as x_r(a)^(-1) = x_r(-a) is a generator.  The closure runs on row
    codes, which act converts to code matrices and back arithmetically:
    a table of all q^n rows, as enumeration uses, would be too large here
    (SL_4(F_81) has 43M row codes), so projective images are
    canonicalised on their entries.  The witnesses follow the
    closure's tree, one product per depth: an element's witness is its
    step times its parent's witness.  In projective contexts that is any
    matrix of the coset, canonicalised only when it becomes a GrpElem.
    """
    ctx = x.ctx
    if sigma.ctx != ctx:
        raise IncompatibleKind("mismatched contexts in twisted action")
    field, q = ctx.field, ctx.field.q
    gens = generators(ctx)
    left = np.stack([mat_to_codes(h.mat) for h in gens])
    right = np.stack([mat_to_codes(sigma(h.inverse()).mat) for h in gens])

    def act(block):
        stack = row_entries(block, q)
        prods = mat_mul(field, mat_mul(field, left[None], stack[:, None]), right[None])
        if ctx.projective:
            prods = canonical_entries(ctx, prods)
        return row_codes(prods, q).reshape(-1, ctx.dim)

    rows, (parent, step), ends, lookup, _ = closure(
        ctx, row_codes(mat_to_codes(x.mat), q), act, len(gens), cap, "twisted orbit exceeded cap")
    elems = row_entries(rows, q)
    witnesses = np.empty_like(elems)
    witnesses[0] = mat_to_codes(ctx.identity().mat)
    for lo, hi in zip(ends, ends[1:]):
        witnesses[lo:hi] = mat_mul(field, left[step[lo:hi]], witnesses[parent[lo:hi]])
    return elems, witnesses, lookup


def twisted_orbit_of(x: GrpElem, sigma: GroupAut, cap: int = ENUM_CAP) -> dict:
    """The orbit of x as a map element -> witness g, y = g x sigma(g)^(-1).

    Breadth-first over the generators, on row codes; the map lists the
    orbit in discovery order.  Raises CapExceeded when the orbit has more
    than cap elements.  The witnesses are exact products, not verified
    here; are_twisted_conjugate verifies the one witness it returns.
    """
    ctx = x.ctx
    field = ctx.field
    elems, witnesses, _ = _orbit_stacks(x, sigma, cap)
    return {
        GrpElem._of(ctx, codes_to_mat(field, y)): GrpElem._of(ctx, codes_to_mat(field, g))
        for y, g in zip(elems, witnesses)
    }


def _orbit_search(x: GrpElem, y: GrpElem, sigma: GroupAut, cap: int):
    _, witnesses, (keys, index) = _orbit_stacks(x, sigma, cap)
    q = x.ctx.field.q
    key = row_keys(row_codes(mat_to_codes(y.mat)[None], q), q)
    pos = min(int(np.searchsorted(keys, key)[0]), len(keys) - 1)
    if keys[pos] != key[0]:
        return False, None
    g = GrpElem._of(x.ctx, codes_to_mat(x.ctx.field, witnesses[index[pos]]))
    if twist_step(g, x, sigma) != y:
        raise CertificateMismatch("witness failed verification")
    return True, g


def _sampled_search(x: GrpElem, y: GrpElem, sigma: GroupAut, seed: int, samples: int):
    """Random-product probe for a witness; inconclusive on failure."""
    rng = random.Random(seed)
    ctx = x.ctx
    gens = generators(ctx)
    g = ctx.identity()
    for _ in range(samples):
        g = g * rng.choice(gens)
        if twist_step(g, x, sigma) == y:
            return True, g
    return None, None


def _plain_conjugacy_linear(x: GrpElem, y: GrpElem):
    """A conjugator g = M^(-1) from the intertwiners x M = lam M y;
    unknown when their kernel has too many combinations to enumerate."""
    ctx = x.ctx
    if ctx.kind.family not in ("SL", "PSL", "Sp", "PSp"):
        raise Unsupported(f"linear strategy does not cover {ctx.kind!r}")
    try:
        found = intertwiners(ctx, [(x.mat, y.mat)])
    except CapExceeded:
        return None, None
    if not found:
        return False, None
    g = found[0].inverse()
    if twist_step(g, x, GroupAut.identity(ctx)) != y:
        raise CertificateMismatch("witness failed verification")
    return True, g


def power_reduction_check(x: GrpElem, y: GrpElem, sigma: GroupAut, r: int) -> bool:
    """Fixed elements in one twisted class have plainly conjugate r-th powers.

    Requires sigma to fix x and y and a twisted witness to exist; r should
    kill sigma on the witness (e.g. the order of sigma).  The same witness
    then conjugates x^r to y^r, which is verified exactly; if the witness
    moves under sigma^r the plain conjugacy of the powers is decided from
    scratch.  r must be at least 1: x^0 = y^0 would certify any pair.
    """
    if r < 1:
        raise PreconditionFailed(f"power r = {r} is not positive")
    ctx = x.ctx
    if sigma(x) != x or sigma(y) != y:
        raise PreconditionFailed("inputs are not fixed by the automorphism")
    ok, z = are_twisted_conjugate(x, y, sigma)
    if not ok:
        raise PreconditionFailed("inputs are not twisted conjugate")
    zr = z
    for _ in range(r):
        zr = sigma(zr)
    if zr == z:
        conj = z * (x ** r) * z.inverse()
        if conj != y ** r:
            raise CertificateMismatch("power reduction witness failed")
        return True
    ok2, _ = are_twisted_conjugate(x ** r, y ** r, GroupAut.identity(ctx))
    return bool(ok2)


def descend_aut(sigma: GroupAut, quot_ctx: GroupCtx) -> GroupAut:
    """Automorphism induced on the projective quotient."""
    if quot_ctx.kind != sigma.ctx.kind.projectivization() or quot_ctx.scalars != sigma.ctx.scalars:
        raise IncompatibleKind("not the projective quotient of the source context")
    inner = None
    if sigma.inner is not None:
        inner = GrpElem._of(quot_ctx, sigma.inner.mat)
    return GroupAut(quot_ctx, inner=inner, ring=sigma.ring, graph=sigma.graph)


def quotient_count_comparison(
    ctx_big: GroupCtx,
    ctx_quot: GroupCtx,
    sigma: GroupAut,
    cap: int = ENUM_CAP,
    burnside_cap: int = BURNSIDE_CAP,
):
    """Counts upstairs and downstairs, (big, down); the quotient never has
    more classes, and a count that says otherwise raises CertificateMismatch."""
    if ctx_quot.kind != ctx_big.kind.projectivization() or ctx_quot.scalars != ctx_big.scalars:
        raise IncompatibleKind("second context is not the projective quotient of the first")
    if sigma.ctx != ctx_big:
        raise IncompatibleKind("automorphism must live on the source context")
    big = reidemeister_count(ctx_big, sigma, cap, burnside_cap)
    down = reidemeister_count(ctx_quot, descend_aut(sigma, ctx_quot), cap, burnside_cap)
    if big.count < down.count:
        raise CertificateMismatch("quotient count exceeded the source count")
    return big.count, down.count

