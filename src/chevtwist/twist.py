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

The orbit of a single element is searched breadth first on code stacks,
without enumerating the group: each level applies every generator and
inverse to the frontier with broadcast products and keeps the first
occurrence of each new element, found against the sorted keys seen so
far, with a witness carried alongside.  The decision procedure verifies
the witness it returns with the per-element action.

The linear strategy decides plain conjugacy from the intertwiners
x M = lam M y, for SL, PSL, Sp and PSp only: the orthogonal kinds work in
Omega, which the membership test does not see.
"""

from __future__ import annotations

import csv
import dataclasses
import io
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
    PRODUCT_BLOCK,
    basis_generators,
    canonical_stack,
    codes_to_mat,
    enumerate_group,
    generators,
    intertwiners,
    mat_mul,
    mat_to_codes,
    merge_new,
    stack_keys,
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
    """For each root element h with a basis parameter, the index map
    x -> h x sigma(h)^(-1): G's left map of h, then right multiplication
    by sigma(h)^(-1) along its tree word.  No matrix product is made."""
    hs = basis_generators(G.ctx)
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
    representative.
    """
    G = enumerate_group(ctx, cap)
    label = _least_labels(G.order, _twisted_generator_actions(G, sigma))
    roots, sizes = np.unique(label, return_counts=True)
    if sizes.sum() != G.order:
        raise CertificateMismatch("orbit sizes do not partition the group")
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
    """The twisted orbit of x as code stacks in discovery order: the keys
    of its elements, the elements, and a witness for each.

    Level by level: the images of a block of the frontier under every step
    come from one broadcast product, frontier-major, and a product joins
    the orbit where it first appears.  Its witness is the step times its
    parent's witness; in projective contexts that is any matrix of the
    coset, canonicalised only when it becomes a GrpElem.
    """
    ctx = x.ctx
    if sigma.ctx != ctx:
        raise IncompatibleKind("mismatched contexts in twisted action")
    field = ctx.field
    gens = generators(ctx)
    inverses = [g.inverse() for g in gens]
    steps = gens + inverses
    left = np.stack([mat_to_codes(h.mat) for h in steps])
    # sigma(h)^(-1) = sigma(h^(-1)): each step's inverse is the opposite step
    right = np.stack([mat_to_codes(sigma(h).mat) for h in inverses + gens])
    rows = max(1, PRODUCT_BLOCK // len(steps))
    frontier = mat_to_codes(x.mat)[None]
    witness = mat_to_codes(ctx.identity().mat)[None]
    elems, witnesses = [frontier], [witness]
    seen = stack_keys(frontier, field.q)
    found_keys = [seen]
    while len(frontier):
        level, level_witnesses = [], []
        for start in range(0, len(frontier), rows):
            block = frontier[start:start + rows, None]
            prods = mat_mul(field, mat_mul(field, left[None], block), right[None])
            prods = prods.reshape((-1,) + prods.shape[2:])
            if ctx.projective:
                prods = canonical_stack(ctx, prods)
            keys = stack_keys(prods, field.q)
            first, seen = merge_new(keys, seen)
            if len(first) and len(seen) > cap:
                raise CapExceeded("twisted orbit exceeded cap")
            parent, step = np.divmod(first, len(steps))
            found = mat_mul(field, left[step], witness[start + parent])
            found_keys.append(keys[first])
            level.append(prods[first])
            level_witnesses.append(found)
        frontier, witness = np.concatenate(level), np.concatenate(level_witnesses)
        elems.append(frontier)
        witnesses.append(witness)
    return np.concatenate(found_keys), np.concatenate(elems), np.concatenate(witnesses)


def twisted_orbit_of(x: GrpElem, sigma: GroupAut, cap: int = ENUM_CAP) -> dict:
    """The orbit of x as a map element -> witness g, y = g x sigma(g)^(-1).

    Breadth-first over the generators and their inverses, on code stacks;
    the map lists the orbit in discovery order.  Raises CapExceeded when
    the orbit has more than cap elements.  The witnesses are exact
    products but are not verified here; are_twisted_conjugate verifies the
    one witness it returns.
    """
    ctx = x.ctx
    field = ctx.field
    _, elems, witnesses = _orbit_stacks(x, sigma, cap)
    return {
        GrpElem._of(ctx, codes_to_mat(field, y)): GrpElem._of(ctx, codes_to_mat(field, g))
        for y, g in zip(elems, witnesses)
    }


def _orbit_search(x: GrpElem, y: GrpElem, sigma: GroupAut, cap: int):
    keys, _, witnesses = _orbit_stacks(x, sigma, cap)
    hit = np.flatnonzero(keys == stack_keys(mat_to_codes(y.mat)[None], x.ctx.field.q))
    if not len(hit):
        return False, None
    g = GrpElem._of(x.ctx, codes_to_mat(x.ctx.field, witnesses[hit[0]]))
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
    scratch.
    """
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


def report_to_csv(report: TwistedOrbitReport, method: str = "orbit-partition") -> str:
    """One row per orbit (representative, size), then a summary row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "representative", "size"])
    for rep, size in zip(report.orbit_representatives, report.orbit_sizes):
        writer.writerow(["orbit", str(rep), size])
    writer.writerow(["summary", f"count={report.count} method={method}", report.group_order])
    return buf.getvalue()
