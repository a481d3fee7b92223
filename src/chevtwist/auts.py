"""Group automorphisms in normal form: inner part, ring part, graph part.

Application order is fixed: graph first, then ring, then inner.  The
composition law pushes inner parts to the left through the two exact
relations

    sigma . conj_x = conj_{sigma(x)} . sigma
    graph . ring   = ring . graph

both of which hold on the nose in these matrix realizations (ring maps
are entrywise, the transpose-inverse commutes with entrywise ring maps,
and the reflection matrix B has 0/1 entries fixed by every ring map).

Graph parts: "tinv" (transpose inverse) for the special linear kinds,
"B" (conjugation by the reflection matrix swapping the last hyperbolic
pair) for the even orthogonal kinds.  Other kinds admit no graph part.

The normal form is complete for the linear kinds (SL, PSL) only from rank
3 up; rank 2 stays available as test plumbing.
"""

from __future__ import annotations

import re

from .errors import (
    BadRank,
    IncompatibleKind,
    ParseError,
    TrialityUnsupported,
)
from .groups import GroupCtx, GrpElem
from .matrices import Mat
from .polyring import RingAut

_GRAPH_FAMILIES = {
    "tinv": ("SL", "PSL"),
    "B": ("SOeven", "PSOeven"),
}


def b_matrix(n: int, scalars) -> Mat:
    """Reflection matrix for the even orthogonal graph automorphism.

    The permutation matrix swapping the last hyperbolic basis pair
    (coordinates n and 2n).  It is an involution, preserves the even
    orthogonal form, has determinant -1, and conjugation by it fixes
    the witness elements x_lambda: witness.d4_tau_suite checks each of
    these as a certificate row.
    """
    if n < 3:
        raise BadRank("reflection matrix needs rank >= 3")
    one, zero = scalars.one, scalars.zero
    perm = b_swap(n)
    return Mat([[one if j == perm[i] else zero for j in range(2 * n)] for i in range(2 * n)])


def b_swap(n: int) -> list:
    """The coordinate permutation of the reflection matrix: conjugating by
    it permutes rows and columns alike, swapping n-1 and 2n-1."""
    perm = list(range(2 * n))
    perm[n - 1], perm[2 * n - 1] = 2 * n - 1, n - 1
    return perm


class GroupAut:
    """Composite automorphism of a group context, in normal form."""

    __slots__ = ("ctx", "inner", "ring", "graph", "_inner_inv")

    def __init__(self, ctx: GroupCtx, inner: GrpElem | None = None,
                 ring=None, graph: str | None = None):
        if graph in ("sigma", "sigma2"):
            raise TrialityUnsupported("order-three diagram symmetries are out of scope")
        if graph is not None:
            if graph not in _GRAPH_FAMILIES:
                raise IncompatibleKind(f"unknown graph part {graph!r}")
            if ctx.kind.family not in _GRAPH_FAMILIES[graph]:
                raise IncompatibleKind(
                    f"graph part {graph!r} is not an automorphism of {ctx.kind!r}"
                )
        if ring is not None:
            if ctx.is_finite:
                if not isinstance(ring, int):
                    raise IncompatibleKind("finite-field contexts take a Frobenius power")
                ring = ring % ctx.field.e
                if ring == 0:
                    ring = None
            else:
                if not isinstance(ring, RingAut):
                    raise IncompatibleKind("ring contexts take a RingAut")
                if ring.ring != ctx.scalars:
                    raise IncompatibleKind("ring automorphism of a different ring")
                if ring.is_identity:
                    ring = None
        if inner is not None:
            if inner.ctx != ctx:
                raise IncompatibleKind("inner part from a different context")
            if inner.mat == ctx.identity_mat():
                inner = None
        self.ctx = ctx
        self.inner = inner
        self.ring = ring
        self.graph = graph
        self._inner_inv = None  # inner^-1, filled on first application

    @classmethod
    def identity(cls, ctx: GroupCtx) -> "GroupAut":
        return cls(ctx)

    @property
    def is_identity(self) -> bool:
        return self.inner is None and self.ring is None and self.graph is None

    # -- application --

    def _apply_graph(self, mat: Mat) -> Mat:
        if self.graph is None:
            return mat
        if self.graph == "tinv":
            return mat.inverse().transpose()
        return mat._permuted(b_swap(self.ctx.kind.n))

    def _apply_ring(self, mat: Mat) -> Mat:
        """The ring part on a member's entries, which lie in R."""
        if self.ring is None:
            return mat
        if isinstance(self.ring, int):
            return mat._mapped(self.ctx.field._frobs[self.ring])
        return mat.map(self.ring._image)

    def outer_apply(self, g: GrpElem) -> GrpElem:
        """Graph then ring, without the inner part: members to members."""
        mat = self._apply_ring(self._apply_graph(g.mat))
        return GrpElem._of(self.ctx, mat)

    def __call__(self, g: GrpElem) -> GrpElem:
        if g.ctx != self.ctx:
            raise IncompatibleKind("element from a different context")
        out = self.outer_apply(g)
        if self.inner is not None:
            if self._inner_inv is None:
                self._inner_inv = self.inner.inverse()
            out = self.inner * out * self._inner_inv
        return out

    # -- composition --

    def compose(self, other: "GroupAut") -> "GroupAut":
        """self after other, renormalized.

        With self = conj_x . r1 . g1 and other = conj_y . r2 . g2, the
        inner part of other moves left through self's ring and graph
        parts, giving inner x * (r1.g1)(y), ring r1.r2, graph g1.g2.
        """
        if self.ctx != other.ctx:
            raise IncompatibleKind("automorphisms of different contexts")
        moved = self.outer_apply(other.inner) if other.inner is not None else None
        if self.inner is not None and moved is not None:
            inner = self.inner * moved
        else:
            inner = self.inner if moved is None else moved
        if self.ring is None:
            ring = other.ring
        elif other.ring is None:
            ring = self.ring
        elif isinstance(self.ring, int):
            ring = self.ring + other.ring
        else:
            ring = self.ring.compose(other.ring)
        if self.graph == other.graph:
            graph = None
        else:
            graph = self.graph if other.graph is None else other.graph
        return GroupAut(self.ctx, inner=inner, ring=ring, graph=graph)

    def __eq__(self, other):
        return (
            isinstance(other, GroupAut)
            and self.ctx == other.ctx
            and self.inner == other.inner
            and self.ring == other.ring
            and self.graph == other.graph
        )

    def __hash__(self):
        return hash((self.ctx, self.inner, self.ring, self.graph))

    def __repr__(self):
        parts = []
        if self.inner is not None:
            parts.append("inner")
        if self.ring is not None:
            parts.append(f"ring={self.ring!r}" if not isinstance(self.ring, int) else f"frob^{self.ring}")
        if self.graph is not None:
            parts.append(f"graph={self.graph}")
        return f"GroupAut({', '.join(parts) or 'id'})"


def aut_order_on(sigma: GroupAut, elems, cap: int = 64):
    """Least r >= 1 with sigma^r fixing every listed element; None past cap."""
    elems = list(elems)
    current = elems
    for r in range(1, cap + 1):
        current = [sigma(g) for g in current]
        if current == elems:
            return r
    return None


# ---------------------------------------------------------------------------
# text grammar: inner=<matrix>;ring=frob[^r][,mobius(a,b,c,d)];graph=none|tinv|B
# (any subset of the parts, each at most once, in any order; or id).  Matrix
# entries and mobius parameters are in the scalar grammar of gf.evaluate,
# matrix entries over a ring context being fractions `num / den`.


def render_group_aut(sigma: GroupAut) -> str:
    parts = []
    if sigma.inner is not None:
        parts.append(f"inner={sigma.inner.mat}")
    if sigma.ring is not None:
        if isinstance(sigma.ring, int):
            parts.append(f"ring=frob^{sigma.ring}")
        else:
            a, b, c, d = sigma.ring.mobius
            parts.append(f"ring=frob^{sigma.ring.frob},mobius({a},{b},{c},{d})")
    if sigma.graph is not None:
        parts.append(f"graph={sigma.graph}")
    return ";".join(parts) if parts else "id"


def parse_group_aut(text: str, ctx: GroupCtx) -> GroupAut:
    s = text.strip()
    if s in ("", "id", "identity"):
        return GroupAut.identity(ctx)
    # a part starts at the text or after a ';' followed by `key=`; the ';'s
    # inside inner=<matrix> separate its rows and are followed by entries
    parts = {}
    for part in re.split(r";(?=\s*\w+\s*=)", s):
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq:
            raise ParseError(f"cannot parse automorphism {text[:60]!r}")
        if key not in ("inner", "ring", "graph"):
            raise ParseError(f"unknown automorphism part {key[:60]!r}")
        if key in parts:
            raise ParseError(f"repeated automorphism part {key!r}")
        parts[key] = val.strip()
    inner = ctx.parse_elem(parts["inner"]) if "inner" in parts else None
    ring = _parse_ring_part(parts["ring"], ctx) if "ring" in parts else None
    graph = parts.get("graph")
    return GroupAut(ctx, inner=inner, ring=ring, graph=None if graph == "none" else graph)


def _parse_ring_part(val: str, ctx: GroupCtx):
    m = re.fullmatch(r"frob(?:\^(\d+))?\s*(?:,\s*mobius\((.*)\))?", val)
    if m is None:
        raise ParseError(f"cannot parse ring part {val[:60]!r}")
    frob = 1 if m[1] is None else int(m[1])
    if ctx.is_finite:
        if m[2] is not None:
            raise IncompatibleKind("mobius part needs a polynomial ring context")
        return frob
    mobius = (1, 0, 0, 1) if m[2] is None else tuple(ctx.field.parse(x) for x in m[2].split(","))
    if len(mobius) != 4:
        raise ParseError("mobius needs four parameters")
    return RingAut(ctx.scalars, frob, mobius)
