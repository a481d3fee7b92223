"""Classical matrix groups over finite fields or localizations of F_q[t].

Families: SL_n / PSL_n, Sp_2n / PSp_2n, SO_{2n+1}, SO_2n / PSO_2n, realized
with explicit bilinear forms:

  * symplectic:      J = [[0, I], [-I, 0]]
  * odd orthogonal:  A = [[0, I, 0], [I, 0, 0], [0, 0, 1]]
  * even orthogonal: A = [[0, I], [I, 0]]

Projective kinds work with canonical coset representatives modulo the
scalar center; representative selection minimizes the first nonzero entry
in a fixed total order on scalars, so equality of cosets is equality of
matrices.

Finite groups enumerate by breadth-first closure of root-subgroup
generators, on stacks of uint8 code arrays.  One kernel, mat_mul, does
every stack product as a matmul over F_p, in float32 wherever that is
exact (over F_q each entry is first expanded to its multiplication
matrix over F_p).  A matrix is
keyed by its entries read as one base-q integer (int64; byte keys only
where q^(n^2) does not fit), and an element is found by searching its key
among the group's keys, sorted once.  Only the root elements with a
basis parameter are multiplied out: their closure records the index of
every product against the sorted keys seen so far, which gives each of
them a right-multiplication map on indices (the Schreier-tree method of
permutation groups).  The order over every root element, and every later
action on the group, is then index arithmetic.  This keeps 10^5..10^6
element groups within reach.

The root elements of SOodd and SOeven generate Omega_{2n+1}(q) and
Omega^+_2n(q) (order_omega_odd, order_omega_plus), which is what they
enumerate.  A group whose order exceeds the cap is refused before any
product: the smallest SOeven, Omega^+_6(3), has 6,065,280 elements, so
SOeven and PSOeven cannot be enumerated under ENUM_CAP.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRank,
    CapExceeded,
    CertificateMismatch,
    IncompatibleKind,
    NoForm,
    NotInGroup,
    NotProjective,
    SizeMismatch,
    Unsupported,
)
from .gf import Fq, power
from .matrices import Mat, parse_matrix, nullspace
from .polyring import RingDesc, parse_frac

FAMILIES = ("SL", "PSL", "Sp", "PSp", "SOodd", "SOeven", "PSOeven")
# each projective family and the linear family whose cosets it represents
_PROJECTIVE = {"PSL": "SL", "PSp": "Sp", "PSOeven": "SOeven"}
_FORMED = {"Sp", "PSp", "SOodd", "SOeven", "PSOeven"}
_MIN_RANK = {"SL": 2, "PSL": 2, "Sp": 2, "PSp": 2, "SOodd": 2, "SOeven": 3, "PSOeven": 3}

ENUM_CAP = 1_000_000


@dataclass(frozen=True)
class GroupKind:
    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise IncompatibleKind(f"unknown family {self.family!r}")
        if self.n < _MIN_RANK[self.family]:
            raise BadRank(f"{self.family} needs rank >= {_MIN_RANK[self.family]}")

    @classmethod
    def sl(cls, n):
        return cls("SL", n)

    @classmethod
    def psl(cls, n):
        return cls("PSL", n)

    @classmethod
    def sp(cls, n):
        return cls("Sp", n)

    @classmethod
    def psp(cls, n):
        return cls("PSp", n)

    @classmethod
    def so_odd(cls, n):
        return cls("SOodd", n)

    @classmethod
    def so_even(cls, n):
        return cls("SOeven", n)

    @classmethod
    def pso_even(cls, n):
        return cls("PSOeven", n)

    @property
    def dim(self) -> int:
        if self.family in ("SL", "PSL"):
            return self.n
        if self.family == "SOodd":
            return 2 * self.n + 1
        return 2 * self.n

    @property
    def projective(self) -> bool:
        return self.family in _PROJECTIVE

    @property
    def formed(self) -> bool:
        return self.family in _FORMED

    def linear(self) -> "GroupKind":
        """The matrix group whose cosets a projective kind represents."""
        return GroupKind(_PROJECTIVE[self.family], self.n) if self.projective else self

    def projectivization(self) -> "GroupKind":
        # SOodd has a trivial center, so it is its own quotient
        lift = {lin: proj for proj, lin in _PROJECTIVE.items()} | {"SOodd": "SOodd"}
        if self.family not in lift:
            raise IncompatibleKind(f"{self.family} has no projective quotient here")
        return GroupKind(lift[self.family], self.n)

    def __repr__(self):
        return f"{self.family}({self.n})"


def form_matrix(kind: GroupKind, n: int, scalars) -> Mat:
    """The bilinear form attached to a formed kind, over the given scalars."""
    if not kind.formed:
        raise NoForm(f"{kind.family} carries no bilinear form")
    one, zero = _scalar_one_zero(scalars)
    size = 2 * n + (kind.family == "SOodd")
    rows = [[zero] * size for _ in range(size)]
    sign = -one if kind.family in ("Sp", "PSp") else one
    for i in range(n):
        rows[i][n + i] = one
        rows[n + i][i] = sign
    if kind.family == "SOodd":
        rows[2 * n][2 * n] = one
    return Mat(rows)


def _scalar_one_zero(scalars):
    if isinstance(scalars, (Fq, RingDesc)):
        return scalars.one, scalars.zero
    raise TypeError(f"unsupported scalar domain {scalars!r}")


class GroupCtx:
    """A group kind together with its scalar domain and form matrix."""

    __slots__ = ("kind", "scalars", "form", "_center_cache", "_identity")

    def __init__(self, kind: GroupKind, scalars):
        field = scalars if isinstance(scalars, Fq) else scalars.field
        if field.p == 2:
            raise Unsupported("characteristic 2 is out of scope")
        self.kind = kind
        self.scalars = scalars
        self.form = form_matrix(kind, kind.n, scalars) if kind.formed else None
        self._center_cache = self._identity = None
        if self.form is not None:
            _check_form_invariants(self.form, kind)

    @property
    def field(self) -> Fq:
        return self.scalars if isinstance(self.scalars, Fq) else self.scalars.field

    @property
    def is_finite(self) -> bool:
        return isinstance(self.scalars, Fq)

    @property
    def dim(self) -> int:
        return self.kind.dim

    @property
    def projective(self) -> bool:
        return self.kind.projective

    def scalar(self, value):
        """Coerce an int / field element / fraction into this ctx's scalars."""
        if self.is_finite:
            return self.field.elem(value)
        return self.scalars._as_frac(value)

    @property
    def one(self):
        return self.scalar(1)

    @property
    def zero(self):
        return self.scalar(0)

    def identity_mat(self) -> Mat:
        """The identity, built and scanned once, so products with it read
        its kept codes."""
        if self._identity is None:
            self._identity = Mat.identity(self.dim, self.one, self.zero)
            self._identity._mode()
        return self._identity

    def identity(self) -> "GrpElem":
        return GrpElem._of(self, self.identity_mat())

    def elem(self, rows) -> "GrpElem":
        """The member with these rows, verified (NotInGroup otherwise)."""
        mat = rows if isinstance(rows, Mat) else Mat([[self.scalar(x) for x in r] for r in rows])
        return GrpElem(self, mat)

    def parse_elem(self, text: str) -> "GrpElem":
        field = self.field
        parse = field.parse if self.is_finite else lambda s: parse_frac(field, s)
        return self.elem(parse_matrix(text, parse))

    def center_scalars(self):
        """Scalars lambda with lambda*I in the linear group of this kind."""
        if self._center_cache is None:
            out = []
            for lam in self.field.elements():
                if not lam:
                    continue
                if lam ** self.dim != self.field.one:
                    continue
                if self.kind.formed and lam * lam != self.field.one:
                    continue
                out.append(lam)
            self._center_cache = tuple(out)
        return [self.scalar(lam) for lam in self._center_cache]

    def _center_codes(self):
        self.center_scalars()
        return [lam.code for lam in self._center_cache]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GroupCtx)
            and self.kind == other.kind
            and self.scalars == other.scalars
        )

    def __hash__(self):
        return hash((self.kind, self.scalars))

    def __repr__(self):
        return f"GroupCtx({self.kind!r} over {self.scalars!r})"


def _check_form_invariants(form: Mat, kind: GroupKind):
    anti = kind.family in ("Sp", "PSp")
    if form.transpose() != (-form if anti else form):
        raise CertificateMismatch("form symmetry broken")
    if not form.det():
        raise CertificateMismatch("form not invertible")


def is_member(ctx: GroupCtx, mat: Mat) -> bool:
    """det = 1, entries in the scalar ring, and form preservation."""
    if mat.nrows != ctx.dim or mat.ncols != ctx.dim:
        raise SizeMismatch(f"expected {ctx.dim}x{ctx.dim}, got {mat.nrows}x{mat.ncols}")
    if not ctx.is_finite and not all(ctx.scalars.contains(x) for row in mat.rows for x in row):
        return False
    if mat.det() != ctx.one:
        return False
    return ctx.form is None or mat.transpose() * ctx.form * mat == ctx.form


def canonical_rep(ctx: GroupCtx, mat: Mat) -> Mat:
    """Canonical coset representative modulo the scalar center."""
    lams = ctx.center_scalars()
    if len(lams) == 1:
        return mat
    flat = [x for row in mat.rows for x in row]
    lead = next(x for x in flat if x)
    best = None
    best_key = None
    for lam in lams:
        key = (lam * lead).sort_key()
        if best_key is None or key < best_key:
            best_key = key
            best = lam
    if best == ctx.one:
        return mat
    return mat * best


class GrpElem:
    """Group member: a matrix plus its context.

    Membership is an invariant, verified once: the constructor raises
    NotInGroup unless is_member holds, for matrices from a caller and for
    witnesses, whose membership is the certificate; _of trusts matrices
    derived from members or already tested by is_member.

    Projective contexts store the canonical coset representative, so
    equality and hashing are plain matrix comparisons.
    """

    __slots__ = ("ctx", "mat")

    def __init__(self, ctx: GroupCtx, mat: Mat):
        if not is_member(ctx, mat):
            raise NotInGroup(f"matrix is not a member of {ctx!r}")
        self.ctx, self.mat = ctx, canonical_rep(ctx, mat) if ctx.projective else mat

    @classmethod
    def _of(cls, ctx: GroupCtx, mat: Mat) -> "GrpElem":
        """A GrpElem on a matrix known to be a member, not re-verified."""
        g = object.__new__(cls)
        g.ctx, g.mat = ctx, canonical_rep(ctx, mat) if ctx.projective else mat
        return g

    def __mul__(self, other):
        if not isinstance(other, GrpElem):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise SizeMismatch("elements of different groups")
        return GrpElem._of(self.ctx, self.mat * other.mat)

    def inverse(self) -> "GrpElem":
        """g^-1.  A formed kind needs no elimination: g^T J g = J gives
        g^-1 = J^-1 g^T J, with J^-1 = -J for Sp/PSp and J for SO.  A
        canonical coset representative lam*g preserves J too (lam^2 = 1)."""
        form = self.ctx.form
        if form is None:
            return GrpElem._of(self.ctx, self.mat.inverse())
        inv = form * (self.mat.transpose() * form)
        if self.ctx.kind.family in ("Sp", "PSp"):
            inv = -inv
        return GrpElem._of(self.ctx, inv)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return GrpElem._of(self.ctx, self.mat ** k)

    def trace(self):
        return self.mat.trace()

    def __eq__(self, other):
        return (
            isinstance(other, GrpElem)
            and self.ctx == other.ctx
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.ctx, self.mat))

    def __str__(self):
        return str(self.mat)

    def __repr__(self):
        return f"GrpElem({self.ctx.kind!r}, {self.mat})"


def projective_canonicalize(g: GrpElem) -> GrpElem:
    """Canonical coset representative; identity map on already-canonical input."""
    if not g.ctx.projective:
        raise NotProjective(f"{g.ctx.kind!r} is not a projective kind")
    return GrpElem._of(g.ctx, g.mat)


# ---------------------------------------------------------------------------
# generators: one root subgroup element per root and parameter


def unit_mat(ctx, entries):
    """Identity plus given (i, j, scalar) increments."""
    rows = [list(r) for r in ctx.identity_mat().rows]
    for i, j, v in entries:
        rows[i][j] = rows[i][j] + v
    return Mat(rows)


def generators(ctx: GroupCtx, params=None):
    """Root-subgroup generating set over a finite field, deterministic order.

    One element per root and parameter; the parameters default to every
    nonzero scalar.  Each root subgroup is additive in its parameter, so
    parameters spanning F_q over F_p, such as a basis, generate the same
    group.
    """
    if not ctx.is_finite:
        raise Unsupported("generators need finite scalars")
    field = ctx.field
    if params is None:
        params = [a for a in field.elements() if a]
    fam, n = ctx.kind.family, ctx.kind.n
    out = []

    def emit(entries):
        out.append(GrpElem(ctx, unit_mat(ctx, entries)))

    if fam in ("SL", "PSL"):
        for i in range(n):
            for j in range(n):
                if i != j:
                    for a in params:
                        emit([(i, j, a)])
        return out

    if fam in ("Sp", "PSp"):
        for i in range(n):
            for j in range(n):
                if i != j:
                    for a in params:
                        emit([(i, j, a), (n + j, n + i, -a)])
        for i in range(n):
            for j in range(i + 1, n):
                for a in params:
                    emit([(i, n + j, a), (j, n + i, a)])
                for a in params:
                    emit([(n + j, i, a), (n + i, j, a)])
        for i in range(n):
            for a in params:
                emit([(i, n + i, a)])
            for a in params:
                emit([(n + i, i, a)])
        return out

    # orthogonal kinds
    for i in range(n):
        for j in range(n):
            if i != j:
                for a in params:
                    emit([(i, j, a), (n + j, n + i, -a)])
    for i in range(n):
        for j in range(i + 1, n):
            for a in params:
                emit([(i, n + j, a), (j, n + i, -a)])
            for a in params:
                emit([(n + j, i, a), (n + i, j, -a)])
    if fam == "SOodd":
        last = 2 * n
        half = field.one / field.elem(2)
        for i in range(n):
            for a in params:
                emit([(i, last, a), (last, n + i, -a), (i, n + i, -(a * a) * half)])
            for a in params:
                emit([(n + i, last, a), (last, i, -a), (n + i, i, -(a * a) * half)])
    return out


# ---------------------------------------------------------------------------
# code-array machinery for finite enumeration


def mat_to_codes(mat: Mat) -> np.ndarray:
    return np.array(mat._mode()[1], dtype=np.uint8)


def codes_to_mat(field: Fq, arr: np.ndarray) -> Mat:
    return Mat._coded(field, tuple(map(tuple, arr.tolist())))


# Products go through float32 matmul, which BLAS runs far faster than
# integer matmul.  float32 holds every integer below 2^24, and below 2^21
# the reduction c - p*floor(c/p + 1/(2p)) evaluated in float32 is exact too.
_FLOAT_EXACT = 1 << 21


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for arrays of integers in [0, p), broadcasting."""
    if A.shape[-1] * (p - 1) ** 2 >= _FLOAT_EXACT:
        return A.astype(np.int64) @ B.astype(np.int64) % p
    A, B = A.astype(np.float32), B.astype(np.float32)
    if B.ndim == 2:  # one right factor: a single 2-D product
        C = (A.reshape(-1, A.shape[-1]) @ B).reshape(A.shape[:-1] + B.shape[-1:])
    else:
        C = A @ B
    quot = C * np.float32(1 / p)
    quot += np.float32(0.5 / p)
    np.floor(quot, out=quot)
    quot *= p
    C -= quot
    return C


def mat_mul(field: Fq, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of F_q code matrices, broadcasting over leading axes.

    Over F_p it is one matmul, reduced mod p.  Over F_q, q = p^e, each
    entry of B becomes its e x e multiplication matrix over F_p and each
    entry of A its row of digits, so one F_p matmul gives the digits of
    the product.
    """
    p, e = field.p, field.e
    if e == 1:
        return _matmul_mod(A, B, p).astype(np.uint8)
    if A.size < B.size:
        # expand the operand with fewer matrices: AB = (B^T A^T)^T
        return mat_mul(field, B.swapaxes(-1, -2), A.swapaxes(-1, -2)).swapaxes(-1, -2)
    k, m = B.shape[-2:]
    digits = np.take(field._digits, A, axis=0).reshape(A.shape[:-1] + (k * e,))
    big = np.moveaxis(np.take(field._mulmat, B, axis=0), -1, -3)
    big = big.reshape(B.shape[:-2] + (k * e, m * e))
    prod = _matmul_mod(digits, big, p)
    codes = prod.reshape(-1, e) @ p ** np.arange(e, dtype=prod.dtype)
    return codes.reshape(prod.shape[:-1] + (m,)).astype(np.uint8)


def mul_stack(field: Fq, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(k,n,n) stack times a single (n,m) matrix, exact over F_q."""
    return mat_mul(field, A, B)


def mul_left_stack(field: Fq, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Single (n,n) matrix times a (k,n,n) stack."""
    return mat_mul(field, A, B)


def mul_pairwise(field: Fq, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Elementwise stack product: (k,n,n) times (k,n,n)."""
    return mat_mul(field, A, B)


def canonical_stack(ctx: GroupCtx, stack: np.ndarray) -> np.ndarray:
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


def stack_keys(stack: np.ndarray, q: int) -> np.ndarray:
    """Each matrix of a uint8 code stack as one sortable key: its entries,
    row-major, read as a base-q int64 (most significant first, so keys
    sort like the entry sequences).  Where q^(n^2) does not fit in 63
    bits, the raw bytes as a fixed-width void key instead."""
    width = stack.shape[-2] * stack.shape[-1]
    flat = np.ascontiguousarray(stack).reshape(stack.shape[0], width)
    if q ** width >= 1 << 63:
        return flat.view(np.dtype((np.void, width))).ravel()
    keys = flat[:, 0].astype(np.int64)
    for col in range(1, width):
        keys *= q
        keys += flat[:, col]
    return keys


def search_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.searchsorted(sorted_keys, keys), searching the keys in sorted
    order: on large stacks the binary searches then stay in cache, several
    times faster than in the stack's order."""
    order = np.argsort(keys)
    pos = np.empty(len(keys), dtype=np.intp)
    pos[order] = np.searchsorted(sorted_keys, keys[order])
    return pos


def merge_new(keys: np.ndarray, seen: np.ndarray):
    """The first occurrence of each key not in the sorted, nonempty array
    seen.

    Returns their ascending indices into keys, and seen with their keys
    inserted, still sorted.  The orbit search of a single element needs
    the dedupe: one frontier block meets every step at once, so a new
    element can appear more than once.
    """
    pos = search_sorted(seen, keys)
    unseen = np.flatnonzero(seen[np.minimum(pos, len(seen) - 1)] != keys)
    # dedupe only the unseen keys, usually a small share
    uniq, first = np.unique(keys[unseen], return_index=True)
    first = unseen[first]
    return np.sort(first), np.insert(seen, pos[first], uniq)


# matrix products per block of a broadcast product, bounding its temporaries
PRODUCT_BLOCK = 1 << 15


class FiniteGroup:
    """Fully enumerated finite matrix group, elements as uint8 code arrays
    in the order enumerate_group finds them.

    Lookup finds an element's key among the keys sorted once.  Products
    with the basis root elements b_j = basis_generators(ctx)[j] are index
    maps: right[j] is the int32 map i -> index of x_i b_j.  The tree of
    the breadth-first search over the b_j, tree = (parent, step, levels),
    reaches x_i as x_parent[i] b_step[i]; levels lists the elements depth
    by depth, identity first.  No map of any other element is kept.
    """

    def __init__(self, ctx: GroupCtx, codes: np.ndarray, right, tree):
        self.ctx = ctx
        self.codes = codes
        self.right, self.tree = right, tree
        keys = stack_keys(codes, ctx.field.q)
        self._by_key = np.argsort(keys)
        self._sorted_keys = keys[self._by_key]
        self._inv = None
        self._cayley = None

    @property
    def order(self) -> int:
        return self.codes.shape[0]

    def elem(self, i: int) -> GrpElem:
        return GrpElem._of(self.ctx, codes_to_mat(self.ctx.field, self.codes[i]))

    def elements(self):
        return [self.elem(i) for i in range(self.order)]

    def indices_of_stack(self, stack: np.ndarray) -> np.ndarray:
        if self.ctx.projective:
            stack = canonical_stack(self.ctx, stack)
        keys = stack_keys(stack, self.ctx.field.q)
        pos = np.minimum(search_sorted(self._sorted_keys, keys), self.order - 1)
        missing = self._sorted_keys[pos] != keys
        if missing.any():
            raise NotInGroup(
                f"{int(missing.sum())} of {len(keys)} matrices are not elements of "
                f"the enumerated group {self.ctx!r}"
            )
        return self._by_key[pos]

    def left_maps(self) -> np.ndarray:
        """The index maps i -> index of b_j x_i, one row per basis root
        element, down the tree level by level: b_j x_i = (b_j x_parent) b_step."""
        parent, step, levels = self.tree
        out = np.empty_like(self.right)
        out[:, 0] = self.right[:, 0]
        for kids in levels[1:]:
            out[:, kids] = self.right[step[kids], out[:, parent[kids]]]
        return out

    def right_mul(self, idx: np.ndarray, i: int) -> np.ndarray:
        """The index of x_k x_i for each index k in idx: one basis map per
        letter of x_i's tree word."""
        parent, step, _ = self.tree
        word = []
        while i:
            word.append(step[i])
            i = parent[i]
        for j in reversed(word):
            idx = self.right[j][idx]
        return idx

    def inverse_indices(self) -> np.ndarray:
        """Index of each element's inverse x^(|G|-1), by binary powering
        of the whole stack."""
        if self._inv is None:
            field = self.ctx.field
            k = max(self.order - 1, 1)  # the trivial group is its own inverse
            inv = power(self.codes, k, None, lambda a, b: mul_pairwise(field, a, b))
            self._inv = self.indices_of_stack(inv)
        return self._inv

    def cayley(self, cap: int = 4096) -> np.ndarray:
        if self._cayley is None:
            if self.order > cap:
                raise CapExceeded(f"Cayley table for order {self.order} exceeds cap {cap}")
            field = self.ctx.field
            codes = self.codes
            rows = max(1, PRODUCT_BLOCK // self.order)
            table = np.empty((self.order, self.order), dtype=np.int32)
            for i in range(0, self.order, rows):
                block = mat_mul(field, codes[i:i + rows, None], codes[None])
                table[i:i + rows] = self.indices_of_stack(
                    block.reshape((-1,) + codes.shape[1:])
                ).reshape(-1, self.order)
            self._cayley = table
        return self._cayley


def basis_generators(ctx: GroupCtx):
    """The root elements with a parameter in the F_p-basis 1, w, ..., w^(e-1)
    of F_q: they generate the group, root subgroups being additive."""
    field = ctx.field
    return generators(ctx, [field.from_code(field.p ** k) for k in range(field.e)])


def _basis_search(ctx: GroupCtx, cap: int):
    """Breadth-first closure of the basis root elements, recording the
    index of every product, new or seen before.

    Returns the codes, the right-multiplication map of each basis element
    as an int32 row, the tree (parent, step) and where each depth ends.
    A level's products are made frontier-major, PRODUCT_BLOCK at a time,
    and take new indices in the order of their keys.
    """
    field, n = ctx.field, ctx.dim
    gens = np.concatenate([mat_to_codes(g.mat) for g in basis_generators(ctx)], axis=1)
    b = gens.shape[1] // n
    frontier = mat_to_codes(ctx.identity().mat)[None]
    keys, index = stack_keys(frontier, field.q), np.zeros(1, np.int32)  # sorted keys, their indices
    elems, maps, ends = [frontier], [], []
    parent, step = [np.zeros(1, np.int32)], [np.zeros(1, np.int32)]
    rows = max(1, PRODUCT_BLOCK // b)
    while len(frontier):
        ends.append(len(keys))
        base = len(keys) - len(frontier)
        level = []
        for start in range(0, len(frontier), rows):
            block = frontier[start:start + rows]
            prods = mul_stack(field, block, gens).reshape(len(block), n, b, n)
            prods = prods.swapaxes(1, 2).reshape(-1, n, n)
            if ctx.projective:
                prods = canonical_stack(ctx, prods)
            prod_keys = stack_keys(prods, field.q)
            pos = search_sorted(keys, prod_keys)
            at = np.minimum(pos, len(keys) - 1)
            new = keys[at] != prod_keys
            idx = index[at]
            uniq, first, inverse = np.unique(prod_keys[new], return_index=True, return_inverse=True)
            idx[new] = len(keys) + inverse
            first = np.flatnonzero(new)[first]
            level.append(prods[first])
            parent.append((base + start + first // b).astype(np.int32))
            step.append((first % b).astype(np.int32))
            index = np.insert(index, pos[first], np.arange(len(keys), len(keys) + len(uniq)))
            keys = np.insert(keys, pos[first], uniq)
            maps.append(idx)
            if len(keys) > cap:
                raise CapExceeded(f"group enumeration exceeded cap {cap}")
        frontier = np.concatenate(level)
        elems.append(frontier)
    right = np.ascontiguousarray(np.concatenate(maps).reshape(-1, b).T)
    return np.concatenate(elems), right, (np.concatenate(parent), np.concatenate(step)), ends


def _digit_steps(field: Fq):
    """(a, a - b_k, k) for each nonzero parameter a, as codes, in the order
    of field.elements(): b_k = p^k is the basis element of a's lowest
    nonzero base-p digit, so a - b_k comes earlier in that order."""
    steps = []
    for a in field.elements()[1:]:
        k = next(k for k in range(field.e) if a.code // field.p ** k % field.p)
        steps.append((a.code, a.code - field.p ** k, k))
    return steps


def _parameter_maps(field: Fq, right: np.ndarray, frontier: np.ndarray):
    """The images of the frontier under right multiplication by x_r(a),
    for each root r and nonzero parameter a in the order of generators():
    x x_r(a) = (x x_r(a - b_k)) b_k, one gather from an earlier image.  An
    image is dropped once no later parameter needs it."""
    steps = _digit_steps(field)
    uses = collections.Counter(parent for _, parent, _ in steps)
    for root in range(len(right) // field.e):
        images, pending = {0: frontier}, dict(uses)
        for code, parent, k in steps:
            images[code] = right[root * field.e + k][images[parent]]
            yield images[code]
            pending[parent] -= 1
            if not pending[parent]:
                del images[parent]
            if code not in pending:
                del images[code]


def _generator_major_order(field: Fq, right: np.ndarray) -> np.ndarray:
    """The breadth-first order over every root element x_r(a), on indices:
    each level takes the generators in turn, and an image joins where it
    first appears.  Right multiplication is injective, so one generator's
    images need no dedupe among themselves.  Raises CertificateMismatch
    unless the search reaches every element once."""
    order = right.shape[1]
    seen = np.zeros(order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int32)
    levels = [frontier]
    while len(frontier):
        level = []
        for images in _parameter_maps(field, right, frontier):
            fresh = images[~seen[images]]
            seen[fresh] = True
            level.append(fresh)
        frontier = np.concatenate(level)
        levels.append(frontier)
    found = np.concatenate(levels)
    if len(found) != order or not seen.all():
        raise CertificateMismatch(
            f"the index search over every root element found {len(found)} of {order} elements")
    return found


def _cached_per_group(build):
    """build behind an LRU cache keyed on (ctx, cap) however the cap is
    passed; keeps lru_cache's cache_clear, cache_info and __wrapped__."""
    cached = functools.lru_cache(maxsize=32)(build)
    call = functools.wraps(build)(lambda ctx, cap=ENUM_CAP: cached(ctx, cap))
    call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
    return call


@_cached_per_group
def enumerate_group(ctx: GroupCtx, cap: int = ENUM_CAP) -> FiniteGroup:
    """Breadth-first closure of the root generators; deterministic order.

    Refuses with CapExceeded before any product when expected_order
    exceeds cap, and during the search once it passes cap; checks the
    enumerated order against expected_order where exact.

    The order is that of the search over every root element x_r(a),
    generator-major: each level multiplies the frontier on the right by
    every generator in turn, and a product joins the group where it first
    appears.  Only the b basis root elements are multiplied out: their
    search records each product's index, giving their right maps, and the
    full search then runs on indices, through x_r(a) = x_r(a - b_k) b_k.
    Every x_r(a) is certified once: its composed map sends the identity
    to its own index, which with the basis maps proves additivity for
    every parameter.  The group keeps the b |G| int32 maps, 17 MB for
    SL_2(F_81) (531,360 elements, b = 8), and the tree, three int32
    arrays of length |G|.
    """
    if not ctx.is_finite:
        raise Unsupported("cannot enumerate over an infinite ring")
    field = ctx.field
    order, exact = expected_order(ctx.kind, field.q)
    if order > cap:
        raise CapExceeded(f"group enumeration exceeded cap {cap}: {ctx.kind!r} over "
                          f"F_{field.q} has order {'' if exact else 'at least '}{order}")
    codes, right, (parent, step), ends = _basis_search(ctx, cap)
    if exact and len(codes) != order:
        raise CertificateMismatch(f"enumerated {len(codes)} elements, the order formula gives {order}")
    found = _generator_major_order(field, right)
    rank = np.empty_like(found)
    rank[found] = np.arange(len(found), dtype=found.dtype)
    right = rank[right[:, found]]
    G = FiniteGroup(ctx, codes[found], right, (rank[parent[found]], step[found], np.split(rank, ends[:-1])))
    gens = np.stack([mat_to_codes(g.mat) for g in generators(ctx)])
    walked = np.concatenate(list(_parameter_maps(field, right, np.zeros(1, dtype=np.int32))))
    if not np.array_equal(G.indices_of_stack(gens), walked):
        raise CertificateMismatch("a root element's parameter walk does not reach its index")
    return G


# ---------------------------------------------------------------------------
# intertwiners: a linear system on matrix entries, solved then filtered

# kernel combinations intertwiners may enumerate, over all branches: room
# for any two non-scalar elements of PSL_2(F_81), two branches of q^2 each
SOLVE_CAP = 20_000


def _combine(coefs, basis):
    return functools.reduce(Mat.__add__, (m * c for c, m in zip(coefs, basis)))


def intertwiners(ctx: GroupCtx, pairs, cap: int = SOLVE_CAP):
    """All members M with a M = lam M b for every pair (a, b) of matrices.

    lam is 1 for linear kinds; for projective kinds each pair may take any
    center scalar, so M intertwines the cosets.  The system is solved pair
    by pair on the entries of M, one branch per center scalar; each
    branch's kernel is then enumerated over F_q and filtered by membership.
    Raises CapExceeded, before enumerating, when the kernels hold more than
    cap combinations in all.  Members come once each, ordered by codes.
    """
    if not ctx.is_finite:
        raise Unsupported("intertwiners need finite scalars")
    field = ctx.field
    N = ctx.dim
    lams = ctx.center_scalars() if ctx.projective else [ctx.one]
    units = [
        Mat([[field.one if (r, c) == (i, j) else field.zero for c in range(N)] for r in range(N)])
        for i in range(N) for j in range(N)
    ]
    branches = [units]
    for a, b in pairs:
        new_branches = []
        for basis in branches:
            for lam in lams:
                # the map (c_k) -> sum_k c_k (a M_k - lam M_k b), row per entry
                images = [a * m - m * b * lam for m in basis]
                kern = nullspace([[img[r // N, r % N] for img in images] for r in range(N * N)])
                if kern:
                    new_branches.append([_combine(vec, basis) for vec in kern])
        branches = new_branches
    combos = sum(field.q ** len(basis) for basis in branches)
    if combos > cap:
        raise CapExceeded(f"{combos} kernel combinations exceed cap {cap}")
    found = {}
    for basis in branches:
        for coefs in itertools.product(field.elements(), repeat=len(basis)):
            mat = _combine(coefs, basis)
            if any(x for row in mat.rows for x in row) and is_member(ctx, mat):
                g = GrpElem._of(ctx, mat)
                found.setdefault(mat_to_codes(g.mat).tobytes(), g)
    return [found[key] for key in sorted(found)]


def center(ctx: GroupCtx, cap: int = SOLVE_CAP):
    """All members commuting with every generator (projectively for
    projective kinds: commuting up to a center scalar).

    The center of the generated group: for SOeven that is Omega^+_2n(q),
    which holds -I iff its spinor norm, the discriminant (-1)^n of the
    form, is a square in F_q, that is iff q^n = 1 (mod 4).
    """
    found = intertwiners(ctx, [(h.mat, h.mat) for h in generators(ctx)], cap)
    if ctx.kind.family == "SOeven" and ctx.field.q ** ctx.kind.n % 4 != 1:
        found = [g for g in found if g.mat == ctx.identity_mat()]
    return found


# ---------------------------------------------------------------------------
# classical order formulas: enumeration refuses by them, and checks against them


def order_sl(n: int, q: int) -> int:
    gl = 1
    for i in range(n):
        gl *= q ** n - q ** i
    return gl // (q - 1)


def order_sp(n: int, q: int) -> int:
    """Order of Sp_2n(F_q)."""
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def order_omega_odd(n: int, q: int) -> int:
    """Order of Omega_{2n+1}(F_q), q odd: half that of Sp_2n(F_q)."""
    return order_sp(n, q) // 2


def order_omega_plus(n: int, q: int) -> int:
    """Order of Omega^+_{2n}(F_q), q odd."""
    out = q ** (n * (n - 1)) * (q ** n - 1)
    for i in range(1, n):
        out *= q ** (2 * i) - 1
    return out // 2


def expected_order(kind: GroupKind, q: int):
    """The order of the group enumerate_group builds over F_q, and whether
    it is exact.  SOodd and SOeven enumerate Omega; for PSOeven, Omega^+
    modulo the scalars it holds, half of |Omega^+| is a lower bound.
    """
    n, fam = kind.n, kind.family
    if fam in ("SL", "PSL"):
        scalars = math.gcd(n, q - 1) if kind.projective else 1
        return order_sl(n, q) // scalars, True
    if fam in ("Sp", "PSp"):
        return order_sp(n, q) // (2 if kind.projective else 1), True
    if fam == "SOodd":
        return order_omega_odd(n, q), True
    if fam == "SOeven":
        return order_omega_plus(n, q), True
    return order_omega_plus(n, q) // 2, False
