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

Every root element x_r(a) = exp(a X_r), the generators and the witness
factors among them, reads one table of root directions X_r, whose
identities X^3 = 0 and X^T J + J X = 0 are checked once per kind and
field (root_table): x_r(a) is then a member for every parameter a in
every ring over the field, with no membership test per element.

Finite groups enumerate by breadth-first closure of root-subgroup
generators.  Elements are uint8 code matrices; one kernel, mat_mul, does
every product of code matrices as a matmul over F_p, in float32 wherever
that is exact (over F_q each entry is first expanded to its
multiplication matrix over F_p).  One orbit algorithm, closure, does every
search, on row codes: each matrix as its n rows, row i's entries read as
one base-q integer.  A matrix is keyed by its row codes read in base q^n,
the int64 its entries give in base q (byte keys only where q^(n^2) does
not fit).  The closure finds each block's images by their keys, sorted
once, among the sorted keys seen so far, and adds new elements in
discovery order, along a tree.  Enumeration closes the identity under the
root elements with a basis parameter: one mat_mul product gives the row
code of every row times every basis element (row_table), so each block's
products are a gather from that table.  It keeps the index of every
image, a right-multiplication map on indices for each (the Schreier-tree
method of permutation groups); its sorted keys are the group's lookup
table.  The order over every root element, and every later action on the
group, is then index arithmetic.  This keeps 10^5..10^6 element groups
within reach.

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
import operator
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
        self.form = None
        if kind.formed:
            form = field_form(kind, field)
            self.form = form if scalars is field else form_matrix(kind, kind.n, scalars)
        self._center_cache = self._identity = None

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


@functools.lru_cache(maxsize=None)
def field_form(kind: GroupKind, field: Fq) -> Mat:
    """The form of a formed kind over a field, checked once per (kind,
    field).  Its entries are the constants 0 and +-1, so its symmetry and
    determinant over the field are those of the same form over every ring
    of fractions over that field."""
    form = form_matrix(kind, kind.n, field)
    _check_form_invariants(form, kind)
    return form


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

    Membership is an invariant, verified once: the constructor, which
    GroupCtx.elem calls on a caller's matrix, raises NotInGroup unless
    is_member holds; _of trusts matrices derived from members or
    certified for a whole family at once (the root elements
    x_r(a) = exp(a X_r), by root_table's identities on X_r, and the torus
    elements of witness.explicit_conjugator).

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
        """g^-1.  A formed kind needs no elimination and no product: g^T J g
        = J gives g^-1 = J^-1 g^T J, a signed permutation of g^T whose
        entry (i, j) is e_i e_j g[pi(j)][pi(i)], where pi swaps i and n + i
        (and fixes 2n for SOodd) and e_k = -1 for k < n on Sp/PSp, else 1.
        A canonical coset representative lam*g preserves J too
        (lam^2 = 1)."""
        ctx = self.ctx
        if ctx.form is None:
            return GrpElem._of(ctx, self.mat.inverse())
        n, signed = ctx.kind.n, ctx.kind.family in ("Sp", "PSp")
        field, codes = self.mat._mode()
        if codes is not None:
            inv = Mat._coded(field, _form_inverse(codes, n, signed, field._neg.__getitem__))
        else:
            inv = Mat._of(_form_inverse(self.mat.rows, n, signed, operator.neg), False)
        return GrpElem._of(ctx, inv)

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


def _form_inverse(rows, n, signed, neg):
    """The rows of J^-1 g^T J for the rows of g (see GrpElem.inverse): the
    columns of g, each reordered by pi, in the order pi gives, with neg
    applied to the entries whose e_i e_j is -1 when signed."""
    cols = list(zip(*rows))
    if not signed:
        return tuple([c[n:2 * n] + c[:n] + c[2 * n:] for c in cols[n:2 * n] + cols[:n] + cols[2 * n:]])
    return tuple(
        [c[n:] + tuple(map(neg, c[:n])) for c in cols[n:]]
        + [tuple(map(neg, c[n:])) + c[:n] for c in cols[:n]]
    )


def projective_canonicalize(g: GrpElem) -> GrpElem:
    """Canonical coset representative; identity map on already-canonical input."""
    if not g.ctx.projective:
        raise NotProjective(f"{g.ctx.kind!r} is not a projective kind")
    return GrpElem._of(g.ctx, g.mat)


# ---------------------------------------------------------------------------
# root elements x_r(a) = exp(a X_r), from one table of root directions


def unit_mat(ctx, entries):
    """Identity plus given (i, j, scalar) increments."""
    rows = [list(r) for r in ctx.identity_mat().rows]
    for i, j, v in entries:
        rows[i][j] = rows[i][j] + v
    return Mat(rows)


def root_directions(kind: GroupKind):
    """The direction X_r of each root r, as its entries (i, j, +-1), in the
    order of generators(): E_ij (- E_(n+j)(n+i)) for i != j, the roots on
    the off-diagonal blocks, then Sp's long roots or SOodd's roots through
    the last coordinate."""
    fam, n = kind.linear().family, kind.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if fam == "SL":
        return [((i, j, 1),) for i, j in pairs]
    sign = 1 if fam == "Sp" else -1
    out = [((i, j, 1), (n + j, n + i, -1)) for i, j in pairs]
    for i, j in itertools.combinations(range(n), 2):
        out += [((i, n + j, 1), (j, n + i, sign)), ((n + j, i, 1), (n + i, j, sign))]
    for i in range(n):
        if fam == "Sp":
            out += [((i, n + i, 1),), ((n + i, i, 1),)]
        elif fam == "SOodd":
            out += [((i, 2 * n, 1), (2 * n, n + i, -1)), ((n + i, 2 * n, 1), (2 * n, i, -1))]
    return out


@functools.lru_cache(maxsize=None)
def root_table(kind: GroupKind, field: Fq) -> dict:
    """Each root direction, mapped to the nonzero entries of X and of X^2/2
    over the field, checked once per (kind, field): X^3 = 0, and for a
    formed kind X^T J + J X = 0.  The entries of X and J are constants, so
    both hold over every ring R of fractions over the field, and then
    x(a) = I + a X + a^2 X^2/2 = exp(a X) is a member for every a in R:
    it is unipotent, so det 1, and exp(a X)^T J = J exp(-a X), while
    exp(-a X) exp(a X) = I as X^3 = 0 and p is odd (Steinberg, Lectures
    on Chevalley Groups, section 3)."""
    J = field_form(kind, field) if kind.formed else None
    zero = Mat([[field.zero] * kind.dim] * kind.dim)
    table = {}
    for root in root_directions(kind):
        rows = [list(r) for r in zero.rows]
        for i, j, c in root:
            rows[i][j] += field.elem(c)
        X = Mat(rows)
        if J is not None and X.transpose() * J + J * X != zero:
            raise CertificateMismatch("root direction does not preserve the form")
        square = X * X
        if square * X != zero:
            raise CertificateMismatch("root direction does not cube to zero")
        table[root] = [[(i, j, c) for i, row in enumerate(M.rows) for j, c in enumerate(row) if c]
                       for M in (X, square * field.elem(2).inverse())]
    return table


def root_element(ctx: GroupCtx, root, a) -> "GrpElem":
    """x_r(a) = I + a X + a^2 X^2/2 for the root r with these direction
    entries: a member by root_table's check, for every a in the scalars;
    the caller vouches that a lies in them."""
    table = root_table(ctx.kind, ctx.field)
    if root not in table:
        raise IncompatibleKind(f"{root} is not a root direction of {ctx.kind!r}")
    X, half_square = table[root]
    entries = [(i, j, a * c) for i, j, c in X] + [(i, j, a * a * c) for i, j, c in half_square]
    return GrpElem._of(ctx, unit_mat(ctx, entries))


def generators(ctx: GroupCtx):
    """Root-subgroup generating set over a finite field, deterministic order:
    one element x_r(a) per root r of root_directions and nonzero scalar a."""
    if not ctx.is_finite:
        raise Unsupported("generators need finite scalars")
    params = [a for a in ctx.field.elements() if a]
    return [root_element(ctx, root, a) for root in root_directions(ctx.kind) for a in params]


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
    """A stack of rows (k,n) or matrices (k,n,n) times a single (n,m)
    matrix, exact over F_q."""
    return mat_mul(field, A, B)


def mul_left_stack(field: Fq, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Single (n,n) matrix times a (k,n,n) stack."""
    return mat_mul(field, A, B)


def mul_pairwise(field: Fq, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Elementwise stack product: (k,n,n) times (k,n,n)."""
    return mat_mul(field, A, B)


def _read_in_base(digits: np.ndarray, base: int) -> np.ndarray:
    """The last axis of digits read as one int64 in this base, its first
    entry most significant."""
    out = digits[..., 0].astype(np.int64)
    for col in range(1, digits.shape[-1]):
        out *= base
        out += digits[..., col]
    return out


def row_codes(stack: np.ndarray, q: int) -> np.ndarray:
    """Each matrix of a uint8 code stack as its n row codes, int64 of
    shape (..., n): row i's entries read in base q, column 0 most
    significant.  A row code is below q^n; Unsupported where q^n does not
    fit in 63 bits."""
    n = stack.shape[-1]
    if q ** n >= 1 << 63:
        raise Unsupported(f"a row of {n} entries over F_{q} does not fit an int64 row code")
    return _read_in_base(stack, q)


def row_entries(rows: np.ndarray, q: int, n: int | None = None) -> np.ndarray:
    """The n uint8 entries of each row code, a trailing axis.  n defaults
    to the length of the last axis, so the row codes (..., n) of matrices
    decode to their code matrices (..., n, n), inverting row_codes."""
    n = rows.shape[-1] if n is None else n
    place = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (rows[..., None] // place % q).astype(np.uint8)


def row_keys(rows: np.ndarray, q: int) -> np.ndarray:
    """Each matrix of row codes (k, n) as one sortable key: its row codes
    read in base q^n, the int64 its entries give read row-major in base q
    (most significant first, so keys sort like the entry sequences).
    Where q^(n^2) does not fit in 63 bits, the raw bytes of its entries as
    a fixed-width void key instead."""
    n = rows.shape[-1]
    if q ** (n * n) >= 1 << 63:
        flat = row_entries(rows, q).reshape(len(rows), n * n)
        return flat.view(np.dtype((np.void, n * n))).ravel()
    return _read_in_base(rows, q ** n)


@functools.lru_cache(maxsize=None)
def _center_choice(field: Fq, center: tuple) -> np.ndarray:
    """For each scalar a, the center scalar lam (a code) that makes lam*a
    least in the scalar order; 1 for a = 0."""
    lams = np.array(center)
    best = lams[field._rank[field._mul_np[lams[:, None], np.arange(field.q)]].argmin(axis=0)]
    best[0] = 1
    return best


def canonical_entries(ctx: GroupCtx, stack: np.ndarray) -> np.ndarray:
    """Canonical coset representatives of a uint8 code stack (..., n, n):
    the first nonzero entry picks the center scalar, which scales the
    matrix (canonical_rep on code arrays)."""
    center = tuple(ctx._center_codes())
    if len(center) <= 1:
        return stack
    n = stack.shape[-1]
    flat = stack.reshape(stack.shape[:-2] + (n * n,))
    lead = np.take_along_axis(flat, (flat != 0).argmax(axis=-1)[..., None], axis=-1)
    return ctx.field._mul_np[_center_choice(ctx.field, center)[lead][..., None], stack]


@functools.lru_cache(maxsize=None)
def _row_scalings(field: Fq, n: int, center: tuple):
    """The lead entry of every row code below q^n, and the (q, q^n) int32
    table whose [a, c] is the row code of lam*(row c), lam the center
    scalar _center_choice picks for the lead entry a."""
    rows = row_entries(np.arange(field.q ** n), field.q, n)
    lead = np.take_along_axis(rows, (rows != 0).argmax(axis=1)[:, None], axis=1).ravel()
    scaled = field._mul_np[_center_choice(field, center)[:, None, None], rows]
    return lead, row_codes(scaled, field.q).astype(np.int32)


def canonical_stack(ctx: GroupCtx, rows: np.ndarray) -> np.ndarray:
    """Canonical coset representatives of matrices given by row codes
    (k, n): the lead entry of the first nonzero row picks the center
    scalar, and one gather from a (q, q^n) table scales every row.  For
    enumerated groups, where q^n is at most |G| + 1."""
    center = tuple(ctx._center_codes())
    if len(center) <= 1 or not len(rows):
        return rows
    lead, scaled = _row_scalings(ctx.field, ctx.dim, center)
    first = np.take_along_axis(rows, (rows != 0).argmax(axis=1)[:, None], axis=1)
    return scaled[lead[first], rows]


def search_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.searchsorted(sorted_keys, keys), searching the keys in sorted
    order: on large stacks the binary searches then stay in cache, several
    times faster than in the stack's order."""
    order = np.argsort(keys)
    pos = np.empty(len(keys), dtype=np.intp)
    pos[order] = np.searchsorted(sorted_keys, keys[order])
    return pos


# products per block of a broadcast product or a closure step, bounding its
# temporaries
PRODUCT_BLOCK = 1 << 15


def closure(ctx: GroupCtx, start: np.ndarray, act, width: int, cap: int, refusal: str,
            maps: bool = False):
    """Breadth-first closure of the matrix with row codes start (n,) under
    act, which gives the width images of each matrix of a frontier block
    (row codes (k, n), PRODUCT_BLOCK images at a time) as row codes
    (k*width, n), frontier-major; in projective contexts act returns them
    canonical.  A block's image keys are sorted once and found among the
    sorted keys seen so far; a new element joins where it first occurs,
    as image step[i] of element parent[i].  Raises CapExceeded(refusal)
    once a block grows the set past cap.

    Returns the row codes in discovery order, the tree (parent, step),
    where each depth ends, and the sorted keys with each key's index; with
    maps, also the index of every image, element-major, one array per
    block.
    """
    q = ctx.field.q
    frontier = start[None]
    keys, index = row_keys(frontier, q), np.zeros(1, np.int32)
    elems, ends, images = [frontier], [], []
    parent, step = [np.zeros(1, np.int32)], [np.zeros(1, np.int32)]
    rows = max(1, PRODUCT_BLOCK // width)
    while len(frontier):
        ends.append(len(keys))
        base = len(keys) - len(frontier)
        level = []
        for at in range(0, len(frontier), rows):
            prods = act(frontier[at:at + rows])
            prod_keys = row_keys(prods, q)
            order = np.argsort(prod_keys)
            sorted_keys = prod_keys[order]
            pos = np.searchsorted(keys, sorted_keys)
            near = np.minimum(pos, len(keys) - 1)
            unseen = np.flatnonzero(keys[near] != sorted_keys)
            fresh = sorted_keys[unseen]
            # runs of equal unseen keys: each run is one new element, which
            # joins at its least image position
            starts = np.ones(len(fresh), dtype=bool)
            starts[1:] = fresh[1:] != fresh[:-1]
            runs = np.flatnonzero(starts)
            first = np.minimum.reduceat(order[unseen], runs)
            # a new element's index is its rank among the first positions
            joins = np.zeros(len(prods), dtype=bool)
            joins[first] = True
            new = len(keys) - 1 + np.cumsum(joins, dtype=np.int32)[first]
            if maps:
                idx = np.empty(len(prods), np.int32)
                idx[order] = index[near]
                idx[order[unseen]] = new[np.cumsum(starts) - 1]
                images.append(idx)
            keys = np.insert(keys, pos[unseen[runs]], fresh[runs])
            index = np.insert(index, pos[unseen[runs]], new)
            first = np.flatnonzero(joins)
            level.append(prods[first])
            parent.append((base + at + first // width).astype(np.int32))
            step.append((first % width).astype(np.int32))
            if len(runs) and len(keys) > cap:
                raise CapExceeded(refusal)
        frontier = np.concatenate(level)
        elems.append(frontier)
    tree = np.concatenate(parent), np.concatenate(step)
    return np.concatenate(elems), tree, ends, (keys, index), images


class FiniteGroup:
    """Fully enumerated finite matrix group, elements as uint8 code arrays
    in the order enumerate_group finds them.

    Lookup finds an element's key among the sorted keys, lookup =
    (sorted keys, index of each), which the enumeration's closure already
    holds.  Products with the basis root elements b_j, the x_r(p^k) root by
    root, are index maps: right[j] is the int32 map i -> index of x_i b_j,
    so b_j is element right[j, 0].  The tree of the breadth-first search
    over the b_j, tree = (parent, step, levels), reaches x_i as
    x_parent[i] b_step[i]; levels lists the elements depth by depth,
    identity first.  No map of any other element is kept.
    """

    def __init__(self, ctx: GroupCtx, codes: np.ndarray, right, tree, lookup):
        self.ctx = ctx
        self.codes = codes
        self.right, self.tree = right, tree
        self._sorted_keys, self._by_key = lookup
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
        q = self.ctx.field.q
        rows = row_codes(stack, q)
        if self.ctx.projective:
            rows = canonical_stack(self.ctx, rows)
        keys = row_keys(rows, q)
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


def row_table(field: Fq, basis: np.ndarray) -> np.ndarray:
    """The int32 table (q^n, b) whose [c, g] is the row code of
    (row c) basis[g], for every row code c below q^n: one mul_stack
    product of all q^n rows with the b matrices side by side."""
    b, n = basis.shape[:2]
    every_row = row_entries(np.arange(field.q ** n), field.q, n)
    prods = mul_stack(field, every_row, np.concatenate(basis, axis=1))
    return row_codes(prods.reshape(len(every_row), b, n), field.q).astype(np.int32)


def _basis_search(ctx: GroupCtx, basis: np.ndarray, cap: int):
    """The closure of the identity under right multiplication by the
    basis root elements b_g, on row codes; returns the closure with each
    basis element's right map as an int32 row in place of the images.

    One mul_stack product makes row_table's T[c, g], the row code of
    (row c) b_g (q^n is at most |G| + 1 for every enumerable group, so T
    is no larger than a right map).  A block's images are then one
    gather, T[block], and in projective contexts one more from
    canonical_stack's table."""
    q, n = ctx.field.q, ctx.dim
    table = row_table(ctx.field, basis)
    every_row = row_entries(np.arange(q ** n), q, n)

    def act(block):
        # images frontier-major, each row of them contiguous
        prods = table[block.T].reshape(n, -1).T
        return canonical_stack(ctx, prods) if ctx.projective else prods

    rows, tree, ends, lookup, images = closure(
        ctx, row_codes(mat_to_codes(ctx.identity().mat), q), act, len(basis), cap,
        f"group enumeration exceeded cap {cap}", maps=True)
    right = np.ascontiguousarray(np.concatenate(images).reshape(-1, len(basis)).T)
    # decode once: each row's n entries gathered as one n-byte item
    entries = every_row.view(np.dtype((np.void, n))).ravel()[rows]
    return entries.view(np.uint8).reshape(rows.shape + (n,)), right, tree, ends, lookup


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
    appears.  The root elements are built once, by generators(ctx), and
    only the b basis root elements x_r(p^k) among them are multiplied
    out: their closure records each product's index, giving their right
    maps and the sorted keys, and the full search then runs on indices,
    through x_r(a) = x_r(a - b_k) b_k.  Every x_r(a) is certified once:
    its composed map sends the identity to its own index, which with the
    basis maps proves additivity for every parameter.  The group keeps
    the b |G| int32 maps, 17 MB for SL_2(F_81) (531,360 elements, b = 8),
    the tree, three int32 arrays of length |G|, and the sorted keys with
    their int32 indices.
    """
    if not ctx.is_finite:
        raise Unsupported("cannot enumerate over an infinite ring")
    field = ctx.field
    order, exact = expected_order(ctx.kind, field.q)
    if order > cap:
        raise CapExceeded(f"group enumeration exceeded cap {cap}: {ctx.kind!r} over "
                          f"F_{field.q} has order {'' if exact else 'at least '}{order}")
    gens = np.stack([mat_to_codes(g.mat) for g in generators(ctx)])
    # x_r(p^k) sits where p^k does among the nonzero scalars of field.elements()
    nonzero = [a.code for a in field.elements() if a]
    at = [nonzero.index(field.p ** k) for k in range(field.e)]
    basis = gens.reshape((-1, field.q - 1) + gens.shape[1:])[:, at].reshape((-1,) + gens.shape[1:])
    codes, right, (parent, step), ends, (keys, index) = _basis_search(ctx, basis, cap)
    if exact and len(codes) != order:
        raise CertificateMismatch(f"enumerated {len(codes)} elements, the order formula gives {order}")
    found = _generator_major_order(field, right)
    rank = np.empty_like(found)
    rank[found] = np.arange(len(found), dtype=found.dtype)
    right = rank[right[:, found]]
    tree = rank[parent[found]], step[found], np.split(rank, ends[:-1])
    G = FiniteGroup(ctx, codes[found], right, tree, (keys, rank[index]))
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
