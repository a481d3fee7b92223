"""Witness families and the certificates separating their twisted classes.

Four families, one per classical type:

  * A_xm:       x_m in SL_n, built from powers of a distinguished non-unit
                s, separated by the exact degree of tr(x_m^r).
  * C_ym:       y_m = diag(X, X^-T) in Sp_2n, traces double those of x_m.
  * B_xlambda:  unipotent x_lambda in SO_{2n+1}; x_lambda^r = x_{r lambda},
                and conjugacy of two witnesses forces the ratio of the
                squared parameters to be a unit of the ring.
  * D_xlambdaB: same witnesses in SO_2n twisted by the reflection B, with
                the power identity holding for even exponents.

Trace certificates are computed twice, once by the characteristic
polynomial recurrence and once by direct matrix powers, and must agree
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .auts import GroupAut, aut_order_on, b_matrix
from .errors import (
    CertificateMismatch,
    IncompatibleKind,
    NotAConjugator,
    NotUnit,
    OddPower,
    TrialityUnsupported,
    UnitInput,
    Unsupported,
    ZeroLambda,
)
from .gf import FqElem
from .groups import GroupCtx, GroupKind, GrpElem, unit_mat
from .matrices import Mat
from .polyring import RatFrac, RingDesc

FAMILY_SL = "A_xm"
FAMILY_SP = "C_ym"
FAMILY_SO_ODD = "B_xlambda"
FAMILY_SO_EVEN = "D_xlambdaB"
FAMILIES = (FAMILY_SL, FAMILY_SP, FAMILY_SO_ODD, FAMILY_SO_EVEN)


@dataclass(frozen=True)
class WitnessConfig:
    """A ring, a distinguished non-unit s, a family tag and a rank."""

    ring: RingDesc
    s: RatFrac
    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        s = self.ring.require_member(self.s)
        if self.ring.is_unit(s):
            raise UnitInput("the distinguished element must not be a unit")
        if s.is_constant():
            raise ValueError("the distinguished element must not be constant")


def _sl_ctx(ring: RingDesc, n: int) -> GroupCtx:
    return GroupCtx(GroupKind.sl(n), ring)


def witness_sl(m: int, cfg: WitnessConfig, n: int) -> GrpElem:
    """x_m in SL_n: the 2x2 block [[1-u^2, u], [-u, 1]] with u = s^m."""
    if m < 1:
        raise ValueError("index must be >= 1")
    ctx = _sl_ctx(cfg.ring, n)
    u = cfg.s ** m
    g = GrpElem(ctx, unit_mat(ctx, [(0, 0, -u * u), (0, 1, u), (1, 0, -u)]), check=True)
    e12 = GrpElem(ctx, unit_mat(ctx, [(0, 1, u)]), check=False)
    e21 = GrpElem(ctx, unit_mat(ctx, [(1, 0, -u)]), check=False)
    if g != e12 * e21:
        raise CertificateMismatch("witness does not split into elementary factors")
    return g


@dataclass
class TraceCertificate:
    m: int
    r: int
    trace: RatFrac
    deg_t: int
    expected_deg_t: int
    leading_coeff: FqElem
    expected_leading_coeff: FqElem

    @property
    def ok(self) -> bool:
        return (
            self.deg_t == self.expected_deg_t
            and self.leading_coeff == self.expected_leading_coeff
        )


def trace_certificate(m: int, r: int, cfg: WitnessConfig) -> TraceCertificate:
    """Exact degree and leading coefficient of tr(x_m^r).

    The trace is computed both through the characteristic polynomial
    recurrence T_k = (2 - u^2) T_{k-1} - T_{k-2} (with u = s^m) and by a
    direct matrix power; any disagreement raises CertificateMismatch.
    """
    if m < 1 or r < 1:
        raise ValueError("indices must be >= 1")
    if not cfg.s.is_poly():
        raise Unsupported("trace degree bookkeeping needs a polynomial s")
    field = cfg.ring.field
    u = cfg.s ** m
    two = RatFrac.const(field, 2)
    coef = two - u * u
    prev2, prev = two, coef  # T_0 = 2, T_1 = 2 - u^2
    for _ in range(2, r + 1):
        prev2, prev = prev, coef * prev - prev2
    recurrence = prev

    one, zero = RatFrac.one(field), RatFrac.zero(field)
    x = Mat([[one - u * u, u], [-u, one]])
    direct = (x ** r).trace()
    if direct != recurrence:
        raise CertificateMismatch(
            f"trace mismatch at m={m}, r={r}: recurrence {recurrence}, direct {direct}"
        )
    if not direct.is_poly():
        raise CertificateMismatch("trace is not a polynomial")
    s_deg = cfg.s.num.degree()
    expected_deg = 2 * r * m * s_deg
    expected_lead = (-field.one) ** r * cfg.s.num.leading_coeff() ** (2 * r * m)
    cert = TraceCertificate(
        m=m,
        r=r,
        trace=direct,
        deg_t=direct.num.degree(),
        expected_deg_t=expected_deg,
        leading_coeff=direct.num.leading_coeff(),
        expected_leading_coeff=expected_lead,
    )
    if not cert.ok:
        raise CertificateMismatch(
            f"degree or leading coefficient off at m={m}, r={r}: "
            f"deg {cert.deg_t} vs {expected_deg}, lead {cert.leading_coeff} vs {expected_lead}"
        )
    return cert


def witness_sp(m: int, cfg: WitnessConfig, n: int) -> GrpElem:
    """y_m = diag(X, X^-T) in Sp_2n, X the SL_n witness block."""
    if n < 2:
        raise ValueError("symplectic rank must be >= 2")
    X = witness_sl(m, cfg, n).mat
    D = X.inverse().transpose()
    ctx = GroupCtx(GroupKind.sp(n), cfg.ring)
    mat = Mat.block_diag([X, D], ctx.zero)
    g = GrpElem(ctx, mat, check=True)
    if g.trace() != X.trace() * 2:
        raise CertificateMismatch("trace doubling failed at construction")
    return g


def witness_so(lam, kind: str, n: int, scalars) -> GrpElem:
    """Unipotent witness x_lambda in SO_{2n+1} or SO_2n, over a localization
    or over a finite field.

    Identity plus the antisymmetric block with entries -lambda at (1, n+2)
    and lambda at (2, n+1) in 1-based coordinates.
    """
    if kind == "SOodd":
        ctx = GroupCtx(GroupKind.so_odd(n), scalars)
    elif kind == "SOeven":
        ctx = GroupCtx(GroupKind.so_even(n), scalars)
    else:
        raise IncompatibleKind(f"witness kind must be SOodd or SOeven, not {kind!r}")
    return _x_lambda(ctx, lam)


def _x_lambda(ctx: GroupCtx, lam) -> GrpElem:
    """The witness x_lambda of `witness_so` in an orthogonal context."""
    lam = ctx.scalar(lam)
    if not lam:
        raise ZeroLambda("witness parameter must be nonzero")
    n = ctx.kind.n
    return GrpElem(ctx, unit_mat(ctx, [(0, n + 1, -lam), (1, n, lam)]), check=True)


def power_identity_check(lam, r: int, kind: str, n: int, scalars) -> bool:
    """x_lambda^r = x_{r lambda} (odd case); (x_lambda B)^r = x_{r lambda}
    for even r (even case).  Exact matrix equality."""
    if r < 1:
        raise ValueError("power must be >= 1")
    x = witness_so(lam, kind, n, scalars)
    rlam = x.ctx.scalar(lam) * r
    if not rlam:
        target = x.ctx.identity_mat()
    else:
        target = _x_lambda(x.ctx, rlam).mat
    if kind == "SOodd":
        return (x.mat ** r) == target
    if r % 2:
        raise OddPower("the reflection-twisted identity needs an even power")
    B = b_matrix(n, scalars)
    return ((x.mat * B) ** r) == target


@dataclass
class ObstructionReport:
    lam: RatFrac
    lam_prime: RatFrac
    ratio: RatFrac
    ratio_is_unit: bool

    @property
    def verdict(self) -> str:
        return "NotSeparated" if self.ratio_is_unit else "Separated"

    @property
    def separated(self) -> bool:
        return not self.ratio_is_unit


def obstruction_report(lam: RatFrac, lam_prime: RatFrac, R: RingDesc) -> ObstructionReport:
    """Unit test on (lambda'/lambda)^2; a non-unit ratio certifies that the
    corresponding witnesses lie in distinct (twisted) classes."""
    lam = R.require_member(lam)
    lam_prime = R.require_member(lam_prime)
    if lam.is_zero or lam_prime.is_zero:
        raise ZeroLambda("witness parameters must be nonzero")
    ratio = (lam_prime * lam_prime) / (lam * lam)
    is_unit = R.is_unit_of(ratio)
    if is_unit != R.is_unit_of(ratio.inverse()):
        raise CertificateMismatch("unit test disagrees on a ratio and its inverse")
    return ObstructionReport(lam=lam, lam_prime=lam_prime, ratio=ratio, ratio_is_unit=is_unit)


def explicit_conjugator(lam, c, kind: str, n: int, scalars) -> GrpElem:
    """diag(c, c, 1, ..., c^-1, c^-1, 1, ..., [1]); conjugates x_lambda to
    x_{c^2 lambda}, which is verified exactly before returning."""
    x = witness_so(lam, kind, n, scalars)
    ctx = x.ctx
    c = ctx.scalar(c)
    if isinstance(scalars, RingDesc):
        if not scalars.is_unit_of(c):
            raise NotUnit(f"{c} is not a unit of {scalars}")
    elif not c:
        raise NotUnit("zero is not a unit")
    lam = ctx.scalar(lam)
    rows = [list(r) for r in ctx.identity_mat().rows]
    cinv = c.inverse()
    rows[0][0], rows[1][1] = c, c
    rows[n][n], rows[n + 1][n + 1] = cinv, cinv
    g = GrpElem(ctx, Mat(rows), check=True)
    target = _x_lambda(ctx, c * c * lam)
    if g * x * g.inverse() != target:
        raise CertificateMismatch("conjugation identity failed")
    return g


@dataclass
class BlockDecomposition:
    """Hyperbolic block structure K, L / M, N plus odd-corner vectors."""

    K: Mat
    L: Mat
    M: Mat
    N: Mat
    last_col: tuple | None
    last_row: tuple | None


def decompose_blocks(g: GrpElem) -> BlockDecomposition:
    kind = g.ctx.kind
    if kind.family not in ("SOodd", "SOeven"):
        raise IncompatibleKind("block decomposition applies to orthogonal kinds")
    n = kind.n
    rows = g.mat.rows
    K = Mat([r[:n] for r in rows[:n]])
    L = Mat([r[n:2 * n] for r in rows[:n]])
    M = Mat([r[:n] for r in rows[n:2 * n]])
    N = Mat([r[n:2 * n] for r in rows[n:2 * n]])
    last_col = last_row = None
    if kind.family == "SOodd":
        last_col = tuple(r[2 * n] for r in rows)
        last_row = tuple(rows[2 * n])
    dec = BlockDecomposition(K=K, L=L, M=M, N=N, last_col=last_col, last_row=last_row)
    _check_reassembles(dec, g.mat, kind)
    return dec


def _check_reassembles(dec: BlockDecomposition, mat: Mat, kind: GroupKind):
    rows = [k + l for k, l in zip(dec.K.rows, dec.L.rows)]
    rows += [m + n for m, n in zip(dec.M.rows, dec.N.rows)]
    if kind.family == "SOodd":
        rows = [r + (c,) for r, c in zip(rows, dec.last_col)] + [dec.last_row]
    if Mat(rows) != mat or (dec.last_col and dec.last_col != tuple(r[-1] for r in mat.rows)):
        raise CertificateMismatch("block decomposition does not reassemble the matrix")


def block_constraint_check(g: GrpElem, lam: RatFrac, lam_prime: RatFrac) -> bool:
    """Entry-level consequences of the intertwining x_lam g = g x_lam'.

    Verifies that the coupling block M vanishes on its first two rows and
    columns, that y_lam N = K y_lam' holds entrywise (in particular the
    four corner relations tying lam-scaled N entries to lam'-scaled K
    entries), and, in the odd case, that the four distinguished border
    entries vanish.
    """
    ctx = g.ctx
    kind = ctx.kind
    if kind.family == "PSOeven":
        # coset-level conjugation only determines the witnesses up to sign;
        # squaring removes the sign, and x_lambda^2 = x_{2 lambda}
        lifted_ctx = GroupCtx(kind.linear(), ctx.scalars)
        lifted = GrpElem(lifted_ctx, g.mat, check=True)
        two = lifted_ctx.scalar(2)
        return block_constraint_check(
            lifted, two * lifted_ctx.scalar(lam), two * lifted_ctx.scalar(lam_prime)
        )
    if kind.family not in ("SOodd", "SOeven"):
        raise IncompatibleKind("constraint check applies to orthogonal kinds")
    n = kind.n
    lam = ctx.scalar(lam)
    lam_prime = ctx.scalar(lam_prime)
    x1 = _x_lambda(ctx, lam).mat
    x2 = _x_lambda(ctx, lam_prime).mat
    if x1 * g.mat != g.mat * x2:
        raise NotAConjugator("matrix does not intertwine the two witnesses")
    dec = decompose_blocks(g)
    zero = ctx.zero
    ok = True
    for j in range(n):
        ok = ok and dec.M[0, j] == zero and dec.M[1, j] == zero
    for i in range(n):
        ok = ok and dec.M[i, 0] == zero and dec.M[i, 1] == zero
    y1 = _y_block(lam, n, ctx)
    y2 = _y_block(lam_prime, n, ctx)
    ok = ok and (y1 * dec.N == dec.K * y2)
    K, N = dec.K, dec.N
    ok = ok and (-lam * N[1, 0] == lam_prime * K[0, 1])
    ok = ok and (lam * N[1, 1] == lam_prime * K[0, 0])
    ok = ok and (lam * N[0, 0] == lam_prime * K[1, 1])
    ok = ok and (lam * N[0, 1] == -lam_prime * K[1, 0])
    if kind.family == "SOodd":
        a, b = dec.last_col, dec.last_row
        ok = ok and a[n] == zero and a[n + 1] == zero
        ok = ok and b[0] == zero and b[1] == zero
    return ok


def _y_block(lam, n: int, ctx: GroupCtx) -> Mat:
    zero = ctx.zero
    rows = [[zero] * n for _ in range(n)]
    rows[0][1] = -ctx.scalar(lam)
    rows[1][0] = ctx.scalar(lam)
    return Mat(rows)


@dataclass
class D4Report:
    checks: list
    reflection_order: int

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def d4_tau_suite(cfg: WitnessConfig, graph: str = "tau", k_max: int = 3) -> D4Report:
    """Reflection-twisted certificate suite on SO_8 (rank 4 even case).

    Order-three diagram symmetries act only on the isogeny covers and are
    rejected with TrialityUnsupported.
    """
    if graph in ("sigma", "sigma2"):
        raise TrialityUnsupported("rotation symmetries act on the covers, not here")
    if graph not in ("tau", "tau1", "B"):
        raise ValueError(f"unknown graph request {graph!r}")
    if cfg.n != 4:
        raise ValueError("the special rank for this suite is 4")
    ring, s, n = cfg.ring, cfg.s, 4
    checks = []
    B = b_matrix(n, ring)
    so8 = GroupCtx(GroupKind.so_even(n), ring)
    checks.append(("reflection_involution", B * B == so8.identity_mat()))
    checks.append(("reflection_preserves_form", B.transpose() * so8.form * B == so8.form))
    x = _x_lambda(so8, s)
    checks.append(("reflection_fixes_witness", B * x.mat * B == x.mat))
    # the order of the reflection automorphism, measured on an element it
    # actually moves (a root element touching the swapped coordinate pair)
    probe = GrpElem(so8, unit_mat(so8, [(0, 2 * n - 1, s), (n - 1, n, -s)]), check=True)
    tau = GroupAut(so8, graph="B")
    refl_order = aut_order_on(tau, [probe]) or 0
    checks.append(("reflection_order_two", refl_order == 2))
    for r in (2, 4, 6, 8):
        checks.append(
            (f"power_identity_r{r}", power_identity_check(s, r, "SOeven", n, ring))
        )
    for k in range(1, k_max + 1):
        for kp in range(k + 1, k_max + 1):
            rep = obstruction_report(s ** k, s ** kp, ring)
            checks.append((f"obstruction_k{k}_k{kp}", rep.separated))
    return D4Report(checks=checks, reflection_order=refl_order)
