"""Witness families and the certificates separating their twisted classes.

Four families, one per classical type:

  * A_xm:       x_m in SL_n, built from powers of a distinguished non-unit
                s, separated by the exact degree of tr(x_m^r).
  * C_ym:       y_m = diag(X, X^-T) in Sp_2n, traces double those of x_m.
  * B_xlambda:  unipotent x_lambda in SO_{2n+1}; x_lambda^r = x_{r lambda},
                and conjugacy of two witnesses forces the ratio of the
                squared parameters to be a unit of the ring.
  * D_xlambdaB: the same witnesses in SO_2n, twisted by the reflection B.
                B fixes x_lambda and B^2 = I, so (x_lambda B)^r = x_lambda^r
                for even r: the power identity is the B_xlambda one, and
                the rank-4 suite checks B itself.

x_m and y_m are the root pair x_a(u) x_-a(-u), u = s^m, on the kind's
first root a (Steinberg, Lectures on Chevalley Groups, section 3).  The
trace certificates compare its direct powers on SL_2 with the
characteristic polynomial recurrence, exactly."""

from __future__ import annotations

from dataclasses import dataclass

from .auts import GroupAut, aut_order_on, b_matrix
from .errors import (
    BadRank,
    CertificateMismatch,
    IncompatibleKind,
    NotInGroup,
    NotUnit,
    PreconditionFailed,
    TrialityUnsupported,
    UnitInput,
    Unsupported,
    ZeroLambda,
)
from .gf import FqElem
from .groups import GroupCtx, GroupKind, GrpElem, root_directions, root_element
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
            raise IncompatibleKind(f"unknown family {self.family!r}")
        if self.n < 2:
            raise BadRank("witness rank must be >= 2")
        if self.ring.is_unit(self.s):
            raise UnitInput("the distinguished element must not be a unit")
        if not self.s:  # a nonzero constant is a unit of R
            raise ZeroLambda("the distinguished element must not be zero")


def _root_pair(ctx: GroupCtx, m: int, s) -> GrpElem:
    """x_a(u) x_-a(-u), u = s^m, for the kind's first root a and its
    opposite -a (a's entries transposed): it lies in the root SL_2 of a, so
    is a member over R, and its trace is dim - len(a) u^2."""
    if m < 1:
        raise PreconditionFailed("index must be >= 1")
    root = root_directions(ctx.kind)[0]
    u = s ** m
    return root_element(ctx, root, u) * root_element(ctx, tuple((j, i, c) for i, j, c in root), -u)


def witness_sl(m: int, cfg: WitnessConfig, n: int) -> GrpElem:
    """x_m in SL_n: the root pair on E_01, the 2x2 block
    [[1-u^2, u], [-u, 1]] with u = s^m."""
    return _root_pair(GroupCtx(GroupKind.sl(n), cfg.ring), m, cfg.s)


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
    direct power of the root pair x_m on SL_2, the constructor of the
    witnesses; any disagreement raises CertificateMismatch.
    """
    if m < 1 or r < 1:
        raise PreconditionFailed("indices must be >= 1")
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

    x = _root_pair(GroupCtx(GroupKind.sl(2), cfg.ring), m, cfg.s)
    direct = (x.mat ** r).trace()
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
    """y_m = diag(X, X^-T) in Sp_2n, X the SL_n block of x_m: the root pair
    on E_01 - E_(n+1)n, whose trace doubles that of x_m."""
    return _root_pair(GroupCtx(GroupKind.sp(n), cfg.ring), m, cfg.s)


def witness_so(lam, kind: str, n: int, scalars) -> GrpElem:
    """Unipotent witness x_lambda in SO_{2n+1} or SO_2n, over a localization
    or over a finite field.

    Identity plus the antisymmetric block with entries -lambda at (1, n+2)
    and lambda at (2, n+1) in 1-based coordinates.
    """
    if kind not in ("SOodd", "SOeven"):
        raise IncompatibleKind(f"witness kind must be SOodd or SOeven, not {kind!r}")
    return _x_lambda(GroupCtx(GroupKind(kind, n), scalars), lam)


def _x_lambda(ctx: GroupCtx, lam) -> GrpElem:
    """The witness x_lambda of `witness_so` in an orthogonal context: the
    root element x_r(-lambda) of the root E_0(n+1) - E_1n, a member for
    every nonzero lambda in the scalars."""
    lam = ctx.scalar(lam)
    if not lam:
        raise ZeroLambda("witness parameter must be nonzero")
    if not ctx.is_finite and not ctx.scalars.contains(lam):
        raise NotInGroup(f"witness parameter {lam} is not in {ctx.scalars}")
    n = ctx.kind.n
    return root_element(ctx, ((0, n + 1, 1), (1, n, -1)), -lam)


def power_identity_check(lam, r: int, kind: str, n: int, scalars) -> bool:
    """x_lambda^r = x_{r lambda} in SO_{2n+1} or SO_2n, by exact matrix
    equality.  In SO_2n it is also the reflection-twisted identity: B fixes
    x_lambda and B^2 = I, so (x_lambda B)^r = x_lambda^r for even r."""
    if r < 1:
        raise PreconditionFailed("power must be >= 1")
    x = witness_so(lam, kind, n, scalars)
    rlam = x.ctx.scalar(lam) * r
    target = _x_lambda(x.ctx, rlam).mat if rlam else x.ctx.identity_mat()
    return x.mat ** r == target


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
    return ObstructionReport(lam=lam, lam_prime=lam_prime, ratio=ratio, ratio_is_unit=R.is_unit_of(ratio))


def explicit_conjugator(lam, c, kind: str, n: int, scalars) -> GrpElem:
    """diag(c, c, 1, ..., c^-1, c^-1, 1, ..., [1]), the torus element
    h_a(c) of the root a of x_lambda; conjugates x_lambda to
    x_{c^2 lambda}, which is verified exactly before returning.

    A member for every unit c of the scalars: it is diag(D, D^-T[, 1])
    with D = diag(c, c, 1, ...) in GL_n(R), which preserves J and has
    det 1, and c is tested to be a unit (NotUnit otherwise)."""
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
    g = GrpElem._of(ctx, Mat(rows))
    target = _x_lambda(ctx, c * c * lam)
    if g * x * g.inverse() != target:
        raise CertificateMismatch("conjugation identity failed")
    return g


def block_constraint_check(g: GrpElem, lam: RatFrac, lam_prime: RatFrac) -> bool:
    """Whether g intertwines the witnesses: x_lam g = g x_lam'.

    This one matrix equation carries every entry-level relation on the
    hyperbolic blocks K, L / M, N of g.  With x_lam = I + lam E, where E
    has nonzero rows 0, 1 and nonzero columns n, n+1 only, it reads
    lam E g = lam' g E: so the coupling block M vanishes on its first two
    rows and columns, y_lam N = K y_lam' (the four corner relations), and
    in the odd case the four distinguished border entries vanish.
    """
    ctx = g.ctx
    kind = ctx.kind
    if kind.family == "PSOeven":
        # coset-level conjugation only determines the witnesses up to sign;
        # squaring removes the sign, and x_lambda^2 = x_{2 lambda}; g's
        # matrix, a coset representative, lies in SO_2n
        lifted_ctx = GroupCtx(kind.linear(), ctx.scalars)
        lifted = GrpElem._of(lifted_ctx, g.mat)
        two = lifted_ctx.scalar(2)
        return block_constraint_check(
            lifted, two * lifted_ctx.scalar(lam), two * lifted_ctx.scalar(lam_prime)
        )
    if kind.family not in ("SOodd", "SOeven"):
        raise IncompatibleKind("constraint check applies to orthogonal kinds")
    x1 = _x_lambda(ctx, lam).mat
    x2 = _x_lambda(ctx, lam_prime).mat
    return x1 * g.mat == g.mat * x2


@dataclass
class D4Report:
    checks: list
    reflection_order: int

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def d4_tau_suite(cfg: WitnessConfig, graph: str = "tau", k_max: int = 3) -> D4Report:
    """Reflection-twisted certificate suite on SO_8 (rank 4 even case).

    B must be an involution of determinant -1 that preserves the form and
    fixes the witness x_s; the identity matrix fails only the determinant
    row.  Order-three diagram symmetries act only on the isogeny covers and are
    rejected with TrialityUnsupported.
    """
    if graph in ("sigma", "sigma2"):
        raise TrialityUnsupported("rotation symmetries act on the covers, not here")
    if graph not in ("tau", "tau1", "B"):
        raise IncompatibleKind(f"unknown graph request {graph!r}")
    if cfg.n != 4:
        raise BadRank("the special rank for this suite is 4")
    ring, s, n = cfg.ring, cfg.s, 4
    checks = []
    B = b_matrix(n, ring)
    so8 = GroupCtx(GroupKind.so_even(n), ring)
    checks.append(("reflection_involution", B * B == so8.identity_mat()))
    checks.append(("reflection_det_minus_one", B.det() == -ring.one))
    checks.append(("reflection_preserves_form", B.transpose() * so8.form * B == so8.form))
    x = _x_lambda(so8, s)
    checks.append(("reflection_fixes_witness", B * x.mat * B == x.mat))
    # the order of the reflection automorphism, measured on an element it
    # actually moves: the root element x_r(s) on the swapped coordinate
    # pair, a member as s lies in R (_x_lambda tested it)
    probe = root_element(so8, ((0, 2 * n - 1, 1), (n - 1, n, -1)), s)
    tau = GroupAut(so8, graph="B")
    refl_order = aut_order_on(tau, [probe]) or 0
    checks.append(("reflection_order_two", refl_order == 2))
    for k in range(1, k_max + 1):
        for kp in range(k + 1, k_max + 1):
            rep = obstruction_report(s ** k, s ** kp, ring)
            checks.append((f"obstruction_k{k}_k{kp}", rep.separated))
    return D4Report(checks=checks, reflection_order=refl_order)
