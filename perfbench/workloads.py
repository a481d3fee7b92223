"""The three benchmark workloads, each built from the benchmark seed.

A workload's `build(seed, root)` does the set-up (fields, rings, contexts,
seeded inputs) and returns a function that yields the tasks of one pass.
A task runs one library call or one in-process CLI command; its check
compares the output with an oracle and returns None when it agrees, or a
description of the mismatch.  Why each workload exists is written in
perfbench/README.md.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from click.testing import CliRunner

# Library functions are called through their modules so that the traced
# run's wrappers, installed in those module namespaces, see every call.
from chevtwist import cli, groups, polyring, twist, witness
from chevtwist.auts import GroupAut
from chevtwist.gf import Fq
from chevtwist.groups import GroupCtx, GroupKind
from chevtwist.witness import FAMILY_SL, FAMILY_SO_EVEN, FAMILY_SP, WitnessConfig

from oracles import (
    BURNSIDE_ORDER,
    CENSUS,
    FIXED_S,
    GOLDEN,
    SEED0_SHA256,
    group_order,
    sha256,
    sl_trace_coeffs,
)


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    elems: int = 1
    cold: bool = False  # runs like a fresh CLI process: library caches emptied first
    once: bool = False  # runs in one pass only


class CliFailure(Exception):
    """A CLI command exited nonzero; the message is what it printed."""

    def __init__(self, exit_code, text):
        super().__init__(f"exit {exit_code}: {text.strip()}")
        # the CLI reports library errors as "<module>.<class>: message"
        self.typed = "chevtwist.errors." in text


def command(args):
    """Run one `chevtwist` command in-process through the click entry point."""

    def run():
        res = CliRunner().invoke(cli.main, args)
        if res.exit_code != 0:
            raise CliFailure(res.exit_code, res.output)
        return res.stdout

    return run


def expect(value):
    return lambda out: None if out == value else f"got {out!r}, expected {value!r}"


def golden(root, name):
    text = (root / "tests" / "golden" / name).read_text()
    return lambda out: None if out == text else f"differs from tests/golden/{name}"


def seed0_pin(label, seed):
    """At the default seed, the output must hash to its pinned digest."""
    if seed != 0:
        return lambda out: None
    pin = SEED0_SHA256.get(label)
    return lambda out: None if sha256(out) == pin else f"sha256 {sha256(out)} != pin {pin}"


def both(*checks):
    def check(out):
        for c in checks:
            msg = c(out)
            if msg:
                return msg
        return None
    return check


def field_of_size(q: int) -> Fq:
    for p in (3, 5, 7, 11, 13):
        e, rest = 0, q
        while rest % p == 0:
            rest //= p
            e += 1
        if rest == 1 and e:
            return Fq(p, e)
    raise ValueError(f"no field of size {q} in the census")


def random_element(ctx, gens, rng, length=8):
    g = ctx.identity()
    for _ in range(length):
        g = g * rng.choice(gens)
    return g


# ---------------------------------------------------------------------------
# orbit-census: `chevtwist reidemeister` over the pinned census


def census_check(family, n, q, base, count, sizes):
    order = group_order(family, n, q)
    # SL_2(F_q) has q+4 conjugacy classes; an inner twist keeps the count
    plain_sl2 = family == "SL" and n == 2 and base == "id"

    def check(out):
        lines = out.splitlines()
        rows = [line.rsplit(",", 1) for line in lines[2:-1]]
        _, summary, got_order = lines[-1].split(",")
        got_sizes = {}
        for _, size in rows:
            got_sizes[int(size)] = got_sizes.get(int(size), 0) + 1
        if summary.split()[0] != f"count={count}" or len(rows) != count:
            return f"count line {summary!r}, {len(rows)} orbit rows, expected {count}"
        if plain_sl2 and count != q + 4:
            return f"SL_2(F_{q}) count {count} != q+4"
        if int(got_order) != order or sum(s * k for s, k in got_sizes.items()) != order:
            return f"orbit sizes do not partition a group of order {order}"
        if got_sizes != sizes:
            return f"orbit sizes {got_sizes} != {sizes}"
        if (order <= BURNSIDE_ORDER) != summary.endswith("+burnside"):
            return f"method {summary!r} for order {order}"
        return None

    return check


def build_census(seed, root):
    rng = random.Random(seed)
    golden_args = GOLDEN["reidemeister_sl2_f3.csv"]
    tasks = [("golden " + " ".join(golden_args), golden_args,
              golden(root, "reidemeister_sl2_f3.csv"), 24)]
    for family, n, q, base, count, sizes in CENSUS:
        ctx = GroupCtx(cli._GROUP_FAMILIES[family](n), field_of_size(q))
        inner = random_element(ctx, groups.generators(ctx), rng)
        aut = f"inner={inner.mat}" + ("" if base == "id" else f";{base}")
        label = f"reidemeister {family}{n} q{q} {base}"
        args = ["reidemeister", "--group", family, "--n", str(n), "--q", str(q), "--aut", aut]
        check = both(census_check(family, n, q, base, count, sizes), seed0_pin(label, seed))
        tasks.append((label, args, check, group_order(family, n, q)))
    rng.shuffle(tasks)

    # the five groups of order > 10,000 take about 90% of a pass; they run
    # in one pass only, so that the others repeat within --seconds
    def one_pass():
        for label, args, check, order in tasks:
            yield Task(label, command(args), check, elems=order, cold=True, once=order > 10_000)

    return one_pass


# ---------------------------------------------------------------------------
# certificate-sweep: the library calls behind fixed-s, traces, witness-check
# (SL, Sp, SOodd, SOeven) and d4, one task per certificate row

CERT_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2)]
CERT_DENOMS = ["", "t", "t,t+1"]
# Row ranges, cut from the CLI defaults (Sp m <= 3 and powers up to 6) so
# that a pass takes 9 to 16 s on a shared 2-vCPU machine.  k <= 3 keeps the s^1 vs s^3
# obstructions, which the factorization cap refuses over F_5[t] and F_7[t].
TRACE_M, TRACE_R = range(1, 4), range(1, 5)
SL_M = range(1, 4)
SP_M, SP_R = range(1, 3), range(1, 3)
SO_POWERS = (("SOodd", 2, range(1, 5)), ("SOeven", 3, (2, 4)))
OBSTRUCTION_K = range(1, 4)


def trace_check(s, m, r):
    field = s.field
    # codes are the integers mod p only over prime fields
    want = sl_trace_coeffs([c.code for c in s.num.coeffs], field.p, m, r) if field.e == 1 else None

    def check(out):
        deg, expected_deg, lead, coeffs = out
        if want is None:
            return None if deg == expected_deg else f"degree {deg} != {expected_deg}"
        if coeffs != want:
            return f"trace of x_{m}^{r} differs from the recurrence"
        if deg != expected_deg or deg != len(want) - 1 or lead != want[-1]:
            return f"degree {deg} / lead {lead} off the trace-degree law"
        return None

    return check


def ring_rows(R, s):
    """(label, call, check) for every certificate row on one ring."""
    rows = []

    def cfg(family, n):
        return WitnessConfig(ring=R, s=s, family=family, n=n)

    def conjugator(group, n):
        c = R.one + R.one  # a unit, since p is odd
        return witness.block_constraint_check(witness.explicit_conjugator(s, c, group, n, R), c * c * s, s)

    if s.is_poly():  # the trace-degree law's precondition
        for m, r in itertools.product(TRACE_M, TRACE_R):
            def call(m=m, r=r):
                c = witness.trace_certificate(m, r, cfg(FAMILY_SL, 3))
                return c.deg_t, c.expected_deg_t, c.leading_coeff.code, [x.code for x in c.trace.num.coeffs]
            rows.append((f"traces m{m} r{r}", call, trace_check(s, m, r)))
    for m in SL_M:
        rows.append((f"SL m{m}", lambda m=m: witness.witness_sl(m, cfg(FAMILY_SL, 3), 3).mat.det() == R.one,
                     expect(True)))
    for m, r in itertools.product(SP_M, SP_R):
        def call(m=m, r=r):
            sp_cfg = cfg(FAMILY_SP, 2)
            y, x = witness.witness_sp(m, sp_cfg, 2), witness.witness_sl(m, sp_cfg, 2)
            return (y.mat ** r).trace() == (x.mat ** r).trace() * 2
        rows.append((f"Sp m{m} r{r}", call, expect(True)))
    for group, n, powers in SO_POWERS:
        for r in powers:
            rows.append((f"{group} power r{r}",
                         lambda g=group, n=n, r=r: witness.power_identity_check(s, r, g, n, R), expect(True)))
        for k, kp in itertools.combinations(OBSTRUCTION_K, 2):
            rows.append((f"{group} obstruction s^{k} vs s^{kp}",
                         lambda k=k, kp=kp: witness.obstruction_report(s ** k, s ** kp, R).separated, expect(True)))
        rows.append((f"{group} conjugator", lambda g=group, n=n: conjugator(g, n), expect(True)))

    def d4():
        rep = witness.d4_tau_suite(cfg(FAMILY_SO_EVEN, 4), k_max=OBSTRUCTION_K[-1])
        return rep.passed, rep.reflection_order, tuple(rep.checks)

    rows.append(("d4", d4, lambda out: None if out[:2] == (True, 2) else f"d4 report {out}"))
    return rows


def fixed_s_check(key):
    pin = FIXED_S.get(key)

    def check(out):
        if pin is not None and out != pin:
            return f"s = {out}, pinned {pin}"
        return None

    return check


def build_certificate_sweep(seed, root):
    rng = random.Random(seed)
    rings = []
    for p, e in CERT_FIELDS:
        field = Fq(p, e)
        for denoms in CERT_DENOMS:
            R = polyring.RingDesc(field, [polyring.parse_poly(field, d) for d in denoms.split(",") if d])
            a = rng.randrange(2, p)  # t+a is a non-unit of every ring in the grid
            name = f"F{field.q}[t]" + (f"_({denoms})" if denoms else "")
            rings.append((name, R, polyring.parse_poly(field, f"t+{a}"), (p, e, denoms, a)))

    def one_pass():
        for name in ("traces_p3_f_t.csv", "fixed_s_p3.csv"):
            args = GOLDEN[name]
            yield Task("golden " + " ".join(args), command(args), golden(root, name))
        for name, R, f, key in rings:
            box = {}

            def fixed(R=R, f=f, box=box):
                box["s"] = polyring.fixed_element(f, R)
                return str(box["s"])

            yield Task(f"{name} a={key[3]} fixed-s", fixed, fixed_s_check(key))
            if "s" not in box:
                continue  # every row needs s, so a refused fixed-s ends the ring
            for label, call, check in ring_rows(R, box["s"]):
                yield Task(f"{name} a={key[3]} {label}", call, check)

    return one_pass


# ---------------------------------------------------------------------------
# twisted-decide: per-element decision procedures and automorphism algebra

PAIRS_PER_CLASS = 2
# (group, graph part, tasks).  With 149 tasks in all, the median falls among
# the SL_3 tasks and the 90th percentile inside the cluster of searches over
# orbits of size 120, away from the edges where it would jump between
# clusters.
COMPOSE = ((GroupKind.sl(3), "tinv", 92), (GroupKind.so_even(3), "B", 26))
POOL_SIZE = 24
COMPOSE_CLI_SAMPLES = 10


def compose_agrees(ctx, sig, tau, g, x):
    """Normal-form composition against pointwise application, as aut-compose
    checks it."""
    if sig.compose(tau)(g) != sig(tau(g)):
        return False
    left = sig.compose(GroupAut(ctx, inner=x))
    right = GroupAut(ctx, inner=sig(x)).compose(sig)
    return left == right and left(g) == right(g)


def build_twisted_decide(seed, root):
    rng = random.Random(seed)
    ctx = GroupCtx(GroupKind.sl(2), Fq(3, 2))
    frob = GroupAut(ctx, ring=1)

    # distinct orbit representatives are never twisted conjugate
    report = twist.twisted_orbits(ctx, frob)
    reps, sizes = report.orbit_representatives, report.orbit_sizes
    pairs = list(itertools.combinations(range(len(reps)), 2))

    # Frobenius-fixed elements grouped by their frob-twisted class; the seed
    # draws the same number of pairs from each class
    fixed = [g for g in groups.enumerate_group(ctx).elements() if frob(g) == g]
    classes = []
    for g in fixed:
        if not any(g in orbit for orbit, _ in classes):
            orbit = twist.twisted_orbit_of(g, frob)
            classes.append((orbit, [h for h in fixed if h in orbit]))
    reductions = []
    for orbit, members in classes:
        cands = list(itertools.permutations(members, 2))
        for x, y in rng.sample(cands, min(PAIRS_PER_CLASS, len(cands))):
            reductions.append((x, y, len(orbit)))

    # each composition task checks the four graph-part combinations, so its
    # cost does not depend on the seed, which draws only the group elements
    batches = []
    for kind, graph, tasks in COMPOSE:
        gctx = GroupCtx(kind, Fq(3))
        ggens = groups.generators(gctx)
        pool = [random_element(gctx, ggens, rng, 6) for _ in range(POOL_SIZE)]

        def element():
            return rng.choice(pool)

        for i in range(tasks):
            batch = [(gctx, GroupAut(gctx, inner=element(), graph=g1),
                      GroupAut(gctx, inner=element(), graph=g2), element(), element())
                     for g1, g2 in itertools.product((None, graph), repeat=2)]
            batches.append((f"compose {kind!r} #{i}", batch))
    commands = []
    for group in ("SL", "SOeven"):
        label = f"aut-compose {group}3 q3"
        args = ["aut-compose", "--group", group, "--n", "3", "--q", "3",
                "--seed", str(seed), "--samples", str(COMPOSE_CLI_SAMPLES)]
        rows = [f"{name},{COMPOSE_CLI_SAMPLES},ok"
                for name in ("compose_pointwise", "inner_shift", "graph_ring_commute")]
        commands.append((label, args, both(
            lambda out, rows=rows: None if out.splitlines()[2:] == rows else "aut-compose rows",
            seed0_pin(label, seed))))

    def one_pass():
        for i, j in pairs:
            yield Task(f"decide rep{i} vs rep{j}",
                       lambda i=i, j=j: twist.are_twisted_conjugate(reps[i], reps[j], frob),
                       expect((False, None)), elems=sizes[i])
        for k, (x, y, orbit_size) in enumerate(reductions):
            yield Task(f"power-reduction #{k}",
                       lambda x=x, y=y: twist.power_reduction_check(x, y, frob, 2),
                       expect(True), elems=orbit_size)
        for label, batch in batches:
            yield Task(label, lambda b=batch: [compose_agrees(*sample) for sample in b],
                       expect([True] * 4), elems=0)
        for label, args, check in commands:
            yield Task(label, command(args), check, elems=0)

    return one_pass


WORKLOADS = {
    "orbit-census": build_census,
    "certificate-sweep": build_certificate_sweep,
    "twisted-decide": build_twisted_decide,
}
