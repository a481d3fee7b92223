"""Reproducible experiment runner over the library.

Every subcommand resolves its flags into a run description, executes the
requested sweep, and emits a CSV (or a markdown rendering of the same
CSV) whose first line is a comment recording the full run description.
Identical flags produce byte-identical output.  The exit status is zero
exactly when every certificate in the run passed.
"""

from __future__ import annotations

import csv
import functools
import io
import random
import sys

import click

from .auts import _GRAPH_FAMILIES, GroupAut, parse_group_aut, render_group_aut
from .errors import CertificateMismatch, Unsupported
from .gf import Fq, is_prime
from .groups import ENUM_CAP, FAMILIES, GroupCtx, GroupKind, generators
from .polyring import RatFrac, RingDesc, fixed_element, parse_poly
from .twist import BURNSIDE_CAP, reidemeister_count
from .witness import (
    FAMILY_SL,
    FAMILY_SO_EVEN,
    FAMILY_SO_ODD,
    FAMILY_SP,
    WitnessConfig,
    block_constraint_check,
    d4_tau_suite,
    explicit_conjugator,
    obstruction_report,
    power_identity_check,
    trace_certificate,
    witness_sl,
    witness_sp,
)

WITNESS_HEADER = ["family", "m_or_lambda", "r", "deg_t", "expected_deg_t", "leading_coeff", "verdict"]

_GROUP_FAMILIES = {family: functools.partial(GroupKind, family) for family in FAMILIES}


def _field_from_flags(p, e, q):
    if q is not None and (p is not None or e is not None):
        raise click.UsageError("give either --q or --p (with optional --e), not both")
    if q is not None:
        if q < 3:
            raise click.UsageError(f"--q {q} is not an odd prime power")
        base = 2
        while q % base:
            base += 1
        ee = 0
        qq = q
        while qq % base == 0:
            qq //= base
            ee += 1
        if qq != 1 or not is_prime(base):
            raise click.UsageError(f"--q {q} is not a prime power")
        return Fq(base, ee)
    if p is None:
        raise click.UsageError("give either --q or --p (with optional --e)")
    return Fq(p, 1 if e is None else e)


def _fixed_from_flags(p, e, denoms, f_text):
    """The field, the ring and its fixed element s named by a ring command's flags."""
    field = _field_from_flags(p, e, None)
    if field.p == 2:
        raise Unsupported("characteristic 2 is out of scope")
    names = [d for d in (denoms or "").split(",") if d.strip()]
    ring = RingDesc(field, [parse_poly(field, d.strip()) for d in names])
    return field, ring, fixed_element(parse_poly(field, f_text), ring)


def _run_line(command, **params):
    parts = [command] + [f"{k}={v}" for k, v in params.items()]
    return "# run: " + " ".join(parts)


def _emit(text, out, fmt):
    if fmt == "md":
        text = _csv_to_markdown(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _csv_to_markdown(csv_text: str) -> str:
    lines = csv_text.splitlines()
    out = []
    rows = []
    for line in lines:
        if line.startswith("#"):
            out.append(f"*{line[1:].strip()}*")
            out.append("")
        else:
            rows.append(next(csv.reader([line])))
    if rows:
        header, body = rows[0], rows[1:]
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "---|" * len(header))
        for row in body:
            out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


def _write_csv(run_line, header, rows):
    buf = io.StringIO()
    buf.write(run_line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _surfaced(command):
    """Run a command body, converting library errors into command errors
    with context; a nonzero return (a failure count) exits with status 1."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            failures = command(*args, **kwargs)
        except click.ClickException:
            raise
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            raise click.ClickException(f"{type(exc).__module__}.{type(exc).__name__}: {exc}")
        if failures:
            sys.exit(1)

    return run


ring_opts = [
    click.option("--p", type=int, default=None, help="field characteristic"),
    click.option("--e", type=int, default=None, help="field extension degree (default 1)"),
    click.option("--denoms", default="", help="comma-separated inverted irreducibles"),
]
out_opts = [
    click.option("--out", default=None, help="output path (stdout if omitted)"),
    click.option("--format", "fmt", type=click.Choice(["csv", "md"]), default="csv", show_default=True),
]


def _add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@click.group()
def main():
    """Exact certificates for twisted conjugacy in classical matrix groups."""


@main.command()
@_add_options(ring_opts)
@click.option("--f", "f_text", default="t", show_default=True, help="seed polynomial for the fixed element")
@click.option("--m-max", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--r-max", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--n", type=int, default=3, show_default=True,
              help="rank n >= 2, recorded in the run line; the rows, from the 2x2 block, are the same for every n")
@_add_options(out_opts)
@_surfaced
def traces(p, e, denoms, f_text, m_max, r_max, n, out, fmt):
    """Trace-degree certificates for the SL witnesses."""
    field, ring, s = _fixed_from_flags(p, e, denoms, f_text)
    cfg = WitnessConfig(ring=ring, s=s, family=FAMILY_SL, n=n)
    rows = []
    failures = 0
    for m in range(1, m_max + 1):
        for r in range(1, r_max + 1):
            try:
                cert = trace_certificate(m, r, cfg)
                rows.append([
                    FAMILY_SL, m, r, cert.deg_t, cert.expected_deg_t,
                    str(cert.leading_coeff), "ok",
                ])
            except CertificateMismatch:
                rows.append([FAMILY_SL, m, r, "", "", "", "FAIL"])
                failures += 1
    run_line = _run_line(
        "traces", p=field.p, e=field.e, denoms=denoms, f=f_text,
        m_max=m_max, r_max=r_max, n=n,
    )
    _emit(_write_csv(run_line, WITNESS_HEADER, rows), out, fmt)
    return failures


@main.command("witness-check")
@_add_options(ring_opts)
@click.option("--group", type=click.Choice(["Sp", "SOodd", "SOeven"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--f", "f_text", default="t", show_default=True)
@click.option("--m-max", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--r-max", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--k-max", type=click.IntRange(min=1), default=3, show_default=True)
@_add_options(out_opts)
@_surfaced
def witness_check(p, e, denoms, group, n, f_text, m_max, r_max, k_max, out, fmt):
    """Sp trace doubling, or the orthogonal power identities, obstructions
    and conjugator check."""
    field, ring, s = _fixed_from_flags(p, e, denoms, f_text)
    rows = []
    failures = 0

    def note(family, param, r, ok):
        nonlocal failures
        rows.append([family, param, r, "", "", "", "ok" if ok else "FAIL"])
        if not ok:
            failures += 1

    if group == "Sp":
        cfg = WitnessConfig(ring=ring, s=s, family=FAMILY_SP, n=n)
        for m in range(1, m_max + 1):
            y = witness_sp(m, cfg, n)
            x = witness_sl(m, cfg, n)
            for r in range(1, r_max + 1):
                ok = (y.mat ** r).trace() == (x.mat ** r).trace() * 2
                note(FAMILY_SP, m, r, ok)
    else:
        fam = FAMILY_SO_ODD if group == "SOodd" else FAMILY_SO_EVEN
        for r in range(1, r_max + 1):
            note(fam, "s", r, power_identity_check(s, r, group, n, ring))
        for k in range(1, k_max + 1):
            for kp in range(k + 1, k_max + 1):
                rep = obstruction_report(s ** k, s ** kp, ring)
                note(fam, f"s^{k} vs s^{kp}", "", rep.separated)
        # a unit c with c^2 != 1, so that g moves x_s to x_{c^2 s}; F_3[t] has
        # only the units +-1, and there g = diag(2, 2, ...) centralises x_s
        units = [RatFrac.const(field, x) for x in field.elements() if x] + [RatFrac(d) for d in ring.denoms]
        c = next((u for u in units if u * u != ring.one), ring.one + ring.one)
        g = explicit_conjugator(s, c, group, n, ring)
        note(fam, "conjugator", "", block_constraint_check(g, c * c * s, s))
    run_line = _run_line(
        "witness-check", group=group, n=n, p=field.p, e=field.e,
        denoms=denoms, f=f_text, m_max=m_max, r_max=r_max, k_max=k_max,
    )
    _emit(_write_csv(run_line, WITNESS_HEADER, rows), out, fmt)
    return failures


@main.command()
@click.option("--group", type=click.Choice(sorted(_GROUP_FAMILIES)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, default=None, help="field size (prime power)")
@click.option("--p", type=int, default=None)
@click.option("--e", type=int, default=None, help="field extension degree with --p (default 1)")
@click.option("--aut", "aut_text", default="id", show_default=True, help="automorphism grammar or 'id'")
@click.option("--cap", type=click.IntRange(min=1), default=ENUM_CAP, show_default=True)
@click.option("--burnside-cap", type=click.IntRange(min=0), default=BURNSIDE_CAP, show_default=True,
              help="largest group order that also gets the fixed-class count")
@click.option("--expect-count", type=int, default=None, help="fail unless the count matches")
@_add_options(out_opts)
@_surfaced
def reidemeister(group, n, q, p, e, aut_text, cap, burnside_cap, expect_count, out, fmt):
    """Twisted conjugacy class count of a finite instance.

    Counts the orbits of the twisted action; up to --burnside-cap it also
    counts the conjugacy classes the automorphism fixes, which must agree
    (method orbit-partition+burnside).

    SOodd and SOeven enumerate Omega_{2n+1}(q) and Omega^+_2n(q), the
    groups their root elements generate; |Omega_5(3)| = 25,920.  SOeven
    and PSOeven cannot be counted under the default --cap: the smallest,
    Omega^+_6(3), has 6,065,280 elements.  A group whose order exceeds
    --cap is refused before it is enumerated.
    """
    field = _field_from_flags(p, e, q)
    ctx = GroupCtx(_GROUP_FAMILIES[group](n), field)
    sigma = parse_group_aut(aut_text, ctx)
    result = reidemeister_count(ctx, sigma, cap=cap, burnside_cap=burnside_cap)
    run_line = _run_line(
        "reidemeister", group=group, n=n, q=field.q,
        aut=render_group_aut(sigma), cap=cap, burnside_cap=burnside_cap,
    )
    report = result.report
    rows = [["orbit", str(rep), size] for rep, size in zip(report.orbit_representatives, report.orbit_sizes)]
    rows.append(["summary", f"count={report.count} method={result.method}", report.group_order])
    _emit(_write_csv(run_line, ["kind", "representative", "size"], rows), out, fmt)
    if expect_count is not None and result.count != expect_count:
        click.echo(
            f"count {result.count} != expected {expect_count}", err=True
        )
        return 1
    return 0


@main.command("aut-compose")
@click.option("--group", type=click.Choice(["SL", "PSL", "Sp", "SOodd", "SOeven"]), default="SL", show_default=True)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--q", type=int, default=3, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--samples", type=click.IntRange(min=1), default=100, show_default=True)
@_add_options(out_opts)
@_surfaced
def aut_compose(group, n, q, seed, samples, out, fmt):
    """Self-test: normal-form composition against pointwise application."""
    field = _field_from_flags(None, None, q)
    ctx = GroupCtx(_GROUP_FAMILIES[group](n), field)
    rng = random.Random(seed)
    gens = generators(ctx)

    def rand_elem():
        g = ctx.identity()
        for _ in range(6):
            g = g * rng.choice(gens)
        return g

    graph_choices = [None] + [graph for graph, fams in _GRAPH_FAMILIES.items() if group in fams]

    def rand_aut():
        return GroupAut(
            ctx,
            inner=rand_elem() if rng.random() < 0.8 else None,
            ring=rng.randrange(field.e) if field.e > 1 else None,
            graph=rng.choice(graph_choices),
        )

    fails = {"compose_pointwise": 0, "inner_shift": 0}
    if graph_choices[-1] is not None:  # a kind with no graph part has no graph-ring relation
        fails["graph_ring_commute"] = 0
    for _ in range(samples):
        sig, tau, g = rand_aut(), rand_aut(), rand_elem()
        if sig.compose(tau)(g) != sig(tau(g)):
            fails["compose_pointwise"] += 1
        x = rand_elem()
        left = sig.compose(GroupAut(ctx, inner=x))
        right = GroupAut(ctx, inner=sig(x)).compose(sig)
        if left != right or left(g) != right(g):
            fails["inner_shift"] += 1
        if graph_choices[-1] is not None:
            eps = GroupAut(ctx, graph=graph_choices[-1])
            rho = GroupAut(ctx, ring=rng.randrange(field.e) if field.e > 1 else None)
            if eps(rho(g)) != rho(eps(g)):
                fails["graph_ring_commute"] += 1
    rows = [[name, samples, "ok" if bad == 0 else "FAIL"] for name, bad in fails.items()]
    run_line = _run_line("aut-compose", group=group, n=n, q=q, seed=seed, samples=samples)
    _emit(_write_csv(run_line, ["check", "samples", "status"], rows), out, fmt)
    return sum(fails.values())


@main.command("fixed-s")
@_add_options(ring_opts)
@click.option("--f", "f_text", required=True, help="seed polynomial")
@click.option("--expect", default=None, help="fail unless the result renders to this text")
@_add_options(out_opts)
@_surfaced
def fixed_s(p, e, denoms, f_text, expect, out, fmt):
    """The distinguished non-unit fixed by every ring automorphism."""
    field, ring, s = _fixed_from_flags(p, e, denoms, f_text)
    text = str(s)
    run_line = _run_line("fixed-s", p=field.p, e=field.e, denoms=denoms, f=f_text)
    _emit(_write_csv(run_line, ["s"], [[text]]), out, fmt)
    if expect is not None and text != expect.strip():
        click.echo(f"{text} != expected {expect}", err=True)
        return 1
    return 0


@main.command()
@_add_options(ring_opts)
@click.option("--f", "f_text", default="t", show_default=True)
@click.option("--k-max", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--graph", default="tau", show_default=True, help="tau (reflection); rotations are rejected")
@_add_options(out_opts)
@_surfaced
def d4(p, e, denoms, f_text, k_max, graph, out, fmt):
    """Reflection-twisted certificate suite on the rank-4 even orthogonal group."""
    field, ring, s = _fixed_from_flags(p, e, denoms, f_text)
    cfg = WitnessConfig(ring=ring, s=s, family=FAMILY_SO_EVEN, n=4)
    report = d4_tau_suite(cfg, graph=graph, k_max=k_max)
    rows = [[name, "ok" if ok else "FAIL"] for name, ok in report.checks]
    rows.append(["reflection_order", report.reflection_order])
    run_line = _run_line("d4", p=field.p, e=field.e, denoms=denoms, f=f_text, k_max=k_max, graph=graph)
    _emit(_write_csv(run_line, ["check", "status"], rows), out, fmt)
    return 0 if report.passed else 1


if __name__ == "__main__":
    main()
