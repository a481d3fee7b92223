"""Mutation gate: every certificate row kind of the CLI can fail.

A row that prints "ok" is evidence only if a wrong input makes it print
FAIL.  Each case runs one command twice: as shipped, where every row must
pass, and with one targeted corruption monkeypatched into the library,
where the rows of the corrupted kind (and only those) must print FAIL, or
the command must stop with CertificateMismatch (with a given message,
where another check could stop it first).  The twisted decision,
which no command prints, is corrupted through the library: a witness it
returns is verified, so a wrong witness tree must stop it.
"""

import functools
import sys

import pytest
from click.testing import CliRunner

from chevtwist import cli, groups, polyring, twist, witness
from chevtwist.auts import GroupAut
from chevtwist.errors import CertificateMismatch
from chevtwist.gf import Fq
from chevtwist.groups import GroupCtx, GroupKind
from chevtwist.matrices import Mat
from chevtwist.polyring import RingDesc


def _called_from(name):
    """True when the caller of the patched function is `name`."""
    return sys._getframe(2).f_code.co_name == name


def _trace_off_by_one(monkeypatch):
    trace = Mat.trace
    monkeypatch.setattr(Mat, "trace", lambda self: trace(self) + 1)


def _drop_last_automorphism(monkeypatch):
    aut_group = polyring._aut_group

    def dropped(R):
        auts, gens = aut_group(R)
        return auts[:-1], gens

    monkeypatch.setattr(polyring, "_aut_group", dropped)


def _sp_witness_off_by_one(monkeypatch):
    sp = cli.witness_sp
    monkeypatch.setattr(cli, "witness_sp", lambda m, cfg, n: sp(m + 1, cfg, n))


def _root_pair_mispaired(monkeypatch):
    # the root a paired with itself, not with -a: x_a(u) x_a(-u) = I
    element = witness.root_element

    def mispaired(ctx, root, a):
        if _called_from("_root_pair"):
            root = groups.root_directions(ctx.kind)[0]
        return element(ctx, root, a)

    monkeypatch.setattr(witness, "root_element", mispaired)


def _power_witness_doubled(monkeypatch):
    so = witness.witness_so

    def doubled(lam, kind, n, scalars):
        if _called_from("power_identity_check"):
            lam = 2 * lam
        return so(lam, kind, n, scalars)

    monkeypatch.setattr(witness, "witness_so", doubled)


def _corrupt_directions(monkeypatch, corrupted, family=None):
    # every root element is built from the entries of X that passed the
    # table's check, so a corrupted X must fail it; the fresh caches drop
    # with the patch.  Roots of kinds other than family stay as they are.
    directions = groups.root_directions

    def patched(kind):
        roots = directions(kind)
        return [corrupted(kind.n, root) for root in roots] if family in (None, kind.family) else roots

    monkeypatch.setattr(groups, "root_directions", patched)
    monkeypatch.setattr(groups, "root_table", functools.lru_cache(groups.root_table.__wrapped__))
    groups.enumerate_group.cache_clear()


def _direction_off_the_form(monkeypatch):
    # every entry +1: X^3 = 0 still, but J X is symmetric, not
    # antisymmetric, on the roots with two entries (x_lambda's among them)
    _corrupt_directions(monkeypatch, lambda n, root: tuple((i, j, abs(c)) for i, j, c in root))


def _direction_not_square_zero(monkeypatch):
    # X plus the torus element E_00 - E_nn: J X stays antisymmetric, but X
    # is no longer nilpotent, so X^2 != 0 and X^3 != 0
    _corrupt_directions(monkeypatch, lambda n, root: root + ((0, 0, 1), (n, n, -1)))


def _sl_direction_on_the_diagonal(monkeypatch):
    # E_ij + E_ii: X^2 = X, so X is not nilpotent and x_r(a) = exp(aX) is
    # not unipotent
    _corrupt_directions(monkeypatch, lambda n, root: root + ((root[0][0], root[0][0], 1),), "SL")


def _sp_direction_off_the_form(monkeypatch):
    # E_ij + E_(n+j)(n+i): det 1 still, but J X is no longer symmetric
    _corrupt_directions(monkeypatch, lambda n, root: tuple((i, j, abs(c)) for i, j, c in root), "Sp")


def _transpose_inverse_scaled(monkeypatch):
    # g -> w g^-T over F_9 is still an involution, but the Frobenius sends
    # w to w^3, so this graph part no longer commutes with the ring part;
    # the normal-form composition rests on that relation too
    apply_graph = GroupAut._apply_graph

    def scaled(self, mat):
        out = apply_graph(self, mat)
        return out * self.ctx.field.from_code(3) if self.graph == "tinv" else out

    monkeypatch.setattr(GroupAut, "_apply_graph", scaled)


def _obstruction_ratio_a_unit(monkeypatch):
    is_unit_of = RingDesc.is_unit_of

    def always(self, x):
        return True if _called_from("obstruction_report") else is_unit_of(self, x)

    monkeypatch.setattr(RingDesc, "is_unit_of", always)


def _conjugator_scale_squared(monkeypatch):
    conj = cli.explicit_conjugator
    monkeypatch.setattr(cli, "explicit_conjugator", lambda lam, c, *rest: conj(lam, c * c, *rest))


def _reflection_is_identity(monkeypatch):
    monkeypatch.setattr(
        witness, "b_matrix",
        lambda n, scalars: GroupCtx(GroupKind.so_even(n), scalars).identity_mat())


def _swap_basis_maps(monkeypatch):
    # the maps of x_r(1) and x_r(w) trade places
    search = groups._basis_search

    def swapped(ctx, basis, cap):
        codes, right, tree, ends, lookup = search(ctx, basis, cap)
        return codes, right[[1, 0, *range(2, len(right))]], tree, ends, lookup

    groups.enumerate_group.cache_clear()
    monkeypatch.setattr(groups, "_basis_search", swapped)


def _digit_walk_off_by_one(monkeypatch):
    # x_r(a) reached through x_r(a - b_k) times the wrong basis element
    digit_steps = groups._digit_steps

    def shifted(field):
        return [(a, parent, (k + 1) % field.e) for a, parent, k in digit_steps(field)]

    groups.enumerate_group.cache_clear()
    monkeypatch.setattr(groups, "_digit_steps", shifted)


def _prime_field_parameters_only(monkeypatch):
    # the search over x_r(1), x_r(2) alone reaches only SL_2(F_3)'s image
    digit_steps = groups._digit_steps

    def prime(field):
        return [step for step in digit_steps(field) if step[0] < field.p]

    groups.enumerate_group.cache_clear()
    monkeypatch.setattr(groups, "_digit_steps", prime)


WITNESS_SO = ("--denoms", "t", "--f", "t+1", "--r-max", "3", "--k-max", "2")
CENSUS_PSL2_F9 = ("reidemeister", "--group", "PSL", "--n", "2", "--q", "9", "--aut", "ring=frob^1")
CONJUGATOR = ("witness-check", "--group", "SOodd", "--n", "2", "--denoms", "t", "--f", "t+1",
              "--r-max", "1", "--k-max", "1")

# (id, command, corruption, predicate on the CSV rows that must fail, or
# the names of exactly the rows that must fail, or the text of the
# CertificateMismatch that must stop the command, or None for any
# CertificateMismatch);
# the conjugator scale c is squared, which the row sees when c^2 != 1: the
# constant 2 over F_5, w over F_9, and over F_3, whose constant units are
# +-1, the inverted t
CASES = [
    ("traces", ("traces", "--p", "3", "--f", "t", "--m-max", "2", "--r-max", "2"),
     _trace_off_by_one, lambda row: row.startswith("A_xm,")),
    ("root pair mispaired", ("traces", "--p", "3", "--f", "t", "--m-max", "2", "--r-max", "2"),
     _root_pair_mispaired, lambda row: row.startswith("A_xm,")),
    ("fixed-s", ("fixed-s", "--p", "3", "--f", "t"), _drop_last_automorphism, None),
    ("witness-check Sp", ("witness-check", "--group", "Sp", "--n", "2", "--p", "3", "--f", "t",
                          "--m-max", "2", "--r-max", "2"),
     _sp_witness_off_by_one, lambda row: row.startswith("C_ym,")),
    ("SOodd powers", ("witness-check", "--group", "SOodd", "--n", "2", "--p", "3") + WITNESS_SO,
     _power_witness_doubled, lambda row: row.startswith("B_xlambda,s,")),
    ("SOeven powers", ("witness-check", "--group", "SOeven", "--n", "3", "--p", "3") + WITNESS_SO,
     _power_witness_doubled, lambda row: row.startswith("D_xlambdaB,s,")),
    ("witness-check Sp direction", ("witness-check", "--group", "Sp", "--n", "2", "--p", "3", "--f", "t",
                                    "--m-max", "2", "--r-max", "2"),
     _sp_direction_off_the_form, "root direction does not preserve the form"),
    ("SOodd direction form", ("witness-check", "--group", "SOodd", "--n", "2", "--p", "3") + WITNESS_SO,
     _direction_off_the_form, "root direction does not preserve the form"),
    ("SOeven direction form", ("witness-check", "--group", "SOeven", "--n", "3", "--p", "3") + WITNESS_SO,
     _direction_off_the_form, "root direction does not preserve the form"),
    ("SOodd direction square", ("witness-check", "--group", "SOodd", "--n", "2", "--p", "3") + WITNESS_SO,
     _direction_not_square_zero, "root direction does not cube to zero"),
    ("SOeven direction square", ("witness-check", "--group", "SOeven", "--n", "3", "--p", "3") + WITNESS_SO,
     _direction_not_square_zero, "root direction does not cube to zero"),
    ("SL direction", ("reidemeister", "--group", "SL", "--n", "2", "--q", "3", "--aut", "id"),
     _sl_direction_on_the_diagonal, "root direction does not cube to zero"),
    ("Sp direction", ("reidemeister", "--group", "Sp", "--n", "2", "--q", "3", "--aut", "id"),
     _sp_direction_off_the_form, "root direction does not preserve the form"),
    ("obstructions", ("witness-check", "--group", "SOodd", "--n", "2", "--p", "3") + WITNESS_SO,
     _obstruction_ratio_a_unit, lambda row: " vs " in row),
    ("d4 obstructions", ("d4", "--p", "3", "--denoms", "t", "--f", "t+1", "--k-max", "2"),
     _obstruction_ratio_a_unit, lambda row: row.startswith("obstruction_")),
    ("conjugator", CONJUGATOR + ("--p", "5"), _conjugator_scale_squared, lambda row: ",conjugator," in row),
    ("conjugator F3", CONJUGATOR + ("--p", "3"), _conjugator_scale_squared, lambda row: ",conjugator," in row),
    ("conjugator F9", CONJUGATOR + ("--p", "3", "--e", "2"), _conjugator_scale_squared,
     lambda row: ",conjugator," in row),
    ("d4 reflection", ("d4", "--p", "3", "--f", "t", "--k-max", "1"),
     _reflection_is_identity, lambda row: row.startswith("reflection_det_minus_one,")),
    ("aut-compose graph ring", ("aut-compose", "--group", "SL", "--n", "3", "--q", "9", "--seed", "0",
                                "--samples", "10"),
     _transpose_inverse_scaled, ("compose_pointwise", "graph_ring_commute")),
    ("basis maps", CENSUS_PSL2_F9, _swap_basis_maps, None),
    ("digit walk", CENSUS_PSL2_F9, _digit_walk_off_by_one, None),
    ("index search reach", CENSUS_PSL2_F9, _prime_field_parameters_only, None),
]


def _run(args):
    return CliRunner().invoke(cli.main, list(args))


def _rows(output):
    return [line for line in output.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("args, corrupt, failing", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_corruption_is_caught(args, corrupt, failing, monkeypatch):
    clean = _run(args)
    assert clean.exit_code == 0, clean.output
    assert "FAIL" not in clean.output
    corrupt(monkeypatch)
    res = _run(args)
    assert res.exit_code == 1, res.output
    if failing is None or isinstance(failing, str):
        assert "chevtwist.errors.CertificateMismatch" + (f": {failing}" if failing else "") in res.output
        return
    failed = [row for row in _rows(res.output) if row.endswith(",FAIL")]
    assert failed, res.output
    if isinstance(failing, tuple):
        assert tuple(row.split(",")[0] for row in failed) == failing, failed
        return
    assert all(failing(row) for row in failed), failed


def test_witness_tree_corruption_is_caught(monkeypatch):
    # each element's step shifted by one: its witness is then built from
    # the wrong generator
    ctx = GroupCtx(GroupKind.sl(2), Fq(3, 2))
    frob = GroupAut(ctx, ring=1)
    x = ctx.identity()
    y = list(twist.twisted_orbit_of(x, frob))[-1]
    assert twist.are_twisted_conjugate(x, y, frob)[0]
    search = groups.closure

    def shifted(ctx, start, act, width, cap, refusal, maps=False):
        codes, (parent, step), ends, lookup, images = search(ctx, start, act, width, cap, refusal, maps)
        return codes, (parent, (step + 1) % width), ends, lookup, images

    monkeypatch.setattr(twist, "closure", shifted)
    with pytest.raises(CertificateMismatch):
        twist.are_twisted_conjugate(x, y, frob)
