"""Mutation gate: every certificate row kind of the CLI can fail.

A row that prints "ok" is evidence only if a wrong input makes it print
FAIL.  Each case runs one command twice: as shipped, where every row must
pass, and with one targeted corruption monkeypatched into the library,
where the rows of the corrupted kind (and only those) must print FAIL, or
the command must stop with CertificateMismatch.
"""

import sys

import pytest
from click.testing import CliRunner

from chevtwist import cli, groups, polyring, witness
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


def _power_witness_doubled(monkeypatch):
    so = witness.witness_so

    def doubled(lam, kind, n, scalars):
        if _called_from("power_identity_check"):
            lam = 2 * lam
        return so(lam, kind, n, scalars)

    monkeypatch.setattr(witness, "witness_so", doubled)


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

    def swapped(ctx, cap):
        codes, right, tree, ends = search(ctx, cap)
        return codes, right[[1, 0, *range(2, len(right))]], tree, ends

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

# (id, command, corruption, predicate on the CSV rows that must fail);
# the conjugator scale c is squared, which the row sees when c^2 != 1: the
# constant 2 over F_5, w over F_9, and over F_3, whose constant units are
# +-1, the inverted t
CASES = [
    ("traces", ("traces", "--p", "3", "--f", "t", "--m-max", "2", "--r-max", "2"),
     _trace_off_by_one, lambda row: row.startswith("A_xm,")),
    ("fixed-s", ("fixed-s", "--p", "3", "--f", "t"), _drop_last_automorphism, None),
    ("witness-check Sp", ("witness-check", "--group", "Sp", "--n", "2", "--p", "3", "--f", "t",
                          "--m-max", "2", "--r-max", "2"),
     _sp_witness_off_by_one, lambda row: row.startswith("C_ym,")),
    ("SOodd powers", ("witness-check", "--group", "SOodd", "--n", "2", "--p", "3") + WITNESS_SO,
     _power_witness_doubled, lambda row: row.startswith("B_xlambda,s,")),
    ("SOeven powers", ("witness-check", "--group", "SOeven", "--n", "3", "--p", "3") + WITNESS_SO,
     _power_witness_doubled, lambda row: row.startswith("D_xlambdaB,s,")),
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
    if failing is None:
        assert "chevtwist.errors.CertificateMismatch" in res.output
        return
    failed = [row for row in _rows(res.output) if row.endswith(",FAIL")]
    assert failed, res.output
    assert all(failing(row) for row in failed), failed
