"""CLI behavior: determinism, golden outputs, exit codes, formats."""

import hashlib
import pathlib

import pytest
from click.testing import CliRunner

from chevtwist import groups, twist
from chevtwist.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def test_traces_golden():
    res = run_cli("traces", "--p", "3", "--f", "t", "--m-max", "2", "--r-max", "2")
    assert res.exit_code == 0
    assert res.output == (GOLDEN / "traces_p3_f_t.csv").read_text()


def test_traces_sweep_size():
    res = run_cli("traces", "--p", "3", "--f", "t", "--m-max", "3", "--r-max", "4")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 2 + 12  # comment, header, 3*4 certificates
    assert all(line.endswith(",ok") for line in lines[2:])


def test_fixed_s_golden_and_expect():
    res = run_cli("fixed-s", "--p", "3", "--f", "t")
    assert res.exit_code == 0
    assert res.output == (GOLDEN / "fixed_s_p3.csv").read_text()
    assert "2*t^6+2*t^4+2*t^2" in res.output
    ok = run_cli("fixed-s", "--p", "3", "--f", "t", "--expect", "2*t^6+2*t^4+2*t^2")
    assert ok.exit_code == 0
    bad = run_cli("fixed-s", "--p", "3", "--f", "t", "--expect", "t")
    assert bad.exit_code == 1


def test_reidemeister_golden_and_counts():
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "3", "--aut", "id")
    assert res.exit_code == 0
    assert res.output == (GOLDEN / "reidemeister_sl2_f3.csv").read_text()
    assert "count=7" in res.output
    res4 = run_cli("reidemeister", "--group", "PSL", "--n", "2", "--q", "3", "--aut", "id")
    assert "count=4" in res4.output


# outputs whose representatives are least indices, so they pin the
# enumeration order: a ring twist on a projective group, a graph twist on a
# rank-2 group, and the identity on a field of degree 2
ORDER_PINS = [
    ("reidemeister_psl2_f9_frob.csv", ("PSL", "2", "9", "ring=frob^1")),
    ("reidemeister_sl3_f3_tinv.csv", ("SL", "3", "3", "graph=tinv")),
    ("reidemeister_sl2_f25.csv", ("SL", "2", "25", "id")),
]


@pytest.mark.parametrize("name, args", ORDER_PINS, ids=[pin[0] for pin in ORDER_PINS])
def test_reidemeister_order_pins(name, args):
    family, n, q, aut = args
    res = run_cli("reidemeister", "--group", family, "--n", n, "--q", q, "--aut", aut)
    assert res.exit_code == 0, res.output
    assert res.output == (GOLDEN / name).read_text()


def test_reidemeister_expect_count_gate():
    ok = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "3",
                 "--aut", "id", "--expect-count", "7")
    assert ok.exit_code == 0
    bad = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "3",
                  "--aut", "id", "--expect-count", "999")
    assert bad.exit_code == 1


def test_reidemeister_frobenius_aut_grammar():
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "9",
                  "--aut", "ring=frob^1")
    assert res.exit_code == 0
    assert "method=orbit-partition+burnside" in res.output


def test_byte_identical_reruns():
    args = ("traces", "--p", "5", "--f", "t", "--m-max", "2", "--r-max", "3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.output == second.output
    aut_args = ("aut-compose", "--group", "SL", "--n", "3", "--q", "3",
                "--seed", "11", "--samples", "15")
    assert run_cli(*aut_args).output == run_cli(*aut_args).output


def test_aut_compose_requires_seed():
    res = run_cli("aut-compose", "--group", "SL", "--n", "3", "--q", "3")
    assert res.exit_code != 0


def test_aut_compose_passes():
    res = run_cli("aut-compose", "--group", "SOeven", "--n", "3", "--q", "3",
                  "--seed", "5", "--samples", "10")
    assert res.exit_code == 0
    assert "FAIL" not in res.output


@pytest.mark.parametrize("group, n, rows", [
    ("SL", "3", ["compose_pointwise", "inner_shift", "graph_ring_commute"]),
    ("SOeven", "3", ["compose_pointwise", "inner_shift", "graph_ring_commute"]),
    ("Sp", "2", ["compose_pointwise", "inner_shift"]),
    ("SOodd", "2", ["compose_pointwise", "inner_shift"]),
])
def test_aut_compose_rows(group, n, rows):
    # a kind with no graph part has no graph-ring relation to check
    res = run_cli("aut-compose", "--group", group, "--n", n, "--q", "9", "--seed", "1", "--samples", "5")
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[2:] == [f"{row},5,ok" for row in rows]


def test_reidemeister_csv_shape():
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "3", "--aut", "id")
    lines = res.output.splitlines()
    assert lines[0].startswith("# run: reidemeister ")
    assert lines[1] == "kind,representative,size"
    assert [line.split(",")[0] for line in lines[2:]] == ["orbit"] * 7 + ["summary"]
    assert lines[-1] == "summary,count=7 method=orbit-partition+burnside,24"


def test_witness_check_so_families():
    res = run_cli("witness-check", "--group", "SOodd", "--n", "2", "--p", "3",
                  "--denoms", "t", "--f", "t+1", "--r-max", "4", "--k-max", "3")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    res_even = run_cli("witness-check", "--group", "SOeven", "--n", "3", "--p", "3",
                       "--denoms", "t", "--f", "t+1", "--r-max", "4", "--k-max", "2")
    assert res_even.exit_code == 0


def test_witness_check_sp_doubling():
    res = run_cli("witness-check", "--group", "Sp", "--n", "2", "--p", "3",
                  "--f", "t", "--m-max", "2", "--r-max", "3")
    assert res.exit_code == 0
    assert "FAIL" not in res.output


def test_d4_command():
    res = run_cli("d4", "--p", "3", "--denoms", "t", "--f", "t+1", "--k-max", "2")
    assert res.exit_code == 0
    assert "reflection_order,2" in res.output
    assert "reflection_det_minus_one,ok" in res.output
    assert "power_identity" not in res.output


def test_markdown_format():
    res = run_cli("fixed-s", "--p", "3", "--f", "t", "--format", "md")
    assert res.exit_code == 0
    assert res.output.splitlines()[0].startswith("*run:")
    assert "| s |" in res.output


def test_output_file(tmp_path):
    out = tmp_path / "report.csv"
    res = run_cli("traces", "--p", "3", "--f", "t", "--m-max", "1", "--r-max", "1",
                  "--out", str(out))
    assert res.exit_code == 0
    assert out.read_text().startswith("# run: traces")


def test_bad_q_rejected():
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "12", "--aut", "id")
    assert res.exit_code == 2


@pytest.mark.parametrize("q", ["0", "1"])
def test_q_below_three_rejected(q):
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", q, "--aut", "id")
    assert res.exit_code == 2
    assert "not an odd prime power" in res.output


def test_reidemeister_partitions_once(monkeypatch):
    calls = []
    real = twist.twisted_orbits

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(twist, "twisted_orbits", counted)
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "3", "--aut", "id")
    assert res.output == (GOLDEN / "reidemeister_sl2_f3.csv").read_text()
    assert len(calls) == 1


def test_library_errors_surface_with_context():
    res = run_cli("fixed-s", "--p", "3", "--denoms", "t", "--f", "t")
    assert res.exit_code == 1
    assert "UnitInput" in res.output


def test_malformed_aut_matrix_is_a_typed_error():
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "5",
                  "--aut", "inner=[[1,1],[0,1]]")
    assert res.exit_code == 1
    assert "chevtwist.errors.ParseError" in res.output
    assert "builtins" not in res.output


def test_non_member_aut_matrix_is_a_typed_error():
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "5",
                  "--aut", "inner=1,1;0,2")
    assert res.exit_code == 1
    assert "chevtwist.errors.NotInGroup" in res.output
    assert "builtins" not in res.output


def test_denoms_flag_reads_minus():
    minus = run_cli("fixed-s", "--p", "3", "--denoms", "t-1", "--f", "t")
    plus = run_cli("fixed-s", "--p", "3", "--denoms", "t+2", "--f", "t")
    assert minus.exit_code == plus.exit_code == 0
    rows = plus.output.splitlines()[1:]
    assert rows == ["s", "2*t^4+t^3+2*t^2 / t^2+t+1"]
    assert minus.output.splitlines()[1:] == rows


@pytest.mark.parametrize("family, q, digest", [
    ("SL", "27", "e910783198d807980ccbabd5399f5e7c0929c3a7a199cb8a575a950e783e4bb5"),
    ("PSL", "9", "2f79b8451473320982914865cf91b3833860ea4e601d9a1b9c1e5eeec161dca4"),
])
def test_reidemeister_frobenius_output_pinned(family, q, digest):
    res = run_cli("reidemeister", "--group", family, "--n", "2", "--q", q, "--aut", "ring=frob^1")
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("denoms", ["t^2", "2*t", "t,t"])
def test_bad_denominator_is_a_typed_error(denoms):
    res = run_cli("fixed-s", "--p", "3", "--denoms", denoms, "--f", "t")
    assert res.exit_code == 1
    assert "chevtwist.errors.PreconditionFailed" in res.output
    assert "builtins" not in res.output


@pytest.mark.parametrize("group", ["SOeven", "PSOeven"])
def test_reidemeister_even_orthogonal_refused_up_front(group, monkeypatch):
    # |Omega^+_6(F_3)| = 6,065,280 is above the enumeration cap: the count
    # is refused from the order formula, before any product is made
    def no_products(*args):
        raise AssertionError("a product was made")

    monkeypatch.setattr(groups, "mul_stack", no_products)
    res = run_cli("reidemeister", "--group", group, "--n", "3", "--q", "3", "--aut", "id")
    assert res.exit_code == 1
    assert "CapExceeded: group enumeration exceeded cap 1000000" in res.output
    order = "6065280" if group == "SOeven" else "at least 3032640"
    assert f"has order {order}" in res.output


@pytest.mark.parametrize("group, n, size", [("SL", "100", "10^4771"), ("Sp", "80", "10^6145")])
def test_reidemeister_refuses_an_order_past_the_digit_limit(group, n, size):
    # the order has more digits than int-to-str converts: the refusal
    # names its size instead of raising ValueError while formatting it
    res = run_cli("reidemeister", "--group", group, "--n", n, "--q", "3")
    assert res.exit_code == 1
    assert "chevtwist.errors.CapExceeded" in res.output and f"has order about {size}" in res.output
    assert "builtins" not in res.output


@pytest.mark.parametrize("args, error", [
    (("reidemeister", "--group", "SL", "--n", "1", "--q", "3"), "BadRank"),
    (("witness-check", "--group", "SOeven", "--n", "2", "--p", "3", "--f", "t"), "BadRank"),
    (("witness-check", "--group", "Sp", "--n", "1", "--p", "3", "--f", "t"), "BadRank"),
    (("traces", "--p", "3", "--f", "t", "--n", "1"), "BadRank"),
    (("d4", "--p", "3", "--f", "t", "--graph", "foo"), "IncompatibleKind"),
])
def test_bad_rank_and_graph_are_typed_errors(args, error):
    res = run_cli(*args)
    assert res.exit_code == 1
    assert f"chevtwist.errors.{error}" in res.output
    assert "builtins" not in res.output


@pytest.mark.parametrize("args", [
    ("traces", "--p", "2", "--f", "t"),
    ("fixed-s", "--p", "2", "--f", "t"),
    ("witness-check", "--group", "Sp", "--n", "2", "--p", "2", "--f", "t"),
    ("d4", "--p", "2", "--f", "t"),
    ("reidemeister", "--group", "SL", "--n", "2", "--p", "2"),
])
def test_characteristic_two_is_refused_by_every_command(args):
    res = run_cli(*args)
    assert res.exit_code == 1
    assert "chevtwist.errors.Unsupported: characteristic 2 is out of scope" in res.output


@pytest.mark.parametrize("args", [
    ("traces", "--p", "3", "--f", "t", "--m-max", "0"),
    ("traces", "--p", "3", "--f", "t", "--r-max", "0"),
    ("witness-check", "--group", "Sp", "--n", "2", "--p", "3", "--f", "t", "--m-max", "0"),
    ("witness-check", "--group", "Sp", "--n", "2", "--p", "3", "--f", "t", "--r-max", "0"),
    ("witness-check", "--group", "SOodd", "--n", "2", "--p", "3", "--f", "t", "--r-max", "0"),
    ("aut-compose", "--seed", "0", "--samples", "0"),
    ("aut-compose", "--seed", "0", "--samples", "-5"),
    ("witness-check", "--group", "SOodd", "--n", "2", "--p", "3", "--k-max", "-2"),
    ("witness-check", "--group", "SOeven", "--n", "3", "--p", "3", "--k-max", "0"),
    ("d4", "--p", "3", "--k-max", "0"),
    ("d4", "--p", "3", "--k-max", "-1"),
])
def test_empty_sweeps_are_refused(args):
    # a run with no certificate rows would print a header and pass
    res = run_cli(*args)
    assert res.exit_code == 2
    assert "x>=1" in res.output


@pytest.mark.parametrize("flag, value, bound", [
    ("--cap", "0", "x>=1"),
    ("--cap", "-1", "x>=1"),
    ("--burnside-cap", "-1", "x>=0"),
    ("--p", "5", "not both"),
    ("--e", "3", "not both"),
])
def test_reidemeister_refuses_caps_out_of_range(flag, value, bound):
    # a cap below the trivial group's order is a usage error, not a
    # CapExceeded naming it; so is a field named by --q beside --p or
    # --e, which would otherwise run over the --q field and ignore them
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "3", flag, value)
    assert res.exit_code == 2
    assert bound in res.output and "CapExceeded" not in res.output


def test_reidemeister_burnside_cap_zero_skips_the_second_count():
    res = run_cli("reidemeister", "--group", "SL", "--n", "2", "--q", "3", "--burnside-cap", "0")
    assert res.exit_code == 0
    assert "count=7 method=orbit-partition," in res.output


def test_witness_check_has_no_sl_group():
    # witness_sl's membership is certified when it is built, so a det row
    # could never fail;
    # the SL certificates are the traces command
    res = run_cli("witness-check", "--group", "SL", "--n", "3", "--p", "3")
    assert res.exit_code == 2
