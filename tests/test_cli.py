"""End-to-end command line behavior, formats, and exit codes."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

from dotbinom import cli

BASE = [sys.executable, "-m", "dotbinom"]
DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*args):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=300
    )


def test_bracket_plain():
    res = run_cli("bracket", "--q", "5", "--n", "4")
    assert res.returncode == 0
    assert res.stdout == "60\n"


def test_bracket_flavor():
    res = run_cli("bracket", "--q", "3", "--n", "3", "--flavor", "timelike_dot")
    assert res.stdout == "6\n"


def test_bracket_compare_paper():
    res = run_cli("bracket", "--q", "3", "--n", "2", "--compare-paper")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "value 2",
        "published 1",
        "status paper_discrepancy",
    ]


def test_bracket_compare_paper_agreeing_cell():
    res = run_cli("bracket", "--q", "5", "--n", "2", "--compare-paper")
    assert res.stdout.splitlines()[-1] == "status pass"


def test_bracket_json_round_trip():
    res = run_cli("bracket", "--q", "5", "--n", "4", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload == {
        "command": "bracket", "q": 5, "n": 4,
        "flavor": "spacelike_dot", "value": 60,
    }
    assert json.dumps(payload, indent=2) + "\n" == res.stdout


def test_triangle_plain():
    res = run_cli("triangle", "--q", "5", "--rows", "4")
    assert res.stdout.splitlines() == [
        "1",
        "1 1",
        "1 2 1",
        "1 15 15 1",
        "1 60 450 60 1",
    ]


def test_triangle_csv():
    res = run_cli("triangle", "--q", "3", "--rows", "2", "--format", "csv")
    assert res.stdout.splitlines() == [
        "n,k,value",
        "0,0,1",
        "1,0,1",
        "1,1,1",
        "2,0,1",
        "2,1,2",
        "2,2,1",
    ]


def test_triangle_rows_cap_is_usage_error():
    res = run_cli("triangle", "--q", "3", "--rows", "31")
    assert res.returncode == 2


def test_binom_variants():
    assert run_cli("binom", "--q", "3", "--n", "4", "--k", "2").stdout == "18\n"
    res = run_cli("binom", "--q", "3", "--n", "4", "--k", "2", "--variant", "dl")
    assert res.stdout == "72\n"


def test_poly_row():
    res = run_cli("poly", "--q-class", "1", "--n", "4", "--k", "2")
    assert res.stdout == "k=2 degree=4 1/2*q^4 + q^3 + 1/2*q^2\n"


def test_poly_checks_columns():
    res = run_cli("poly", "--q-class", "3", "--n", "4", "--checks",
                  "--format", "csv")
    lines = res.stdout.splitlines()
    assert lines[0] == \
        "q_class,n,k,degree,poly,sign,published_sign,limit,limit_expected"
    cell = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert cell["k"] == "1"
    assert cell["sign"] == "minus"
    assert cell["published_sign"] == "plus"
    assert cell["limit"] == cell["limit_expected"] == "0"


def test_group_order_compare():
    res = run_cli("group-order", "--q", "3", "--n", "3", "--compare-paper")
    assert res.stdout.splitlines()[:3] == [
        "value 48",
        "published 2",
        "status paper_discrepancy",
    ]
    res = run_cli("group-order", "--q", "3", "--n", "1", "--compare-paper")
    lines = res.stdout.splitlines()
    assert lines[1] == "published not evaluable"
    assert lines[2] == "status skipped"


def test_mobius_output():
    res = run_cli("mobius", "--q", "3", "--n", "4")
    assert res.stdout.splitlines()[-1] == "m=4 b=5 mu=5"


def test_limits_output():
    res = run_cli("limits", "--n", "5", "--k", "3")
    assert res.stdout == "k=3 limit=2 ksets=2\n"


def test_oracle_count_plain_has_no_timing():
    res = run_cli("oracle", "count", "--q", "3", "--n", "2")
    lines = res.stdout.splitlines()
    assert "ambient dot" in lines
    assert "lines spacelike=2 timelike=2 lightlike=0" in lines
    assert not any(line.startswith("elapsed") for line in lines)


def test_oracle_count_json():
    res = run_cli("oracle", "count", "--q", "3", "--n", "2",
                  "--ambient", "lambda_dot", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["lines"] == {"spacelike": 1, "timelike": 1, "lightlike": 2}
    assert payload["flag_count"] is None
    assert json.dumps(payload, indent=2) + "\n" == res.stdout


def test_oracle_count_respects_budget():
    res = run_cli("oracle", "count", "--q", "13", "--n", "6",
                  "--budget", "100")
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_oracle_count_refuses_fields_beyond_table_limit():
    """q = 65537 is refused by the table price, before any table is built."""
    started = time.monotonic()
    res = subprocess.run(BASE + ["oracle", "count", "--q", "65537", "--n", "1"],
                         capture_output=True, text=True, timeout=60)
    assert time.monotonic() - started < 10
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == ("error: field tables of 4295098369 entries at q=65537 "
                          "exceed the limit of 4194304 entries\n")


def test_oracle_count_refuses_a_state_array_beyond_the_limit():
    """Every k of q=163 n=4 fits a budget of 10^9, but k = 2 would walk
    163^3 transfer states: one error line, and no k is printed."""
    res = run_cli("oracle", "count", "--q", "163", "--n", "4", "--budget", "1000000000")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == ("error: Gram transfer states of 4330747 entries at "
                          "(q=163, n=4, k=2) exceed the limit of 4194304 entries\n")


def test_oracle_poset_and_graph(tmp_path):
    graph = tmp_path / "edges.txt"
    res = run_cli("oracle", "poset", "--q", "3", "--n", "2",
                  "--kind", "lorentzian", "--emit-graph", str(graph))
    lines = res.stdout.splitlines()
    assert lines[0] == "ranks 1 2 1"
    assert lines[1] == "nodes 4"
    assert lines[2] == "edges 4"
    assert graph.read_text().count("\n") == 4


def test_oracle_poset_golden(tmp_path, monkeypatch, capsys):
    """Frozen stdout and Hasse edge file of a three-rank Lorentzian poset."""
    monkeypatch.chdir(tmp_path)
    code = cli.main(["oracle", "poset", "--q", "3", "--n", "3",
                     "--kind", "lorentzian", "--emit-graph", "edges.txt"])
    assert code == 0
    golden = DATA / "poset_q3_n3_lorentzian.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    edges = DATA / "poset_q3_n3_lorentzian_edges.txt"
    assert (tmp_path / "edges.txt").read_text(encoding="utf-8") == \
        edges.read_text(encoding="utf-8")


@pytest.mark.parametrize("name,reason", [
    ("missing/edges.txt", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_graph_file_is_one_error_line(name, reason, tmp_path, capsys):
    path = str(tmp_path / name)
    code = cli.main(["oracle", "poset", "--q", "3", "--n", "2", "--emit-graph", path])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: cannot write {path}: {reason}\n"


def _replay_golden(name, capsys):
    """Run every command line of a golden and compare exit code and stdout."""
    golden = json.loads((DATA / name).read_text(encoding="utf-8"))
    for line, want in golden.items():
        code = cli.main(line.split())
        assert (code, capsys.readouterr().out) == (want["exit"], want["stdout"]), line


def test_table_commands_match_golden(capsys):
    """Exit code and stdout of every table command in all three formats.

    Frozen from the hand-built parser, before the command table replaced it.
    """
    _replay_golden("cli_commands.json", capsys)


def test_poly_rows_match_golden(capsys):
    """``poly --checks`` for every row n = 0..MAX_N of both classes, plain and json.

    Frozen from the Fraction-arithmetic polynomials, before they were built
    on integer coefficients.
    """
    _replay_golden("poly_rows.json", capsys)


def test_lambda_dot_counts_match_golden(capsys):
    """``oracle count`` on lambda-dot ambients where lambda^-1 differs from
    lambda (q = 5, 7, 9; n = 4, 5), plain and json.

    Frozen from the oracle that read k > n / 2 off a walk over the inverted
    diagonal, before every k was read off the ambient's own walk.
    """
    _replay_golden("oracle_count_lambda.json", capsys)


def test_flags_command():
    res = run_cli("flags", "--q", "3", "--n", "3")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "flags 6",
        "bracket_factorial 6",
        "status pass",
    ]


def test_flags_exit_one_when_the_count_disagrees(monkeypatch, capsys):
    from dotbinom import oracle

    monkeypatch.setattr(oracle, "count_flags", lambda snapshot: 5)
    assert cli.main(["flags", "--q", "3", "--n", "3"]) == 1
    assert capsys.readouterr().out == "flags 5\nbracket_factorial 6\nstatus fail\n"


def test_verify_exit_zero_with_discrepancies():
    res = run_cli("verify", "--q", "3", "--max-n", "2")
    assert res.returncode == 0
    assert "PAPER-DISCREPANCY" in res.stdout
    assert "FAIL" not in res.stdout.replace("PAPER-DISCREPANCY", "")
    assert res.stdout.splitlines()[-1].startswith("checks:")


def test_verify_without_paper_comparison():
    res = run_cli("verify", "--q", "3", "--max-n", "2", "--no-compare-paper")
    assert res.returncode == 0
    assert "PAPER-DISCREPANCY" not in res.stdout


@pytest.mark.parametrize("fmt,suffix,flags", [
    pytest.param(fmt, suffix, flags, id="-".join([*flags, fmt, suffix]))
    for flags in ((), ("no-compare-paper",))
    for fmt, suffix in (("plain", "txt"), ("json", "json"))
])
def test_verify_golden(fmt, suffix, flags, capsys):
    """Frozen records: skipped, fallback, discrepancy and poset shapes."""
    code = cli.main(["verify", "--q", "3,5", "--max-n", "3", "--budget", "20",
                     *(f"--{flag}" for flag in flags), "--format", fmt])
    assert code == 0
    golden = DATA / "verify_q3-5_max-n3_budget20{}.{}".format(
        "".join(f"_{flag}" for flag in flags), suffix)
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_verify_prints_the_report_rendering(fmt, capsys):
    """The command's bytes equal report.verify_* of the same run."""
    from dotbinom import report, verify

    code = cli.main(["verify", "--q", "3,5", "--max-n", "3", "--budget", "20",
                     "--format", fmt])
    rep = verify.run_verify([3, 5], 3, budget=20)
    render = {
        "plain": lambda r: "\n".join(report.verify_plain_lines(r)) + "\n",
        "csv": report.verify_csv,
        "json": report.verify_json,
    }[fmt]
    assert capsys.readouterr().out == render(rep)
    assert code == rep.exit_status


def test_verify_multiple_fields():
    res = run_cli("verify", "--q", "3,5", "--max-n", "1", "--format", "csv")
    assert res.returncode == 0
    assert ",q=5 n=1" in res.stdout or "q=5 n=1" in res.stdout


def test_verify_drops_repeated_field_sizes(capsys):
    assert cli.main(["verify", "--q", "3", "--max-n", "1"]) == 0
    once = capsys.readouterr().out
    assert cli.main(["verify", "--q", "3,3", "--max-n", "1"]) == 0
    assert capsys.readouterr().out == once


def test_verify_skips_the_oracle_on_fields_it_cannot_build(capsys):
    """243 = 3^5 is past the oracle's extension degrees; the closed forms still run."""
    code = cli.main(["verify", "--q", "243", "--max-n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] == 0
    families = {r["check"].split("/")[0] for r in payload["checks"]}
    assert {"oracle", "closed", "published", "poly"} <= families
    oracle = [r for r in payload["checks"] if r["check"].startswith("oracle/")]
    assert {r["check"] for r in oracle} == {
        "oracle/subspace-count", "oracle/line-count", "oracle/group-order"}
    for record in oracle:
        assert (record["status"], record["note"]) == (
            "skipped", "extension degree 5 outside 1..4"), record


def test_verify_fallback_note_gives_the_skip_reason(capsys):
    """A published line count checked against the fitted bracket names what
    stopped the enumeration: here the field, not a budget."""
    assert cli.main(["verify", "--q", "243", "--max-n", "1", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["checks"]
    skipped = {r["params"]: r["note"] for r in records if r["check"] == "oracle/line-count"}
    published = [r for r in records if r["check"] == "published/line-count"]
    assert len(published) == 4
    for record in published:
        reason = skipped[record["params"].rsplit(" which=", 1)[0]]
        assert reason == "extension degree 5 outside 1..4"
        assert record["note"] == f"expected from fitted bracket; {reason}"


def test_usage_errors_exit_two():
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("bracket", "--q", "5").returncode == 2
    assert run_cli("verify", "--q", "x", "--max-n", "2").returncode == 2
    # negative sizes and budgets are refused at parse time, and --jobs is gone
    assert run_cli("poly", "--q-class", "1", "--n", "-1").returncode == 2
    assert run_cli("verify", "--q", "3", "--max-n", "-1").returncode == 2
    assert run_cli("verify", "--q", "3",
                   "--max-n", str(cli.MAX_VERIFY_N + 1)).returncode == 2
    assert run_cli("verify", "--q", "3", "--max-n", "2", "--jobs", "1").returncode == 2
    assert run_cli("oracle", "count", "--q", "3", "--n", "2", "--jobs", "1").returncode == 2
    assert run_cli("oracle", "count", "--q", "3", "--n", "2",
                   "--budget", "-1").returncode == 2
    assert run_cli("flags", "--q", "3", "--n", "2", "--budget", "-1").returncode == 2
    assert run_cli("binom", "--q", "3", "--n", "2", "--k", "-1").returncode == 2
    assert run_cli("poly", "--q-class", "1", "--n", "2", "--k", "-1").returncode == 2
    assert run_cli("limits", "--n", "2", "--k", "-1").returncode == 2


def test_domain_errors_exit_one():
    res = run_cli("bracket", "--q", "4", "--n", "2")
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    res = run_cli("bracket", "--q", "15", "--n", "2")
    assert res.returncode == 1
    res = run_cli("binom", "--q", "3", "--n", "2", "--k", "3")
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    # k = 0 and n = 0 read no bracket, yet q is checked first
    (["binom", "--q", "4", "--n", "2", "--k", "0", "--variant", "ld"], "not an odd prime power"),
    (["binom", "--q", "4", "--n", "2", "--k", "0", "--variant", "dl"], "not an odd prime power"),
    (["triangle", "--q", "15", "--rows", "0"], "not a prime power"),
    (["mobius", "--q", "4", "--n", "0"], "not an odd prime power"),
])
def test_q_is_refused_where_no_bracket_is_read(argv, message):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == [f"error: q = {argv[2]} is {message}"]


def test_poset_budget_guard_survives_optimize_flag():
    res = subprocess.run([sys.executable, "-O", "-m", "dotbinom", "flags",
                          "--q", "211", "--n", "2"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: vector masks of 106 subspaces")
    assert "exceeding budget 20000" in res.stderr


@pytest.mark.parametrize("argv,code", [
    # a prime just below the --q cap: answered at once, not by trial division
    (["bracket", "--q", "1000000000000000003", "--n", "2"], 0),
    # a product of two primes near 2^32: not a prime power
    (["bracket", "--q", "18446743979220271189", "--n", "2"], 1),
    (["bracket", "--q", str(2**64 + 13), "--n", "2"], 2),
    (["bracket", "--q", "3", "--n", "50000000"], 2),
    (["group-order", "--q", "3", "--n", "3000"], 2),
    (["poly", "--q-class", "1", "--n", "200", "--k", "100"], 2),
])
def test_formerly_hanging_inputs_finish_quickly(argv, code):
    started = time.monotonic()
    res = subprocess.run(BASE + argv, capture_output=True, text=True, timeout=60)
    assert time.monotonic() - started < 5
    assert res.returncode == code, res.stderr
    if code == 0:
        assert res.stdout == "500000000000000002\n"
    elif code == 1:
        assert res.stderr == "error: q = 18446743979220271189 is not a prime power\n"


@pytest.mark.parametrize("argv,cap", [
    (["bracket", "--q", str(2**64), "--n", "2"], 2**64 - 1),
    (["verify", "--q", f"3,{2**64}", "--max-n", "1"], 2**64 - 1),
    (["mobius", "--q", "3", "--n", str(cli.MAX_N + 1)], cli.MAX_N),
    (["oracle", "count", "--q", "3", "--n", str(cli.MAX_N + 1)], cli.MAX_N),
    (["triangle", "--q", "3", "--rows", str(cli.MAX_TRIANGLE_ROWS + 1)],
     cli.MAX_TRIANGLE_ROWS),
    (["verify", "--q", "3", "--max-n", "21"], cli.MAX_VERIFY_N),
])
def test_caps_are_usage_errors_that_name_the_cap(argv, cap, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"must be at most {cap}," in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["group-order", "--q", "18446744073709551557", "--n", str(cli.MAX_N),
     "--compare-paper"],
    ["mobius", "--q", "18446744073709551557", "--n", str(cli.MAX_N),
     "--format", "json"],
    ["triangle", "--q", "18446744073709551557",
     "--rows", str(cli.MAX_TRIANGLE_ROWS), "--format", "csv"],
])
def test_largest_inputs_under_the_caps_are_answered(argv, capsys):
    """q just below 2^64 (the largest prime there) at the caps: every integer prints."""
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
