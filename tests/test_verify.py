"""Reconciliation runs: how often each enumeration and sign check is done."""

from collections import Counter

import pytest

from dotbinom import cli, oracle, polyq, verify
from dotbinom.errors import BudgetExceeded, IdentityViolated, Mismatch
from dotbinom.quadspace import PosetKind
from dotbinom.report import Status


def test_each_ambient_and_dimension_is_enumerated_once(monkeypatch):
    table = oracle.count_table
    calls = Counter()
    cells = Counter()

    def counting(field, kind, max_n, budget):
        calls[field.q, kind] += 1
        found = table(field, kind, max_n, budget)
        cells.update((field.q, kind, n, k) for n, k in found)
        return found

    monkeypatch.setattr(oracle, "count_table", counting)
    # budget 20 leaves some cells beyond it: those are tried once as well
    report = verify.run_verify([3, 5], 3, budget=20)
    assert report.count(Status.SKIPPED) > 0
    assert set(calls.values()) == {1}
    assert set(cells.values()) == {1}
    # two fields, two ambient kinds, k = 0..n for n = 1..3
    assert len(cells) == 2 * 2 * (2 + 3 + 4)


@pytest.mark.parametrize("error", [Mismatch, IdentityViolated])
def test_a_failed_count_is_reported_and_counted_once(monkeypatch, error):
    table = oracle.count_table
    calls = Counter()

    def failing(field, kind, max_n, budget):
        found = table(field, kind, max_n, budget)
        calls.update((kind, n, k) for n, k in found)
        found[2, 1] = error("injected")
        return found

    monkeypatch.setattr(oracle, "count_table", failing)
    report = verify.run_verify([3], 2)
    failed = {(r.check, r.params, r.note)
              for r in report.records if r.status is Status.FAIL}
    assert failed == {
        ("oracle/subspace-count", "q=3 n=2 k=1 ambient=dot", "injected"),
        ("oracle/subspace-count", "q=3 n=2 k=1 ambient=lambda_dot", "injected"),
        ("oracle/line-count", "q=3 n=2 ambient=dot", "injected"),
        ("oracle/line-count", "q=3 n=2 ambient=lambda_dot", "injected"),
    }
    assert report.exit_status == 1
    # the published line counts fall back to the fitted bracket
    fallback = [r for r in report.records
                if r.check == "published/line-count" and "n=2 " in r.params]
    assert len(fallback) == 4
    assert {r.note for r in fallback} == {"expected from fitted bracket; injected"}
    assert set(calls.values()) == {1}
    # two ambient kinds, k = 0..n for n = 1, 2
    assert len(calls) == 2 * (2 + 3)


def test_field_tables_that_fail_their_checks_fail_every_count(monkeypatch, capsys):
    """count_table raises when the field tables fail their checks: the run
    reports every count of the field as FAIL, k = 0 too, and exits 1 with
    its report and no traceback."""

    def failing(p, e):
        raise IdentityViolated("injected")

    monkeypatch.setattr(oracle, "_field_tables", failing)
    report = verify.run_verify([3], 2)
    failed = {r.params: r.note for r in report.records
              if r.check == "oracle/subspace-count" and r.status is Status.FAIL}
    assert failed == {f"q=3 n={n} k={k} ambient={kind}": "injected"
                      for kind in ("dot", "lambda_dot") for n in (1, 2) for k in range(n + 1)}
    assert report.exit_status == 1
    assert cli.main(["verify", "--q", "3", "--max-n", "2"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL" in out and out.splitlines()[-1].startswith("checks:")
    assert "Traceback" not in out + err


def test_a_state_array_beyond_the_limit_is_skipped():
    """q=163 n=4 k=2 fits a budget of 10^9, but its count would walk 163^3
    transfer states: SKIPPED, with the refusal as its note."""
    report = verify.run_verify([163], 4, budget=10**9)
    notes = {r.params: r.note for r in report.records
             if r.check == "oracle/subspace-count" and r.status is Status.SKIPPED}
    message = ("Gram transfer states of 4330747 entries at (q=163, n=4, k=2) "
               "exceed the limit of 4194304 entries")
    assert notes == {f"q=163 n=4 k=2 ambient={kind}": message for kind in ("dot", "lambda_dot")}
    assert report.count(Status.FAIL) == 0


def test_a_refused_lorentzian_poset_is_skipped(monkeypatch):
    build = oracle.build_poset

    def refusing(ambient, kind, *args):
        if kind is PosetKind.LORENTZIAN:
            raise BudgetExceeded("injected")
        return build(ambient, kind, *args)

    monkeypatch.setattr(oracle, "build_poset", refusing)
    report = verify.run_verify([3], 2)
    skipped = [(r.params, r.note) for r in report.records
               if r.check == "oracle/poset-ranks" and r.status is Status.SKIPPED]
    assert skipped == [(f"q=3 n={n} kind=lorentzian", "injected") for n in (1, 2)]
    assert report.exit_status == 0


@pytest.mark.parametrize("compare_paper", [True, False])
def test_each_polynomial_cell_derives_its_signs_once(monkeypatch, compare_paper):
    """Every interior cell of class 1 and 3 up to n = 4 (12 in all) reads
    one symmetry report, which makes the cell's one reversal check, and takes
    both signs from it.  Without the paper, each cell reads its reversal sign
    once and no report."""
    calls = Counter()
    for name in ("functional_equation_check", "published_functional_sign",
                 "coefficient_symmetry_report"):
        def counting(key, _name=name, _call=getattr(polyq, name)):
            calls[_name] += 1
            return _call(key)
        monkeypatch.setattr(polyq, name, counting)
    verify.run_verify([3, 5], 4, compare_paper=compare_paper)
    if compare_paper:
        assert calls == {"coefficient_symmetry_report": 12,
                         "functional_equation_check": 12,
                         "published_functional_sign": 12}
    else:
        assert calls == {"functional_equation_check": 12}


@pytest.mark.parametrize("compare_paper", [True, False])
def test_a_sign_that_is_neither_fails_with_its_coefficients(monkeypatch, compare_paper):
    depressed = polyq.depressed_coefficients
    neither = {(3, 3, 1), (1, 4, 2)}

    def replaced(key):
        if (key.q_class, key.n, key.k) in neither:
            return 0, (1, 2)
        return depressed(key)

    monkeypatch.setattr(polyq, "depressed_coefficients", replaced)
    report = verify.run_verify([3, 5], 4, compare_paper=compare_paper)
    got = [(r.check, r.params, r.expected, r.actual, r.status, r.note)
           for r in report.records
           if r.check in ("poly/sign", "poly/symmetry")
           and r.params in ("class=1 n=4 k=2", "class=3 n=3 k=1")]
    want = []
    for params, n, k, q_class, symmetry in (
        ("class=1 n=4 k=2", 4, 2, 1,
         "printed index bound 2 does not match depressed degree 1; "
         "printed symmetry plus vs computed neither"),
        ("class=3 n=3 k=1", 3, 1, 3, "printed symmetry minus vs computed neither"),
    ):
        want.append(("poly/sign", params, "definite sign", "neither", Status.FAIL,
                     f"p_({n},{k}) class {q_class}: depressed coefficients (1, 2) "
                     "are neither palindromic nor anti-palindromic"))
        if compare_paper:
            want.append(("poly/symmetry", params, "printed table consistent",
                         symmetry, Status.PAPER_DISCREPANCY, ""))
    assert got == want
    assert report.exit_status == 1
