"""Reconciliation runs: how often each enumeration is done."""

from collections import Counter

import pytest

from dotbinom import oracle, verify
from dotbinom.errors import IdentityViolated, Mismatch
from dotbinom.report import Status


def test_each_ambient_and_dimension_is_enumerated_once(monkeypatch):
    count = oracle.count_subspaces_by_class
    calls = Counter()

    def counting(ambient, k, *, budget, jobs):
        calls[ambient, k] += 1
        return count(ambient, k, budget=budget, jobs=jobs)

    monkeypatch.setattr(oracle, "count_subspaces_by_class", counting)
    # budget 20 leaves some cells beyond it: those are tried once as well
    report = verify.run_verify([3, 5], 3, budget=20)
    assert report.count(Status.SKIPPED) > 0
    assert set(calls.values()) == {1}
    # two fields, two ambient kinds, k = 0..n for n = 1..3
    assert len(calls) == 2 * 2 * (2 + 3 + 4)


@pytest.mark.parametrize("error", [Mismatch, IdentityViolated])
def test_a_failed_count_is_reported_and_counted_once(monkeypatch, error):
    count = oracle.count_subspaces_by_class
    calls = Counter()

    def failing(ambient, k, *, budget, jobs):
        calls[ambient.kind, ambient.n, k] += 1
        if (ambient.n, k) == (2, 1):
            raise error("injected")
        return count(ambient, k, budget=budget, jobs=jobs)

    monkeypatch.setattr(oracle, "count_subspaces_by_class", failing)
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
