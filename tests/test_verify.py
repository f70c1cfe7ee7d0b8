"""Reconciliation runs: how often each enumeration is done."""

from collections import Counter

from dotbinom import oracle, verify
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
