"""Acceptance gate: one test per advertised guarantee, with its time budget.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every expected value here is either produced by the enumeration
oracle inside the test itself or was frozen from an oracle run.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from dotbinom import closed, oracle, polyq, symsets
from dotbinom.closed import Variant
from dotbinom.gf import make_field
from dotbinom.oracle import PosetKind
from dotbinom.polyq import FunctionalSign, PolyFamilyKey
from dotbinom.quadspace import (
    AmbientKind,
    SubspaceClass,
    dot_space,
    lambda_dot_space,
)

FIELD_SIZES = (3, 5, 7, 9, 11, 13)

VARIANT_BY_CELL = {
    (AmbientKind.DOT, SubspaceClass.DOT_TYPE): Variant.DD,
    (AmbientKind.DOT, SubspaceClass.LAMBDA_DOT_TYPE): Variant.DL,
    (AmbientKind.LAMBDA_DOT, SubspaceClass.DOT_TYPE): Variant.LD,
    (AmbientKind.LAMBDA_DOT, SubspaceClass.LAMBDA_DOT_TYPE): Variant.LL,
}


def _field(q):
    p, e = closed.odd_prime_power(q)
    return make_field(p, e)


def _ambient(field, kind, n):
    if kind is AmbientKind.DOT:
        return dot_space(field, n)
    return lambda_dot_space(field, n)


def _unimodal(seq) -> bool:
    descending = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            descending = True
        elif b > a and descending:
            return False
    return True


def _log_concave(seq) -> bool:
    return all(
        seq[i] * seq[i] >= seq[i - 1] * seq[i + 1]
        for i in range(1, len(seq) - 1)
    )


def test_criterion_01_triangle_cli():
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "dotbinom", "triangle", "--q", "5",
         "--rows", "4"],
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "1",
        "1 1",
        "1 2 1",
        "1 15 15 1",
        "1 60 450 60 1",
    ]
    assert elapsed < 1.0, f"triangle command took {elapsed:.2f}s"


def test_criterion_02_closed_forms_match_enumeration():
    t0 = time.perf_counter()
    checked = 0
    for q in FIELD_SIZES:
        field = _field(q)
        for n in range(1, 6):
            for kind in (AmbientKind.DOT, AmbientKind.LAMBDA_DOT):
                ambient = _ambient(field, kind, n)
                for k in range(n + 1):
                    tallies = oracle.count_subspaces_by_class(
                        ambient, k, jobs=4
                    )
                    for klass in (SubspaceClass.DOT_TYPE,
                                  SubspaceClass.LAMBDA_DOT_TYPE):
                        variant = VARIANT_BY_CELL[kind, klass]
                        want = closed.dot_binom_variant(q, n, k, variant)
                        assert tallies[klass] == want, (
                            q, n, k, kind, variant
                        )
                        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == len(FIELD_SIZES) * sum(2 * 2 * (n + 1)
                                             for n in range(1, 6))
    assert elapsed < 120.0, f"variant sweep took {elapsed:.1f}s"


def test_criterion_03_orthogonal_group_orders():
    t0 = time.perf_counter()
    for q, n, order in ((5, 2, 8), (3, 2, 8), (3, 3, 48)):
        ambient = dot_space(_field(q), n)
        found = oracle.enumerate_orthogonal_group(ambient)
        assert found == order
        assert found == 2**n * closed.bracket_factorial(q, n)
        assert found == closed.group_order(q, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"group enumeration took {elapsed:.1f}s"


def test_criterion_04_quotient_identity():
    t0 = time.perf_counter()
    for q in FIELD_SIZES:
        for n in range(2, 9):
            for k in range(1, n):
                assert closed.quotient_identity_check(q, n, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"quotient sweep took {elapsed:.1f}s"


def test_criterion_05_mobius_recursion_matches_poset():
    t0 = time.perf_counter()
    for q in (3, 5):
        field = _field(q)
        seq = closed.mobius_sequence(q, 3)
        assert seq.mu[0] == 1
        for m in range(1, 4):
            snap = oracle.build_poset(
                dot_space(field, m), PosetKind.EUCLIDEAN
            )
            assert oracle.mobius_bottom(snap) == seq.mu[m], (q, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"mobius comparison took {elapsed:.1f}s"


def test_criterion_06_flag_counts():
    t0 = time.perf_counter()
    snap = oracle.build_poset(dot_space(_field(3), 3), PosetKind.EUCLIDEAN)
    assert oracle.count_flags(snap) == 6
    assert closed.bracket_factorial(3, 3) == 6
    snap = oracle.build_poset(dot_space(_field(5), 2), PosetKind.EUCLIDEAN)
    assert oracle.count_flags(snap) == 2
    assert closed.bracket_factorial(5, 2) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"flag counting took {elapsed:.1f}s"


def test_criterion_07_polynomial_suite():
    t0 = time.perf_counter()
    for q_class in (1, 3):
        eval_points = (5, 9, 13) if q_class == 1 else (3, 7, 11)
        for n in range(1, 9):
            for k in range(n + 1):
                key = PolyFamilyKey(q_class, n, k)
                poly = polyq.dot_binom_poly(key)
                assert poly.degree == k * (n - k), key
                if 0 < k < n:
                    assert polyq.leading_coefficient(key) == Fraction(1, 2)
                    sign = polyq.functional_equation_check(key)
                    assert sign in (FunctionalSign.PLUS, FunctionalSign.MINUS)
                    assert polyq.limit_check(key)
                for q in eval_points:
                    assert polyq.eval_consistency(key, q)
    for n in range(17):
        for k in range(n + 1):
            assert closed.limit_value(n, k) == \
                symsets.count_symmetric_ksets(n, k), (n, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"polynomial suite took {elapsed:.1f}s"


def test_criterion_08_row_shape():
    for q in FIELD_SIZES:
        for n in range(1, 9):
            assert closed.shape_checks(q, n).ok, (q, n)
    for q in (3, 5):
        field = _field(q)
        for n in range(1, 5):
            for kind in (PosetKind.EUCLIDEAN, PosetKind.LORENTZIAN):
                ranks = oracle.build_poset(
                    dot_space(field, n), kind
                ).rank_sizes()
                assert ranks == tuple(reversed(ranks)), (q, n, kind)
                assert _unimodal(ranks), (q, n, kind)
                assert _log_concave(ranks), (q, n, kind)


def test_criterion_09_asymptotic_gap():
    t0 = time.perf_counter()
    for q in (101, 1009):
        bound = Fraction(2, q)
        for n in range(2, 7):
            for k in range(1, n):
                assert closed.asymptotic_gap(q, n, k) < bound, (q, n, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"gap sweep took {elapsed:.2f}s"


def test_criterion_10_discrepancy_detection():
    res = subprocess.run(
        [sys.executable, "-m", "dotbinom", "verify", "--q", "3",
         "--max-n", "4", "--compare-paper", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["paper_discrepancy"] > 0

    by_key = {(rec["check"], rec["params"]): rec for rec in payload["checks"]}
    verbatim = by_key[
        "published/line-count", "q=3 n=2 ambient=dot which=spacelike"
    ]
    assert verbatim["status"] == "paper_discrepancy"
    assert verbatim["expected"] == "2"
    assert verbatim["actual"] == "1"

    normative = by_key["oracle/line-count", "q=3 n=2 ambient=dot"]
    assert normative["status"] == "pass"
    subspaces = by_key[
        "oracle/subspace-count", "q=3 n=2 k=1 ambient=dot variant=dd"
    ]
    assert subspaces["status"] == "pass"
