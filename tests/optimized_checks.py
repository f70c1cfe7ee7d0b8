"""Cells whose range checks must survive ``python -O``.

The block kernel's clipped gathers (poset nodes), the transfer's clipped
table builds and int32 shift tables, the int64 sums of ``mobius_bottom`` and
of the Gram transfer, and the transfer's total check are safe only because of
checks written as statements, not asserts.  This script runs the
cells that reach them and compares each result with its closed form (or, for
``verify``, with the frozen benchmark reference).  It prints one line per
cell and exits 1 if any disagrees:

    PYTHONPATH=src python -O tests/optimized_checks.py

``test_optimized.py`` runs it in the tier-1 suite.
"""

import contextlib
import io
import pathlib
import sys

from dotbinom import cli, closed, oracle
from dotbinom.closed import Variant
from dotbinom.gf import make_field
from dotbinom.quadspace import PosetKind, SubspaceClass, dot_space, lambda_dot_space

REFERENCE = (pathlib.Path(__file__).resolve().parents[1]
             / "bench" / "reference" / "verify-q3-5-7-9-n5.json")
VERIFY_ARGV = ["verify", "--q", "3,5,7,9", "--max-n", "5", "--format", "json"]

_DOT = (dot_space, Variant.DD, Variant.DL)
_LAMBDA = (lambda_dot_space, Variant.LD, Variant.LL)
# (q, n, k, ambient) counts at the default budget, each against its two
# closed forms
COUNT_CELLS = [
    (13, 4, 2, _DOT),
    (167, 3, 2, _LAMBDA),
    (167, 4, 3, _LAMBDA),
    # q=2039, the largest field the table limit admits: indices up to q^2 - 1
    (2039, 2, 1, _DOT),
    (2039, 2, 2, _DOT),
    (2039, 2, 1, _LAMBDA),
    (2039, 2, 2, _LAMBDA),
    (2039, 3, 2, _DOT),
    # q=27's shifts, one of each pair {x, -x}, run over the base-3 digits
    # inside each field index; q=27 n=4 k=2 walks 27^3 states in two groups
    (27, 4, 3, _LAMBDA),
    (27, 4, 3, _DOT),
    (27, 4, 2, _LAMBDA),
    (3, 9, 7, _DOT),
]
# counts beyond the default budget: the row side at k = n - 1, the column
# side on a prime power, and q=3 n=21 k=3 (1.0e26 subspaces), whose walk
# counts on Python ints beyond 2^63
BEYOND_BUDGET_CELLS = [
    (3, 15, 14, _DOT),
    (3, 15, 14, _LAMBDA),
    (27, 3, 1, _LAMBDA),
    (3, 21, 3, _LAMBDA),
]
BEYOND_BUDGET = 10**30
# isometry frame counts beyond verify's default budget: q=5 n=4 recurses on
# column 0, n=3 is the three-column base alone
GROUP_CELLS = [(5, 4), (9, 3)]
GROUP_BUDGET = 10**16


def _field(q):
    return make_field(*closed.odd_prime_power(q))


def verify_reference():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(VERIFY_ARGV)
    same = out.getvalue().encode() == REFERENCE.read_bytes()
    return code == 0 and same, f"verify exit {code}, equals {REFERENCE.name}: {same}"


def poset_q9_n4():
    snap = oracle.build_poset(dot_space(_field(9), 4), PosetKind.EUCLIDEAN, budget=10**6)
    mu, flags = oracle.mobius_bottom(snap), oracle.count_flags(snap)
    ok = (mu, flags) == (20969, closed.bracket_factorial(9, 4))
    return ok, f"q=9 n=4 poset: mobius {mu}, flags {flags}"


def poset_small_chunks():
    """q=3 n=4 poset nodes in blocks of 7 codes: blocks that end mid-digit
    and row 0's codes split over several blocks."""
    saved = oracle._CHUNK
    oracle._CHUNK = 7
    try:
        ranks = oracle.build_poset(dot_space(_field(3), 4), PosetKind.EUCLIDEAN).rank_sizes()
    finally:
        oracle._CHUNK = saved
    want = (1, *(closed.dot_binom_variant(3, 4, k, Variant.DD) for k in range(1, 4)), 1)
    return ranks == want, f"q=3 n=4 poset at _CHUNK 7: ranks {ranks}, closed forms {want}"


def count_cell(q, n, k, ambient, budget=oracle.DEFAULT_BUDGET):
    maker, dot, lam = ambient
    tallies = oracle.count_subspaces_by_class(maker(_field(q), n), k, budget=budget)
    got = (tallies[SubspaceClass.DOT_TYPE], tallies[SubspaceClass.LAMBDA_DOT_TYPE])
    want = (closed.dot_binom_variant(q, n, k, dot), closed.dot_binom_variant(q, n, k, lam))
    return got == want, f"q={q} n={n} k={k} {maker.__name__}: {got}, closed form {want}"


def group_cell(q, n):
    order = oracle.enumerate_orthogonal_group(dot_space(_field(q), n), budget=GROUP_BUDGET)
    want = closed.group_order(q, n)
    return order == want, f"q={q} n={n} group: {order}, closed form {want}"


def group_q9_n3_lambda():
    field = _field(9)
    dot = oracle.enumerate_orthogonal_group(dot_space(field, 3), budget=GROUP_BUDGET)
    lam = oracle.enumerate_orthogonal_group(lambda_dot_space(field, 3), budget=GROUP_BUDGET)
    return lam == dot, f"q=9 n=3 group: lambda-dot {lam}, dot {dot}"


def results():
    """(agrees, line) of each check, computed as it is reached."""
    yield verify_reference()
    yield poset_q9_n4()
    yield poset_small_chunks()
    for cell in COUNT_CELLS:
        yield count_cell(*cell)
    for cell in BEYOND_BUDGET_CELLS:
        yield count_cell(*cell, budget=BEYOND_BUDGET)
    for q, n in GROUP_CELLS:
        yield group_cell(q, n)
    yield group_q9_n3_lambda()


def main() -> int:
    failed = 0
    for ok, line in results():
        failed += not ok
        print(("ok   " if ok else "FAIL ") + line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
