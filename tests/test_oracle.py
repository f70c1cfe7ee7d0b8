"""Enumeration oracle: tallies, posets, groups, and cross-checks."""

import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

from dotbinom import closed, gf, oracle, symsets, verify
from dotbinom.closed import Variant
from dotbinom.errors import (
    BudgetExceeded,
    DotAnalogueError,
    IdentityViolated,
    Mismatch,
    UndefinedForParameters,
)
from dotbinom.gf import SquareClass, make_field
from dotbinom.oracle import PosetKind
from dotbinom.quadspace import (
    AmbientForm,
    AmbientKind,
    SubspaceClass,
    ambient_space,
    bilinear,
    classify,
    contains,
    dot_space,
    full_subspace,
    lambda_dot_space,
    zero_subspace,
)


DIFFERENTIAL_CELLS = [
    (3, 1, 3, dot_space),
    (3, 1, 3, lambda_dot_space),
    (7, 1, 2, dot_space),
    (3, 2, 2, dot_space),
    (3, 2, 2, lambda_dot_space),
    (3, 1, 5, dot_space),
    (3, 1, 5, lambda_dot_space),
    (3, 2, 3, lambda_dot_space),
]


def _assert_counts_and_blocks_match_classify(p, e, n, maker):
    """Counts, and for k >= 1 the posets' every-code blocks, against classify()."""
    field = make_field(p, e)
    ambient = maker(field, n)
    for k in range(n + 1):
        slow = Counter(classify(sub) for sub in oracle.enumerate_subspaces(ambient, k))
        fast = [oracle.count_subspaces_by_class(ambient, k)]
        if k:
            fast.append(_every_code_tallies(ambient, k))
        for tallies in fast:
            for klass in SubspaceClass:
                assert tallies[klass] == slow.get(klass, 0), (p, e, n, k, klass)


@pytest.mark.parametrize("p,e,n,maker", DIFFERENTIAL_CELLS)
def test_fast_tallies_match_object_level_classification(p, e, n, maker):
    """The numpy path must agree with per-subspace classify() exactly."""
    _assert_counts_and_blocks_match_classify(p, e, n, maker)


def test_fast_tallies_match_with_small_chunks_and_digit_groups(monkeypatch):
    """Chunks of 7 codes, which run across pivot patterns in the posets'
    blocks, and shift tables split into several digit groups in the
    transfer's scatter.  The cached tables are cleared before and after, so
    every table of the run is built at the small block."""
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    monkeypatch.setattr(oracle, "_TABLE_BLOCK", 81)
    shift_tables, groups = oracle._shift_tables, Counter()

    def counting(*key):
        tables = shift_tables(*key)
        groups[len(tables)] += 1
        return tables

    monkeypatch.setattr(oracle, "_shift_tables", counting)
    caches = (shift_tables, oracle._state_classes)
    for cache in caches:
        cache.cache_clear()
    try:
        for p, e, n, maker in DIFFERENTIAL_CELLS[-3:]:
            _assert_counts_and_blocks_match_classify(p, e, n, maker)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert max(groups) > 1


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
@pytest.mark.parametrize("q,n,ks,chunk", [
    # the first pivot pattern holds q^(k (n - k)) codes
    (3, 5, range(1, 4), 2),
    (3, 6, [1], 2),
    (5, 4, range(1, 3), 4),
    (9, 3, [1], 8),
    (3, 5, [4], 1),
    (3, 6, [5], 1),  # k = 5: a 4 x 4 Gram block C beside row 0's 2 codes
    (9, 3, [2], 4),
])
def test_fast_tallies_match_when_row_zero_is_split(monkeypatch, q, n, ks, chunk, maker):
    """Poset blocks of a few codes, at k up to 5: the first pivot pattern
    is split over several blocks, and at chunk > 1 blocks run across pivot
    patterns, whose sizes are odd; the count at the same _CHUNK beside them."""
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    ambient = maker(make_field(*closed.odd_prime_power(q)), n)
    for k in ks:
        assert chunk < q ** (n - k)  # the first pattern is split
        slow = _slow_tallies(ambient, k)
        assert _every_code_tallies(ambient, k) == slow, (q, n, k)
        assert oracle.count_subspaces_by_class(ambient, k) == slow, (q, n, k)


def _slow_tallies(ambient, k):
    slow = Counter(classify(sub) for sub in oracle.enumerate_subspaces(ambient, k))
    return {klass: slow.get(klass, 0) for klass in SubspaceClass}


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
@pytest.mark.parametrize("f", [0, 1, 2, 3])
def test_paired_row_list_holds_one_code_of_each_sign_pair(q, f):
    """The shifts x * x^T of a level-f free column, read off the shift
    tables at state 0, are those of one x of each pair {x, -x}: x and -x
    make the same shift, and every nonzero x makes a shift that two vectors
    make, so the shifts are distinct and each stands for two vectors; at
    weight 2 for each and 1 for x = 0, the weights add up to q^f."""
    field = make_field(*closed.odd_prime_power(q))
    groups = oracle._shift_tables(field.p, field.e, f, 1)  # d = 1, at field index 1
    shifts = sum(table[0] for _, _, table in groups) if groups else np.zeros(0)
    elements = list(field.elements())
    made = Counter()
    for x in itertools.product(elements, repeat=f):
        if any(v != field.zero for v in x):
            made[sum(field.index(field.mul(x[a], x[b])) * q ** (oracle._triangle(b) + a)
                     for b in range(f) for a in range(b + 1))] += 1
    assert sorted(shifts.tolist()) == sorted(made)
    assert set(made.values()) <= {2}
    assert 1 + 2 * len(shifts) == q**f


def _every_code_tallies(ambient, k):
    """Tallies of the class arrays of every code, weight 1 each, as build_poset reads them."""
    field = ambient.field
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    counts = np.zeros(3, dtype=np.int64)
    for _, classes in oracle._rank_blocks(field, diag_idx, k):
        counts += np.bincount(classes, minlength=3)
    square, non_square, zero = (oracle._CLASS_CODES[c] for c in (
        SquareClass.SQUARE, SquareClass.NON_SQUARE, SquareClass.ZERO))
    return {SubspaceClass.DOT_TYPE: int(counts[square]),
            SubspaceClass.LAMBDA_DOT_TYPE: int(counts[non_square]),
            SubspaceClass.DEGENERATE: int(counts[zero])}


EVERY_CODE_CELLS = [
    (q, n, k, maker)
    for q in (3, 5, 7, 9, 25, 27)
    for n in range(1, 6)
    for k in range(1, n + 1)
    for maker in (dot_space, lambda_dot_space)
    if closed.gaussian_binom(q, n, k) <= 20_000
]


@pytest.mark.parametrize("chunk,limit", [(None, 20_000), (7, 2_000)])
def test_weighted_tallies_equal_every_code_tallies(monkeypatch, chunk, limit):
    """The transfer, one shift of each pair {x, -x} at weight 2, tallies what
    the posets' blocks of every code tally; at _CHUNK 7 the transfer scatters
    a few live states at a time and the blocks run across pivot patterns."""
    if chunk:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    for q, n, k, maker in EVERY_CODE_CELLS:
        if closed.gaussian_binom(q, n, k) > limit:
            continue
        ambient = maker(make_field(*closed.odd_prime_power(q)), n)
        assert oracle.count_subspaces_by_class(ambient, k) == _every_code_tallies(ambient, k), (
            q, n, k, maker)


@pytest.mark.parametrize("name", ["add", "mul", "neg"])
def test_field_table_entry_beyond_q_is_refused(monkeypatch, name):
    """The oracle's gathers clip, so a table entry >= q is refused where the
    table is built instead of being clamped into a wrong class."""
    build = oracle._arithmetic_tables

    def bad_tables(field):
        tables = dict(zip(("add", "mul", "neg", "log"), build(field)))
        tables[name].flat[-1] = field.q
        return tuple(tables.values())

    monkeypatch.setattr(oracle, "_arithmetic_tables", bad_tables)
    oracle._field_tables.cache_clear()
    try:
        with pytest.raises(IdentityViolated, match="field-index-range"):
            oracle.count_subspaces_by_class(dot_space(make_field(3), 2), 1)
    finally:
        oracle._field_tables.cache_clear()


def test_field_table_range_check_survives_optimize_flag():
    script = "\n".join([
        "import sys",
        "from dotbinom import oracle",
        "from dotbinom.errors import IdentityViolated",
        "from dotbinom.gf import make_field",
        "from dotbinom.quadspace import dot_space",
        "build = oracle._arithmetic_tables",
        "def bad_tables(field):",
        "    add, mul, neg, log = build(field)",
        "    add[2, 2] = 3",
        "    return add, mul, neg, log",
        "oracle._arithmetic_tables = bad_tables",
        "try:",
        "    oracle.count_subspaces_by_class(dot_space(make_field(3), 2), 2)",
        "except IdentityViolated as exc:",
        "    print(sys.flags.optimize, exc.args[0])",
    ])
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1", "field-index-range"]


FULL_TABLE_FIELDS = [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 4)]
# every other field of degree e >= 2 with q <= 2048, checked on three rows
ROW_FIELDS = [(p, e) for e in (2, 3, 4) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
              if p**e <= 2048 and (p, e) not in FULL_TABLE_FIELDS]


@pytest.mark.parametrize("p,e", FULL_TABLE_FIELDS + ROW_FIELDS)
def test_field_tables_match_field_arithmetic(p, e):
    """Every entry of the small tables, and three seeded rows of add and mul
    of every other extension field up to q = 2048, against FieldSpec."""
    field = make_field(p, e)
    add, mul, neg, klass = oracle._field_tables.__wrapped__(p, e)
    assert (add.dtype, mul.dtype, neg.dtype, klass.dtype) == (np.intp,) * 3 + (np.int8,)
    assert add.shape == mul.shape == (field.q, field.q)
    codes = {SquareClass.ZERO: 0, SquareClass.SQUARE: 1, SquareClass.NON_SQUARE: 2}
    elems = list(field.elements())
    for i, a in enumerate(elems):
        assert neg[i] == field.index(field.neg(a))
        assert klass[i] == codes[field.square_class(a)]
    if (p, e) in FULL_TABLE_FIELDS:
        rows = range(field.q)
    else:
        rows = np.random.default_rng(field.q).choice(field.q, 3, replace=False).tolist()
    assert (add == add.T).all() and (mul == mul.T).all()
    for i in rows:
        a = elems[i]
        assert add[i].tolist() == [field.index(field.add(a, b)) for b in elems], a
        assert mul[i].tolist() == [field.index(field.mul(a, b)) for b in elems], a


def test_field_tables_refuse_orders_beyond_uint16(monkeypatch):
    def no_field(p, e=1):
        raise AssertionError("the field was built")

    monkeypatch.setattr(oracle, "make_field", no_field)
    with pytest.raises(BudgetExceeded, match="65537"):
        oracle._field_tables(65537, 1)


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (7, 3), (3, 4), (2039, 1)])
def test_every_log_sum_indexes_the_doubled_power_cycle(p, e):
    """mul[a, b] is ext[log a + log b], ext being the power cycle twice and
    then zeros, 4q - 3 entries: log 0 = 2q - 2 sends every sum with a zero
    past the cycles, and the largest sum, 4q - 4, is ext's last entry.  The
    entry limit alone refuses every q of 2^16 or more, and keeps the int32
    row build, below 2 e p^2 <= 2 q^2, exact."""
    q = p**e
    *_, log = oracle._arithmetic_tables(make_field(p, e))
    assert sorted(log[1:].tolist()) == list(range(q - 1))
    assert log[0] == 2 * q - 2 and 2 * log.max() == 4 * q - 4
    limit = math.isqrt(oracle._MAX_TABLE_ENTRIES)
    assert limit <= 0xFFFF and 2 * limit * limit < 2**31
    with pytest.raises(BudgetExceeded):
        oracle._price_tables(1 << 16)


RING_SCRIPT = "\n".join([
    "import sys",
    "from dotbinom import gf, oracle",
    "from dotbinom.errors import IdentityViolated",
    "ring = gf.FieldSpec(3, 2)",
    "ring.modulus = (2, 0, 1)",
    "oracle.make_field = lambda p, e=1: ring",
    "try:",
    "    oracle._field_tables(3, 2)",
    "except IdentityViolated as exc:",
    "    print(sys.flags.optimize, *exc.args)",
])


def test_field_tables_refuse_a_ring_without_a_primitive_element(monkeypatch):
    """x^2 - 1 is reducible over GF(3): GF(3)[x] / (x^2 - 1) has units of
    order at most 2, so no element's powers cover the 8 nonzero indices."""
    ring = gf.FieldSpec(3, 2)
    ring.modulus = (2, 0, 1)
    monkeypatch.setattr(oracle, "make_field", lambda p, e=1: ring)
    with pytest.raises(IdentityViolated, match="primitive-element"):
        oracle._field_tables.__wrapped__(3, 2)


def test_primitive_element_check_survives_optimize_flag():
    res = subprocess.run([sys.executable, "-O", "-c", RING_SCRIPT],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "1 primitive-element (3, 2) (2, 0, 1)\n"


def test_shift_tables_hold_no_intp_temporary_of_their_size():
    """The int32 shift tables are gathered from add a block of rows at a
    time: at q = 157, j = 2 the traced peak stays within 2 MB of the bytes
    kept (it measured 1.1 MB above them)."""
    oracle._field_tables(157, 1)
    tracemalloc.start()
    try:
        groups = oracle._shift_tables.__wrapped__(157, 1, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(table.nbytes for _, _, table in groups)
    assert peak - kept < 2 << 20, (peak, kept)


def _closed_tallies(q, n, k, maker):
    dot_variant, lambda_variant = {
        dot_space: (Variant.DD, Variant.DL), lambda_dot_space: (Variant.LD, Variant.LL),
    }[maker]
    dot = closed.dot_binom_variant(q, n, k, dot_variant)
    lam = closed.dot_binom_variant(q, n, k, lambda_variant)
    return {
        SubspaceClass.DOT_TYPE: dot,
        SubspaceClass.LAMBDA_DOT_TYPE: lam,
        SubspaceClass.DEGENERATE: closed.gaussian_binom(q, n, k) - dot - lam,
    }


def test_oracle_runs_with_every_other_closed_form_raising(monkeypatch):
    """The oracle counts from definitions: with every public closed-form
    function but gaussian_binom made to raise, counts, both posets and the
    isometry group still come out, equal to the closed forms read first."""
    q, n = 5, 3
    field = make_field(q)
    want_counts = {maker: {(m, k): _closed_tallies(q, m, k, maker)
                           for m in range(1, n + 1) for k in range(m + 1)}
                   for maker in (dot_space, lambda_dot_space)}
    want_ranks = {kind: (1, *(closed.dot_binom_variant(q, n, k, variant)
                              for k in range(1, n)), 1)
                  for kind, variant in ((PosetKind.EUCLIDEAN, Variant.DD),
                                        (PosetKind.LORENTZIAN, Variant.DL))}
    want_flags = closed.bracket_factorial(q, n)
    want_mu = closed.mobius_sequence(q, n).mu[n]
    want_order = closed.group_order(q, n)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read a closed form")

    patched = [name for name, value in vars(closed).items()
               if callable(value) and getattr(value, "__module__", None) == closed.__name__
               and not isinstance(value, type) and not name.startswith("_")
               and name != "gaussian_binom"]
    assert "dot_binom" in patched and "limit_value" in patched
    for name in patched:
        monkeypatch.setattr(closed, name, refuse)
    for maker, want in want_counts.items():
        assert oracle.count_table(field, maker(field, 1).kind, n) == want, maker
    ambient = dot_space(field, n)
    for kind, want in want_ranks.items():
        snap = oracle.build_poset(ambient, kind)
        assert snap.rank_sizes() == want, kind
        if kind is PosetKind.EUCLIDEAN:
            assert oracle.count_flags(snap) == want_flags
            assert oracle.mobius_bottom(snap) == want_mu
    assert oracle.enumerate_orthogonal_group(ambient) == want_order


@pytest.mark.parametrize("q", [3, 5, 9])
def test_blocks_counts_and_poset_nodes_match_object_level_up_to_k_4(q):
    """Every-code block tallies at k = 2, 3, 4 and poset nodes, over fields
    where -1 is a non-square (q = 3) and a square (q = 5, 9).  Counts run
    beside them.

    Tallies are checked against classify() up to 2000 subspaces and against
    the closed form beyond (q = 9: n = 4, k = 2 and n = 5, k = 4).
    """
    field = make_field(*closed.odd_prime_power(q))
    for maker in (dot_space, lambda_dot_space):
        for n, k in [(4, 2), (4, 3), (5, 4)]:
            ambient = maker(field, n)
            if closed.gaussian_binom(q, n, k) <= 2000:
                expected = _slow_tallies(ambient, k)
            else:
                expected = _closed_tallies(q, n, k, maker)
            assert _every_code_tallies(ambient, k) == expected, (q, n, k)
            assert oracle.count_subspaces_by_class(ambient, k) == expected, (q, n, k)
        _assert_poset_nodes_match_objects(q, {3: 5, 5: 4, 9: 3}[q], maker)


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
def test_one_subspace_at_q_157_is_counted_in_under_q_squared_bytes(maker):
    """q = 157, n = 2, k = 2 is one subspace: its block of one code is
    classified, and counted, beside the warm field tables without building
    any table of q^2 entries, let alone q^3."""
    ambient = maker(make_field(157), 2)
    oracle._field_tables(157, 1)
    tracemalloc.start()
    try:
        tallies = [_every_code_tallies(ambient, 2), oracle.count_subspaces_by_class(ambient, 2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tallies == [_closed_tallies(157, 2, 2, maker)] * 2
    assert peak < 157**2, peak


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
def test_blocks_and_counts_at_q_167_match_closed_form(maker):
    """q = 167, n = 3, k = 2 against the closed forms (167^3 > 2^22), in
    blocks and counted."""
    ambient = maker(make_field(167), 3)
    assert _every_code_tallies(ambient, 2) == _closed_tallies(167, 3, 2, maker)
    assert oracle.count_subspaces_by_class(ambient, 2) == _closed_tallies(167, 3, 2, maker)


def test_count_lines_frozen():
    f3, f5 = make_field(3), make_field(5)
    assert oracle.count_lines(dot_space(f5, 2)) == (2, 2, 2)
    assert oracle.count_lines(dot_space(f3, 2)) == (2, 2, 0)
    assert oracle.count_lines(dot_space(f3, 3)) == (3, 6, 4)
    assert oracle.count_lines(lambda_dot_space(f3, 2)) == (1, 1, 2)


def test_tallies_sum_to_gaussian_binomial():
    field = make_field(5)
    ambient = dot_space(field, 4)
    for k in range(5):
        tallies = oracle.count_subspaces_by_class(ambient, k)
        assert sum(tallies.values()) == closed.gaussian_binom(5, 4, k)


def test_jobs_do_not_change_tallies():
    """``jobs`` is accepted and ignored: the benchmark still passes it."""
    ambient = lambda_dot_space(make_field(7), 3)
    serial = [oracle.count_subspaces_by_class(ambient, k, jobs=1) for k in range(4)]
    for k in range(4):
        assert oracle.count_subspaces_by_class(ambient, k, jobs=3) == serial[k]


def test_small_isometry_scans_run_without_a_pool():
    """q=3 n=4 is priced at 43 M candidate matrices, yet the frame count,
    like every count, runs in-process: nothing loads a process pool."""
    script = "\n".join([
        "import sys",
        "from dotbinom import oracle",
        "from dotbinom.gf import make_field",
        "from dotbinom.quadspace import dot_space",
        "order = oracle.enumerate_orthogonal_group(dot_space(make_field(3), 4), budget=10**8)",
        "print(order, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)",
    ])
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1152", "False", "False"]


def test_budget_is_enforced():
    field = make_field(13)
    ambient = dot_space(field, 5)
    with pytest.raises(BudgetExceeded):
        oracle.count_subspaces_by_class(ambient, 2, budget=1000)
    with pytest.raises(BudgetExceeded):
        oracle.enumerate_orthogonal_group(ambient, budget=1000)
    with pytest.raises(BudgetExceeded):
        oracle.build_poset(ambient, PosetKind.EUCLIDEAN, budget=1000)


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
def test_a_lost_count_is_a_mismatch_at_every_entry_point(monkeypatch, maker):
    """A walk that loses one count of every level after column 3 makes each
    cell read there a Mismatch: a count_table cell, and raised by
    count_subspaces_by_class and full_count_report.  k = 0 reads no walk,
    and every cell of another column is the unpatched table's."""
    field = make_field(5)
    kind = maker(field, 1).kind
    clean = oracle.count_table(field, kind, 4)
    walk = oracle._transfer_counts

    def lossy(p, e, diag, reads):
        for c, levels in enumerate(walk(p, e, diag, reads), 1):
            if c == 3:  # copies: the walk goes on from its own counts
                levels = {j: counts.copy() for j, counts in levels.items()}
                for counts in levels.values():
                    counts[np.flatnonzero(counts)[0]] -= 1
            yield levels

    monkeypatch.setattr(oracle, "_transfer_counts", lossy)
    table = oracle.count_table(field, kind, 4)
    assert sorted(table) == sorted(clean)
    lost = {}
    for (n, k), cell in table.items():
        if n == 3 and k:
            total = closed.gaussian_binom(5, 3, k)
            lost[k] = f"{total - 1} subspaces tallied at (q=5, n=3, k={k}), expected {total}"
            assert (type(cell), str(cell)) == (Mismatch, lost[k]), k
        else:
            assert cell == clean[n, k], (n, k)
    assert sorted(lost) == [1, 2, 3]
    ambient = maker(field, 3)
    for k, message in lost.items():
        with pytest.raises(Mismatch, match=f"^{re.escape(message)}$"):
            oracle.count_subspaces_by_class(ambient, k)
    with pytest.raises(Mismatch, match=f"^{re.escape(lost[1])}$"):
        oracle.full_count_report(ambient)


# every cell up to n = 6 and 200 000 subspaces: read at level k for
# k <= n / 2, at level n - k above
OVERLAP_CELLS = [
    (q, n, k, maker)
    for q in (3, 5, 7, 9, 11, 13, 25, 27)
    for n in range(1, 7)
    for k in range(1, n + 1)
    for maker in (dot_space, lambda_dot_space)
    if closed.gaussian_binom(q, n, k) <= 200_000
]


def test_transfer_matches_every_code_blocks_at_level_k_and_n_minus_k():
    """The transfer and the posets' every-code block classification agree on
    every cell, both ambients, at level k and at level n - k."""
    assert {2 * k <= n for _, n, k, _ in OVERLAP_CELLS} == {True, False}
    assert {q for q, *_ in OVERLAP_CELLS} == {3, 5, 7, 9, 11, 13, 25, 27}
    for q, n, k, maker in OVERLAP_CELLS:
        ambient = maker(make_field(*closed.odd_prime_power(q)), n)
        assert oracle.count_subspaces_by_class(ambient, k) == _every_code_tallies(ambient, k), (
            q, n, k, maker)


@pytest.mark.parametrize("q,n,k", [(27, 4, 2), (5, 5, 2), (7, 3, 1), (9, 5, 3)])
def test_lambda_dot_walk_builds_only_the_shift_tables_of_one(monkeypatch, q, n, k):
    """The walk takes the lone lambda column first, where nothing scatters,
    whether the count is read at level k (k <= n / 2) or at level n - k."""
    built = []
    tables = oracle._shift_tables

    def spy(p, e, j, d):
        built.append(d)
        return tables(p, e, j, d)

    monkeypatch.setattr(oracle, "_shift_tables", spy)
    ambient = lambda_dot_space(make_field(*closed.odd_prime_power(q)), n)
    assert oracle.count_subspaces_by_class(ambient, k) == _closed_tallies(q, n, k, lambda_dot_space)
    assert set(built) == {1}  # the field index of 1


def test_count_refuses_a_state_array_beyond_the_table_limit(monkeypatch):
    """q=163 n=4 k=2 walks q^3 = 4330747 states at level 2, past 2^22: it is
    refused before any table is built, whatever the budget; q=157 fits."""

    def no_tables(p, e):
        raise AssertionError("field tables were built")

    monkeypatch.setattr(oracle, "_field_tables", no_tables)
    ambient = dot_space(make_field(163), 4)
    with pytest.raises(BudgetExceeded, match=(
            r"Gram transfer states of 4330747 entries at \(q=163, n=4, k=2\) "
            r"exceed the limit of 4194304 entries")):
        oracle.count_subspaces_by_class(ambient, 2, budget=10**9)
    field = make_field(157)
    assert oracle._walk_level(157, tuple(field.index(d) for d in
                                         dot_space(field, 4).gram_diag), 2) == 2


@pytest.mark.parametrize("n", [3, 4])
def test_zero_diagonal_entry_is_read_at_level_k(n):
    """A hand-built ambient with a zero diagonal entry is degenerate, so
    orthogonal complements do not pair its k- and (n - k)-subspaces: every
    k is read at level k, and agrees with classify()."""
    field = make_field(3)
    diag = (field.one, field.zero) + (field.one,) * (n - 2)
    ambient = AmbientForm(field, n, AmbientKind.DOT, diag)
    diag_idx = tuple(field.index(d) for d in diag)
    for k in range(n + 1):
        assert oracle._walk_level(3, diag_idx, k) == k
        assert oracle.count_subspaces_by_class(ambient, k) == _slow_tallies(ambient, k), k


# hand-built diagonals as powers of the field's lambda: several entries
# other than 1, squares among them, in no sorted order; the product is a
# square at an even total power and a non-square at an odd one
HAND_BUILT_POWERS = [(0, 2, 1), (3, 2, 1), (1, 0, 1, 2), (0, 1, 1, 1), (2, 0, 0, 3)]


@pytest.mark.parametrize("q", [5, 7, 9])
def test_hand_built_diagonals_match_object_level_classification(q):
    """Every k of diagonals with several entries other than 1, which no CLI
    ambient has: the sorted walk, and for k > n / 2 the class swap under a
    non-square product, against classify()."""
    field = make_field(*closed.odd_prime_power(q))
    powers = [field.one]
    for _ in range(3):
        powers.append(field.mul(powers[-1], field.lambda_))
    # q=9 n=4 would classify 7462 planes one object at a time
    cells = [exponents for exponents in HAND_BUILT_POWERS
             if closed.gaussian_binom(q, len(exponents), 2) <= 3000]
    assert {sum(exponents) % 2 for exponents in cells} == {0, 1}
    for exponents in cells:
        n = len(exponents)
        ambient = AmbientForm(field, n, AmbientKind.DOT, tuple(powers[a] for a in exponents))
        for k in range(n + 1):
            assert oracle.count_subspaces_by_class(ambient, k) == _slow_tallies(ambient, k), (
                exponents, k)


@pytest.mark.parametrize("q", [5, 7])
def test_low_and_high_k_walk_the_ambient_diagonal(monkeypatch, q):
    """lambda^-1 differs from lambda at q = 5 and 7, yet every k of a
    lambda-dot ambient, k <= n / 2 or above, walks the diagonal (lambda, 1,
    1, 1, 1), and its report reads every k off a single walk of it."""
    field = make_field(q)
    ambient = lambda_dot_space(field, 5)
    lam = field.index(field.lambda_)
    assert field.index(field.inv(field.lambda_)) != lam
    walk = oracle._transfer_counts
    walks = []

    def spy(p, e, diag, reads):
        walks.append(diag)
        return walk(p, e, diag, reads)

    monkeypatch.setattr(oracle, "_transfer_counts", spy)
    for k in range(1, 6):
        assert oracle.count_subspaces_by_class(ambient, k) == _closed_tallies(
            q, 5, k, lambda_dot_space), k
    assert walks == [(lam, 1, 1, 1, 1)] * 5
    walks.clear()
    oracle.full_count_report(lambda_dot_space(field, 4))
    assert walks == [(lam, 1, 1, 1)]


def test_transfer_counts_on_python_ints_beyond_the_limit(monkeypatch):
    """At limit 0 every walk counts on object arrays, with the same tallies;
    q=3 n=21 k=3 (1.0e26 subspaces) is past 2^63 at the default limit."""
    dtypes = []
    walk = oracle._transfer_counts

    def spy(p, e, diag, reads):
        (_, m), = reads  # a single count reads one level, after the last column
        for levels in walk(p, e, diag, reads):
            yield levels
        dtypes.append(levels[m].dtype)

    monkeypatch.setattr(oracle, "_transfer_counts", spy)
    ambient = lambda_dot_space(make_field(3), 21)
    assert oracle.count_subspaces_by_class(ambient, 3, budget=10**30) == (
        _closed_tallies(3, 21, 3, lambda_dot_space))
    assert dtypes == [object]
    cells = [(3, 6, 2), (5, 5, 3), (9, 4, 1), (3, 7, 5), (7, 3, 3)]
    fields = {q: make_field(*closed.odd_prime_power(q)) for q, _, _ in cells}
    int64 = [oracle.count_subspaces_by_class(dot_space(fields[q], n), k) for q, n, k in cells]
    monkeypatch.setattr(oracle, "_INT64_LIMIT", 0)
    dtypes.clear()
    for (q, n, k), want in zip(cells, int64):
        for maker in (dot_space, lambda_dot_space):
            tallies = oracle.count_subspaces_by_class(maker(fields[q], n), k)
            assert tallies == _closed_tallies(q, n, k, maker), (q, n, k, maker)
        assert oracle.count_subspaces_by_class(dot_space(fields[q], n), k) == want
    assert dtypes == [object] * 3 * len(cells)


@pytest.mark.parametrize("n,k", [(36, 1), (37, 36)])
def test_transfer_counts_past_float64_precision_exactly(monkeypatch, n, k):
    """q=3 k=1 or n - 1 walks 3 states, each of count near 3^n / 6, past
    2^53 yet on int64: the scatter adds them exactly, as a float64 sum such
    as np.bincount's would not."""
    dtypes = []
    walk = oracle._transfer_counts

    def spy(p, e, diag, reads):
        (_, m), = reads  # a single count reads one level, after the last column
        for levels in walk(p, e, diag, reads):
            yield levels
        dtypes.append(levels[m].dtype)
        assert levels[m].max() > 2**53

    monkeypatch.setattr(oracle, "_transfer_counts", spy)
    for maker in (dot_space, lambda_dot_space):
        ambient = maker(make_field(3), n)
        tallies = oracle.count_subspaces_by_class(ambient, k, budget=10**30)
        assert tallies == _closed_tallies(3, n, k, maker), maker
    assert dtypes == [np.int64] * 2


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
def test_k_near_n_is_read_at_level_n_minus_k_in_little_memory(maker):
    """q=3 n=15 k=14 has 7.2 M subspaces, inside the default budget; they
    are read at level n - k = 1, 3 states, where every code's minors at k = 14
    would take some 3 GB."""
    ambient = maker(make_field(3), 15)
    oracle.count_subspaces_by_class(maker(make_field(3), 3), 2)  # build the field tables
    tracemalloc.start()
    try:
        tallies = oracle.count_subspaces_by_class(ambient, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tallies == _closed_tallies(3, 15, 14, maker)
    assert peak < 64 * 1024, peak


def test_enumerate_subspaces_is_canonical_and_complete():
    field = make_field(3)
    ambient = dot_space(field, 3)
    for k in range(4):
        subs = list(oracle.enumerate_subspaces(ambient, k))
        assert len(subs) == closed.gaussian_binom(3, 3, k)
        assert len(set(subs)) == len(subs)
        for sub in subs:
            assert sub.k == k
    with pytest.raises(UndefinedForParameters):
        list(oracle.enumerate_subspaces(ambient, 4))


def test_orthogonal_group_frozen():
    f3, f5 = make_field(3), make_field(5)
    assert oracle.enumerate_orthogonal_group(dot_space(f5, 2)) == 8
    assert oracle.enumerate_orthogonal_group(dot_space(f3, 2)) == 8
    assert oracle.enumerate_orthogonal_group(dot_space(f3, 3)) == 48


@pytest.mark.parametrize(
    "q,n,maker",
    [(3, 2, dot_space), (3, 2, lambda_dot_space), (5, 2, lambda_dot_space), (9, 2, dot_space),
     (3, 3, lambda_dot_space)],
)
def test_orthogonal_group_matches_object_level_scan(q, n, maker):
    """The frame count against a scan of every matrix, by direct matrix
    arithmetic weighted by gram_diag."""
    field = make_field(*closed.odd_prime_power(q))
    ambient = maker(field, n)
    diag = ambient.gram_diag
    found = 0
    for entries in itertools.product(list(field.elements()), repeat=n * n):
        columns = [entries[i::n] for i in range(n)]  # columns[i][t] = M[t, i]
        found += all(
            bilinear(ambient, columns[i], columns[j]) == (diag[i] if i == j else field.zero)
            for i in range(n)
            for j in range(n)
        )
    assert found == oracle.enumerate_orthogonal_group(ambient)


def test_orthogonal_group_q3_n4_scans_43m_candidates():
    ambient = dot_space(make_field(3), 4)
    assert oracle.enumerate_orthogonal_group(ambient, budget=10**8) == 1152


def test_orthogonal_group_matches_closed_form():
    """q=5 n=4, q=7 n=3 and q=9 n=3 are priced at 4e7 to 1.5e11 candidate
    matrices, beyond the default budget of 10^7."""
    for q, n in ((3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (9, 2), (5, 4), (7, 3), (9, 3)):
        p, e = closed.odd_prime_power(q)
        ambient = dot_space(make_field(p, e), n)
        assert oracle.enumerate_orthogonal_group(ambient, budget=10**16) == closed.group_order(q, n)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_lambda_dot_group_equals_dot_group_in_odd_dimension(q):
    """At odd n, lambda times the dot form is similar to the lambda-dot form,
    and scaling a form keeps its isometries: O(lambda-dot) = O(dot)."""
    field = make_field(*closed.odd_prime_power(q))
    orders = [oracle.enumerate_orthogonal_group(maker(field, 3), budget=10**16)
              for maker in (dot_space, lambda_dot_space)]
    assert orders[0] == orders[1] == closed.group_order(q, 3)


def test_frame_count_arrays_are_priced_before_they_are_built(monkeypatch):
    """q = 47, n = 3 is within a budget of 10^16 candidates, but its pair
    arrays of about 47^4 entries exceed the table limit."""

    def no_tables(p, e):
        raise AssertionError("field tables were built")

    monkeypatch.setattr(oracle, "_field_tables", no_tables)
    ambient = dot_space(make_field(47), 3)
    with pytest.raises(BudgetExceeded, match=f"frame count arrays of {47**4} entries"):
        oracle.enumerate_orthogonal_group(ambient, budget=10**16)


def test_lambda_witness_choice_is_irrelevant():
    """Any non-square witness yields the same tallies."""
    for q in (5, 7, 9):
        p, e = closed.odd_prime_power(q)
        field = make_field(p, e)
        default = field.lambda_
        others = [
            a for a in field.elements()
            if field.square_class(a) is SquareClass.NON_SQUARE and a != default
        ]
        alt = others[0]
        for n in (2, 3):
            base = lambda_dot_space(field, n)
            twisted = lambda_dot_space(field, n, lam=alt)
            for k in range(n + 1):
                assert oracle.count_subspaces_by_class(
                    base, k
                ) == oracle.count_subspaces_by_class(twisted, k), (q, n, k)


def test_euclidean_poset_structure():
    f5 = make_field(5)
    snap = oracle.build_poset(dot_space(f5, 2), PosetKind.EUCLIDEAN)
    assert snap.rank_sizes() == (1, 2, 1)
    subs = [sub for sub, _ in snap.nodes]
    ranks = [rank for _, rank in snap.nodes]
    for lo, hi in snap.hasse_edges:
        assert ranks[hi] == ranks[lo] + 1
        assert contains(subs[hi], subs[lo])
    assert len(snap.hasse_edges) == 2 + 2


def test_lorentzian_poset_frozen():
    f3 = make_field(3)
    assert oracle.build_poset(
        dot_space(f3, 2), PosetKind.LORENTZIAN
    ).rank_sizes() == (1, 2, 1)
    assert oracle.build_poset(
        dot_space(f3, 4), PosetKind.LORENTZIAN
    ).rank_sizes() == (1, 12, 72, 12, 1)


def test_flag_counts_frozen():
    f3, f5 = make_field(3), make_field(5)
    e33 = oracle.build_poset(dot_space(f3, 3), PosetKind.EUCLIDEAN)
    assert oracle.count_flags(e33) == 6 == closed.bracket_factorial(3, 3)
    e25 = oracle.build_poset(dot_space(f5, 2), PosetKind.EUCLIDEAN)
    assert oracle.count_flags(e25) == 2 == closed.bracket_factorial(5, 2)


def test_flag_count_matches_explicit_chain_enumeration():
    """Dynamic programming over edges versus a direct maximal-chain walk."""
    f3 = make_field(3)
    snap = oracle.build_poset(dot_space(f3, 3), PosetKind.EUCLIDEAN)
    subs = [sub for sub, _ in snap.nodes]
    by_rank = {}
    for idx, (_, rank) in enumerate(snap.nodes):
        by_rank.setdefault(rank, []).append(idx)
    chains = 0
    for line in by_rank[1]:
        for plane in by_rank[2]:
            chains += contains(subs[plane], subs[line])
    assert chains == oracle.count_flags(snap) == 6


def test_flags_undefined_for_lorentzian():
    f3 = make_field(3)
    lo = oracle.build_poset(dot_space(f3, 2), PosetKind.LORENTZIAN)
    with pytest.raises(UndefinedForParameters):
        oracle.count_flags(lo)


def test_poset_mobius_matches_recursion():
    for q in (3, 5):
        field = make_field(q)
        for n in range(1, 4):
            snap = oracle.build_poset(dot_space(field, n), PosetKind.EUCLIDEAN)
            assert oracle.mobius_bottom(snap) == closed.mobius_sequence(q, n).mu[n]
    # dimension four needs the recursion to leave the alternating pattern
    f3 = make_field(3)
    snap = oracle.build_poset(dot_space(f3, 4), PosetKind.EUCLIDEAN)
    assert oracle.mobius_bottom(snap) == 5 == closed.mobius_sequence(3, 4).mu[4]


POSET_NODE_CELLS = [
    (3, 4, dot_space),
    (5, 3, dot_space),
    (9, 3, dot_space),
    (5, 3, lambda_dot_space),
]


def _assert_poset_nodes_match_objects(q, n, maker):
    ambient = maker(make_field(*closed.odd_prime_power(q)), n)
    wanted = {
        PosetKind.EUCLIDEAN: SubspaceClass.DOT_TYPE,
        PosetKind.LORENTZIAN: SubspaceClass.LAMBDA_DOT_TYPE,
    }
    for kind, klass in wanted.items():
        expected = (
            [(zero_subspace(ambient), 0)]
            + [
                (sub, k)
                for k in range(1, n)
                for sub in oracle.enumerate_subspaces(ambient, k)
                if classify(sub) is klass
            ]
            + [(full_subspace(ambient), n)]
        )
        assert list(oracle.build_poset(ambient, kind).nodes) == expected, (q, n, kind)


@pytest.mark.parametrize("q,n,maker", POSET_NODE_CELLS)
def test_poset_nodes_match_object_level_classification(q, n, maker):
    """Block-classified nodes equal classify() over enumerate_subspaces, in order."""
    _assert_poset_nodes_match_objects(q, n, maker)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3), (9, 2)])
def test_poset_summaries_make_no_subspace_until_nodes_are_read(monkeypatch, q, n):
    """Rank sizes, flags and Mobius values read the rank arrays alone; the
    nodes are made on first read, equal to classify() over enumerate_subspaces."""
    made = []
    new = oracle.Subspace.__new__

    def counting(cls, *args):
        made.append(1)
        return new(cls, *args)

    ambient = dot_space(make_field(*closed.odd_prime_power(q)), n)
    monkeypatch.setattr(oracle.Subspace, "__new__", counting)
    snap = oracle.build_poset(ambient, PosetKind.EUCLIDEAN)
    summaries = snap.rank_sizes(), oracle.count_flags(snap), oracle.mobius_bottom(snap)
    assert made == []
    assert summaries[1:] == (closed.bracket_factorial(q, n), closed.mobius_sequence(q, n).mu[n])
    expected = [(zero_subspace(ambient), 0)] + [
        (sub, k) for k in range(1, n) for sub in oracle.enumerate_subspaces(ambient, k)
        if classify(sub) is SubspaceClass.DOT_TYPE
    ] + [(full_subspace(ambient), n)]
    made.clear()
    assert list(snap.nodes) == expected
    assert len(made) == len(expected) and snap.nodes is snap.nodes
    assert tuple(Counter(k for _, k in expected)[k] for k in range(n + 1)) == summaries[0]


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3), (9, 2)])
def test_poset_equality_hash_and_export_make_no_subspace(monkeypatch, tmp_path, q, n):
    """Equality and hash read the ambient, kind and row codes, and edge
    labels are the row codes' base-p digits, so none of them makes a node."""
    made = []
    new = oracle.Subspace.__new__

    def counting(cls, *args):
        made.append(1)
        return new(cls, *args)

    ambient = dot_space(make_field(*closed.odd_prime_power(q)), n)
    monkeypatch.setattr(oracle.Subspace, "__new__", counting)
    snap, again = (oracle.build_poset(ambient, PosetKind.EUCLIDEAN) for _ in range(2))
    assert snap == again and hash(snap) == hash(again)
    oracle.export_hasse(snap, str(tmp_path / "hasse.txt"))
    assert made == []


def test_snapshots_with_other_nodes_compare_unequal():
    """q = 3, n = 2: both posets have two lines and the same edge indices, so
    only their nodes tell a relabelled Euclidean poset from the Lorentzian one."""
    ambient = dot_space(make_field(3), 2)
    euclid, lorentz = (oracle.build_poset(ambient, kind) for kind in PosetKind)
    relabelled = dataclasses.replace(euclid, poset_kind=PosetKind.LORENTZIAN)
    assert relabelled.hasse_edges == lorentz.hasse_edges
    assert relabelled.rank_sizes() == lorentz.rank_sizes()
    assert relabelled != lorentz
    again = oracle.build_poset(ambient, PosetKind.EUCLIDEAN)
    assert again == euclid and hash(again) == hash(euclid)


def test_poset_nodes_match_with_small_chunks(monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    _assert_poset_nodes_match_objects(3, 4, dot_space)


def _containment_matrix(snap):
    """[i, j] is True when node i lies in node j, read off the per-rank arrays."""
    inside = np.eye(len(snap.nodes), dtype=bool)
    layers = snap.layers
    for r in range(1, len(layers)):
        upper = layers[r]
        for first, blocks in oracle._containment(upper, layers[:r]):
            hi = slice(upper.start + first, upper.start + first + len(blocks[0]))
            for lower, block in zip(layers[:r], blocks):
                inside[lower.start:lower.start + lower.size, hi] = block.T
    return inside


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3)])
@pytest.mark.parametrize("kind", list(PosetKind))
def test_mask_containment_matches_object_level(q, n, kind):
    """Containment from the packed per-rank vector sets equals contains() on every node pair."""
    snap = oracle.build_poset(dot_space(make_field(q), n), kind)
    subs = [sub for sub, _ in snap.nodes]
    inside = _containment_matrix(snap)
    for i, small in enumerate(subs):
        for j, big in enumerate(subs):
            assert inside[i, j] == contains(big, small), (small, big)


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("q,n", [(3, 4), (5, 3)])
@pytest.mark.parametrize("kind", list(PosetKind))
def test_hasse_edges_match_pairwise_rule(monkeypatch, q, n, kind, small_blocks):
    """Edges equal the pairwise rule over adjacent present ranks: upper node in
    order, then lower node in order, tested with contains()."""
    if small_blocks:
        monkeypatch.setattr(oracle, "_CHUNK", 7)
        monkeypatch.setattr(oracle, "_INCIDENCE_ENTRIES", 1)  # one upper node per block
    snap = oracle.build_poset(dot_space(make_field(q), n), kind)
    by_rank = {}
    for idx, (_, rank) in enumerate(snap.nodes):
        by_rank.setdefault(rank, []).append(idx)
    ranks = sorted(by_rank)
    expected = [
        (lo, hi)
        for lo_rank, hi_rank in zip(ranks, ranks[1:])
        for hi in by_rank[hi_rank]
        for lo in by_rank[lo_rank]
        if contains(snap.nodes[hi][0], snap.nodes[lo][0])
    ]
    assert list(snap.hasse_edges) == expected


@pytest.mark.parametrize("q,n,mu", [(7, 4, 4745), (3, 5, -181), (9, 4, 20969)])
def test_posets_beyond_verify_window(monkeypatch, q, n, mu):
    ambient = dot_space(make_field(*closed.odd_prime_power(q)), n)
    snap = oracle.build_poset(ambient, PosetKind.EUCLIDEAN, budget=10**6)
    assert oracle.mobius_bottom(snap) == mu == closed.mobius_sequence(q, n).mu[n]
    assert oracle.count_flags(snap) == closed.bracket_factorial(q, n)
    lorentzian = oracle.build_poset(ambient, PosetKind.LORENTZIAN, budget=10**6)
    inner = tuple(closed.dot_binom_variant(q, n, k, Variant.DL) for k in range(1, n))
    assert lorentzian.rank_sizes() == (1, *inner, 1)
    monkeypatch.setattr(oracle, "_INT64_LIMIT", 0)  # every rank sums on Python ints
    assert oracle.mobius_bottom(snap) == mu


def _degree_faults(snap):
    """Interior nodes whose (up, down) degree in hasse_edges is not the variant count.

    A rank-k node lies in one node of rank k + 1 for each line of its
    complement of the wanted type, and contains one of rank k - 1 for each
    wanted hyperplane of itself; the bottom and top stand alone at ranks 0
    and n.
    """
    q, n = snap.ambient.field.q, snap.ambient.n
    up = Counter(lo for lo, _ in snap.hasse_edges)
    down = Counter(hi for _, hi in snap.hasse_edges)
    if snap.poset_kind is PosetKind.EUCLIDEAN:
        up_variant, down_variant = Variant.DD, Variant.DD
    else:
        up_variant, down_variant = Variant.LD, Variant.LL
    faults = []
    for idx, (_, k) in enumerate(snap.nodes):
        if 0 < k < n:
            want = (1 if k == n - 1 else closed.dot_binom_variant(q, n - k, 1, up_variant),
                    1 if k == 1 else closed.dot_binom_variant(q, k, k - 1, down_variant))
            if (up[idx], down[idx]) != want:
                faults.append((idx, k, up[idx], down[idx], want))
    return faults


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4), (7, 4), (9, 3)])
@pytest.mark.parametrize("kind", list(PosetKind))
def test_poset_degrees_are_regular(q, n, kind):
    ambient = dot_space(make_field(*closed.odd_prime_power(q)), n)
    snap = oracle.build_poset(ambient, kind, budget=10**6)
    assert _degree_faults(snap) == []
    edges = snap.hasse_edges
    middle = len(edges) // 2
    dropped = types.SimpleNamespace(ambient=snap.ambient, poset_kind=snap.poset_kind,
                                    nodes=snap.nodes,
                                    hasse_edges=edges[:middle] + edges[middle + 1:])
    assert _degree_faults(dropped)


def test_mobius_at_q5_n4():
    snap = oracle.build_poset(dot_space(make_field(5), 4), PosetKind.EUCLIDEAN)
    assert oracle.mobius_bottom(snap) == -331 == closed.mobius_sequence(5, 4).mu[4]


def test_poset_budget_prices_vector_masks():
    """q=211 n=2 scans 214 subspaces but needs 106 masks of 696 words."""
    ambient = dot_space(make_field(211), 2)
    with pytest.raises(BudgetExceeded, match="73776 64-bit words"):
        oracle.build_poset(ambient, PosetKind.EUCLIDEAN)
    snap = oracle.build_poset(ambient, PosetKind.EUCLIDEAN, budget=10**5)
    assert oracle.count_flags(snap) == closed.bracket_factorial(211, 2)


@pytest.mark.parametrize("kind", list(PosetKind))
def test_poset_rank_sizes_match_the_poset_without_vector_sets(monkeypatch, kind):
    """The same rank sizes as the poset's nodes, or the same refusal, from
    the ranks' classification alone."""
    cells = [(q, n, maker, oracle.DEFAULT_POSET_BUDGET)
             for q, n in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 3), (5, 4), (9, 2), (9, 3)]
             for maker in (dot_space, lambda_dot_space)]
    # a scan over budget, one mask over it, and every mask over it
    cells += [(3, 6, dot_space, 1000), (7, 4, dot_space, oracle.DEFAULT_POSET_BUDGET),
              (211, 2, dot_space, oracle.DEFAULT_POSET_BUDGET)]

    def poset_or_refusal(call, *args):
        try:
            return call(*args)
        except BudgetExceeded as exc:
            return str(exc)

    def ambient(q, n, maker):
        return maker(make_field(*closed.odd_prime_power(q)), n)

    def node_ranks(*args):
        snap = oracle.build_poset(*args)
        ranks = Counter(k for _, k in snap.nodes)
        return tuple(ranks[k] for k in range(snap.ambient.n + 1))

    built = [poset_or_refusal(node_ranks, ambient(q, n, maker), kind, budget)
             for q, n, maker, budget in cells]
    assert sum(isinstance(sizes, str) for sizes in built) == 3

    def no_vector_sets(*args):
        raise AssertionError("a vector set was made")

    monkeypatch.setattr(oracle, "_vector_sets", no_vector_sets)
    for (q, n, maker, budget), want in zip(cells, built):
        got = poset_or_refusal(lambda *args: oracle.build_poset(*args).rank_sizes(),
                               ambient(q, n, maker), kind, budget)
        assert got == want, (q, n, maker, budget)


@pytest.mark.parametrize("kind", list(PosetKind))
def test_poset_vector_sets_are_made_once_on_first_read_of_the_edges(monkeypatch, kind):
    """build_poset, rank sizes and nodes make no vector set; the edges make
    each inner rank's once, and flags and Mobius values read those."""
    made = Counter()
    vector_sets = oracle._vector_sets

    def counting(field, n, row_codes):
        made[row_codes.shape[1]] += 1
        return vector_sets(field, n, row_codes)

    monkeypatch.setattr(oracle, "_vector_sets", counting)
    snap = oracle.build_poset(dot_space(make_field(3), 4), kind)
    assert snap.rank_sizes() and snap.nodes
    assert made == {}
    assert snap.hasse_edges
    assert made == {1: 1, 2: 1, 3: 1}
    if kind is PosetKind.EUCLIDEAN:
        oracle.count_flags(snap)
    oracle.mobius_bottom(snap)
    assert made == {1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("kind", list(PosetKind))
@pytest.mark.parametrize("q, budget", [(1009, 10000), (10007, oracle.DEFAULT_POSET_BUDGET)])
def test_poset_budget_refuses_one_mask_before_tables(monkeypatch, kind, q, budget):
    """The scan fits, but a single mask of ceil(q^2 / 64) words does not."""

    def no_tables(p, e):
        raise AssertionError("field tables were built")

    monkeypatch.setattr(oracle, "_field_tables", no_tables)
    words = -(-(q**2) // 64)
    with pytest.raises(BudgetExceeded, match=f"one vector mask .* takes {words} 64-bit"):
        oracle.build_poset(dot_space(make_field(q), 2), kind, budget=budget)


def test_poset_without_inner_nodes_builds_no_tables(monkeypatch):
    def no_tables(p, e):
        raise AssertionError("field tables were built")

    monkeypatch.setattr(oracle, "_field_tables", no_tables)
    snap = oracle.build_poset(dot_space(make_field(1009), 1), PosetKind.EUCLIDEAN)
    assert [layer.vectors for layer in snap.layers] == [None, None]
    assert oracle.count_flags(snap) == 1
    assert oracle.mobius_bottom(snap) == -1


def _naive_symmetric_ksets(n, k):
    """2^n scan over subsets of Z/(n+1) minus 0, closed under negation."""
    mod = n + 1
    count = 0
    for mask in range(1 << n):
        members = {i + 1 for i in range(n) if mask >> i & 1}
        if len(members) == k and all((mod - x) % mod in members for x in members):
            count += 1
    return count


def test_symmetric_ksets_match_naive_scan():
    for n in range(0, 13):
        for k in range(n + 2):
            assert symsets.count_symmetric_ksets(n, k) == _naive_symmetric_ksets(n, k)


def test_symmetric_ksets_frozen():
    assert symsets.count_symmetric_ksets(5, 3) == 2
    assert symsets.count_symmetric_ksets(4, 1) == 0
    assert symsets.count_symmetric_ksets(6, 2) == 3
    with pytest.raises(BudgetExceeded):
        symsets.count_symmetric_ksets(25, 2)
    with pytest.raises(UndefinedForParameters):
        symsets.count_symmetric_ksets(-1, 0)


def test_export_hasse(tmp_path):
    f3 = make_field(3)
    snap = oracle.build_poset(dot_space(f3, 2), PosetKind.EUCLIDEAN)
    path = tmp_path / "hasse.txt"
    oracle.export_hasse(snap, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(snap.hasse_edges)
    labels = set()
    for line in lines:
        lo, hi = line.split(" ")
        labels.update((lo, hi))
    assert "-" in labels  # the zero subspace
    assert len(labels) == len(snap.nodes)


def test_export_hasse_label_error_leaves_no_file(tmp_path):
    snap = oracle.build_poset(dot_space(make_field(37), 1), PosetKind.EUCLIDEAN)
    path = tmp_path / "hasse.txt"
    with pytest.raises(UndefinedForParameters):
        oracle.export_hasse(snap, str(path))
    assert not path.exists()


def test_full_count_report():
    f3 = make_field(3)
    rep = oracle.full_count_report(dot_space(f3, 2))
    assert rep.ambient_kind is AmbientKind.DOT
    assert (rep.q, rep.n) == (3, 2)
    assert rep.tallies == ((0, 1, 0, 0), (1, 2, 2, 0), (2, 1, 0, 0))
    assert rep.lines == (2, 2, 0)
    assert rep.flag_count == 2
    assert rep.mobius_bottom_to_top == 1
    assert not hasattr(rep, "elapsed")  # results hold no wall-clock time
    kv = rep.to_kv_lines()
    assert kv[0] == "ambient dot"
    assert all(not line.startswith("elapsed") for line in kv)


def test_full_count_report_lambda_ambient_has_no_poset_stats():
    f3 = make_field(3)
    rep = oracle.full_count_report(lambda_dot_space(f3, 2))
    assert rep.flag_count is None
    assert rep.mobius_bottom_to_top is None
    assert rep.lines == (1, 1, 2)


def test_full_count_report_counts_each_dimension_once(monkeypatch):
    """Every dimension is read off one walk: k = 1 and 2 read level 1 and
    k = 3 level 0, each after the third column."""
    walk = oracle._transfer_counts
    walks = []

    def spy(p, e, diag, reads):
        walks.append((diag, sorted(reads)))
        return walk(p, e, diag, reads)

    monkeypatch.setattr(oracle, "_transfer_counts", spy)
    rep = oracle.full_count_report(dot_space(make_field(3), 3))
    assert walks == [((1, 1, 1), [(3, 0), (3, 1)])]
    assert [row[0] for row in rep.tallies] == [0, 1, 2, 3]
    assert rep.lines == (3, 6, 4)


@pytest.mark.parametrize("q,n,budget,message", [
    (3, 15, oracle.DEFAULT_BUDGET, r"at \(q=3, n=15, k=2\) exceed budget"),
    (3, 4, 30, r"at \(q=3, n=4, k=1\) exceed budget 30"),
    # k = 1 fits a budget of 10^10 and k = 2 does not, but the k = 1 count
    # would refuse the tables first
    (2053, 4, 10**10, "field tables of 4214809 entries at q=2053"),
    # every k fits a budget of 10^9, but k = 2 walks 163^3 states
    (163, 4, 10**9, r"Gram transfer states of 4330747 entries at \(q=163, n=4, k=2\)"),
], ids=["k2-over-budget", "k1-over-budget", "tables-over-limit", "states-over-limit"])
def test_full_count_report_prices_every_dimension_before_counting(
    monkeypatch, q, n, budget, message
):
    """A report with any k over its price walks for no k, and is refused
    with the error that the first refused count would raise."""

    def no_walk(*args, **kwargs):
        raise AssertionError("a dimension was counted")

    monkeypatch.setattr(oracle, "_transfer_counts", no_walk)
    with pytest.raises(BudgetExceeded, match=message):
        oracle.full_count_report(dot_space(make_field(q), n), budget=budget)


def _count_or_refusal(ambient, k, budget=oracle.DEFAULT_BUDGET):
    try:
        return oracle.count_subspaces_by_class(ambient, k, budget=budget)
    except DotAnalogueError as exc:
        return exc


def _assert_table_matches_single_counts(q, max_n, budget=oracle.DEFAULT_BUDGET):
    """count_table's cells equal count_subspaces_by_class's tallies, or its
    refusal, type and message; the counted cells equal the closed forms.
    Returns how many cells each kind counted."""
    field = make_field(*closed.odd_prime_power(q))
    counted = []
    for maker in (dot_space, lambda_dot_space):
        kind = maker(field, 1).kind
        table = oracle.count_table(field, kind, max_n, budget)
        assert sorted(table) == [(n, k) for n in range(1, max_n + 1) for k in range(n + 1)]
        for (n, k), cell in table.items():
            single = _count_or_refusal(maker(field, n), k, budget)
            if isinstance(single, Exception):
                assert (type(cell), str(cell)) == (type(single), str(single)), (q, n, k, kind)
            else:
                assert cell == single == _closed_tallies(q, n, k, maker), (q, n, k, kind)
        counted.append(sum(not isinstance(cell, Exception) for cell in table.values()))
    return counted


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_count_table_matches_single_counts(q):
    """Every cell up to n = 6, both ambients, at level k and at level n - k."""
    assert all(_assert_table_matches_single_counts(q, 6))


@pytest.mark.parametrize("q,max_n,budget,refused", [
    (3, 4, 20, "exceed budget 20"),
    (5, 3, 20, "exceed budget 20"),
    (163, 4, 10**9, "Gram transfer states of 4330747 entries at (q=163, n=4, k=2)"),
    (2053, 2, oracle.DEFAULT_BUDGET, "field tables of 4214809 entries at q=2053"),
], ids=["budget-q3", "budget-q5", "state-limit", "table-limit"])
def test_count_table_refuses_each_cell_as_a_single_count_would(monkeypatch, q, max_n,
                                                               budget, refused):
    field = make_field(*closed.odd_prime_power(q))
    messages = {str(cell) for maker in (dot_space, lambda_dot_space)
                for cell in oracle.count_table(field, maker(field, 1).kind, max_n,
                                               budget).values()
                if isinstance(cell, Exception)}
    assert any(refused in message for message in messages)
    _assert_table_matches_single_counts(q, max_n, budget)


COUNT_TABLE_CELLS = pathlib.Path(__file__).parent / "data" / "count_table_cells.json"


def _count_table_cells():
    """{table: {cell: value}} for count_table over eight fields, both kinds
    and three budgets, max_n 8 at q = 3 and 6 elsewhere.  A cell holds its
    tallies in SubspaceClass order, or its refusal's [type name, message]."""
    tables = {}
    for q in (3, 5, 7, 9, 25, 27, 163, 2053):
        field = make_field(*closed.odd_prime_power(q))
        for kind in AmbientKind:
            for budget in (20, 10**7, 10**9):
                table = oracle.count_table(field, kind, 8 if q == 3 else 6, budget)
                tables[f"q={q} {kind.value} budget={budget}"] = {
                    f"n={n} k={k}": ([type(cell).__name__, str(cell)]
                                     if isinstance(cell, Exception)
                                     else [cell[klass] for klass in SubspaceClass])
                    for (n, k), cell in table.items()
                }
    return tables


def test_count_table_cells_equal_the_frozen_ones():
    """Every cell's tallies, or its refusal's type and message, as frozen in
    data/count_table_cells.json; `PYTHONPATH=src python tests/test_oracle.py`
    rewrites the file from the code as it stands."""
    assert _count_table_cells() == json.loads(COUNT_TABLE_CELLS.read_text(encoding="utf-8"))


POSET_CELLS = pathlib.Path(__file__).parent / "data" / "poset_cells.json"


def _poset_cells():
    """{table: {cell: value}} for build_poset over six fields, both ambient
    kinds, both poset kinds and three budgets, n = 1..4.  A cell holds its
    rank sizes, edge count, the sha256 of its 'lower upper' edge lines, its
    flag count (Euclidean only) and Mobius value, or its refusal's [type
    name, message]."""
    tables = {}
    for q in (3, 5, 7, 9, 25, 27):
        field = make_field(*closed.odd_prime_power(q))
        for ambient_kind, poset_kind, budget in itertools.product(
                AmbientKind, PosetKind, (1000, 20000, 10**6)):
            cells = tables[f"q={q} {ambient_kind.value} {poset_kind.value} budget={budget}"] = {}
            for n in range(1, 5):
                try:
                    snap = oracle.build_poset(
                        ambient_space(field, ambient_kind, n), poset_kind, budget)
                except BudgetExceeded as exc:
                    cells[f"n={n}"] = [type(exc).__name__, str(exc)]
                    continue
                lines = "".join(f"{lo} {hi}\n" for lo, hi in snap.hasse_edges)
                cell = {"ranks": list(snap.rank_sizes()), "edges": len(snap.hasse_edges),
                        "edges_sha256": hashlib.sha256(lines.encode()).hexdigest()}
                if poset_kind is PosetKind.EUCLIDEAN:
                    cell["flags"] = oracle.count_flags(snap)
                cell["mobius"] = oracle.mobius_bottom(snap)
                cells[f"n={n}"] = cell
    return tables


def test_poset_cells_equal_the_frozen_ones():
    """Every poset's summaries, or its refusal's type and message, as frozen
    in data/poset_cells.json; `PYTHONPATH=src python tests/test_oracle.py`
    rewrites the file from the code as it stands."""
    assert _poset_cells() == json.loads(POSET_CELLS.read_text(encoding="utf-8"))


def test_a_verify_run_walks_once_per_field_and_kind(monkeypatch):
    """Every (n, k) count of a field and ambient kind is read off one walk
    over the diagonal of the largest ambient, its lambda entry first."""
    walk = oracle._transfer_counts
    walks = Counter()

    def spy(p, e, diag, reads):
        walks[p**e, diag] += 1
        return walk(p, e, diag, reads)

    monkeypatch.setattr(oracle, "_transfer_counts", spy)
    verify.run_verify([3, 5, 7, 9], 5)
    assert set(walks.values()) == {1}
    for q in (3, 5, 7, 9):
        field = make_field(*closed.odd_prime_power(q))
        lam = field.index(field.lambda_)
        assert {diag for p, diag in walks if p == q} == {(1,) * 5, (lam,) + (1,) * 4}, q
    assert len(walks) == 8


TABLE_PRICED = {
    "count": lambda ambient: oracle.count_subspaces_by_class(ambient, 1, budget=10**12),
    "group": lambda ambient: oracle.enumerate_orthogonal_group(ambient, budget=10**12),
    "poset": lambda ambient: oracle.build_poset(ambient, PosetKind.EUCLIDEAN, budget=10**12),
}


@pytest.mark.parametrize("q", [2053, 65521])
@pytest.mark.parametrize("name", sorted(TABLE_PRICED))
def test_field_tables_are_priced_before_they_are_built(monkeypatch, name, q):
    """q = 65521 would need q x q tables of 8.6 GB each; 2053 is the first prime past the limit."""

    def no_tables(p, e):
        raise AssertionError("field tables were built")

    monkeypatch.setattr(oracle, "_field_tables", no_tables)
    n = 1 if name == "group" else 2
    with pytest.raises(BudgetExceeded, match=f"field tables of {q * q} entries at q={q}"):
        TABLE_PRICED[name](dot_space(make_field(q), n))


def test_largest_prime_under_the_table_limit_is_not_refused():
    oracle._price_tables(2039)
    with pytest.raises(BudgetExceeded, match="field tables of 4214809 entries"):
        oracle._price_tables(2053)


if __name__ == "__main__":
    # both frozen files, one line per cell
    for path, tables in ((COUNT_TABLE_CELLS, _count_table_cells()),
                         (POSET_CELLS, _poset_cells())):
        path.write_text("{\n" + ",\n".join(
            f" {json.dumps(name)}: {{\n" + ",\n".join(
                f"  {json.dumps(cell)}: {json.dumps(value)}" for cell, value in cells.items()
            ) + "\n }"
            for name, cells in tables.items()
        ) + "\n}\n", encoding="utf-8")
