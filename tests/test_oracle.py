"""Enumeration oracle: tallies, posets, groups, and cross-checks."""

import dataclasses
import itertools
import math
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dotbinom import closed, gf, oracle, symsets
from dotbinom.closed import Variant
from dotbinom.errors import (
    BudgetExceeded,
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


def _assert_fast_matches_slow(p, e, n, maker):
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
    _assert_fast_matches_slow(p, e, n, maker)


def test_fast_tallies_match_with_small_chunks_and_digit_groups(monkeypatch):
    """Chunks that end mid-digit and rows split into several digit groups,
    in the transfer's scatter and in the posets' blocks."""
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    monkeypatch.setattr(oracle, "_GROUP_CAP", 81)
    assert oracle._group_width(3) == 2 and oracle._group_width(9) == 1
    for p, e, n, maker in DIFFERENTIAL_CELLS[-3:]:
        _assert_fast_matches_slow(p, e, n, maker)


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
@pytest.mark.parametrize("q,n,ks,chunk", [
    # row 0 holds q^f0 codes, f0 = n - k on the largest pivot pattern
    (3, 5, range(1, 4), 2),
    (3, 6, [1], 2),
    (5, 4, range(1, 3), 4),
    (9, 3, [1], 8),
    (3, 5, [4], 1),
    (3, 6, [5], 1),  # k = 5: a 4 x 4 Gram block C beside row 0's 2 codes
    (9, 3, [2], 4),
])
def test_fast_tallies_match_when_row_zero_is_split(monkeypatch, q, n, ks, chunk, maker):
    """Poset blocks of one h value and part of row 0's codes, at k up to 5;
    the count at the same _CHUNK beside them."""
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    ambient = maker(make_field(*closed.odd_prime_power(q)), n)
    for k in ks:
        assert chunk < q ** (n - k)  # row 0's codes are split
        slow = _slow_tallies(ambient, k)
        assert _every_code_tallies(ambient, k) == slow, (q, n, k)
        assert oracle.count_subspaces_by_class(ambient, k) == slow, (q, n, k)


def _slow_tallies(ambient, k):
    slow = Counter(classify(sub) for sub in oracle.enumerate_subspaces(ambient, k))
    return {klass: slow.get(klass, 0) for klass in SubspaceClass}


def test_workspace_reuse_keeps_counts_and_posets_exact(monkeypatch):
    """One process, one workspace: block shapes, q and k change from call to
    call, counts run between the blocks, and a poset follows."""
    space = {q: make_field(*closed.odd_prime_power(q)) for q in (3, 5, 7, 9)}
    steps = [
        (2, 3, 5, 3, lambda_dot_space),  # row 0 split: one h value per block
        (10, 5, 3, 2, dot_space),  # short last blocks of ten codes
        (oracle._CHUNK, 9, 3, 2, lambda_dot_space),
        (oracle._CHUNK, 7, 3, 1, dot_space),
        (oracle._CHUNK, 3, 4, 3, dot_space),
        (2, 5, 3, 1, lambda_dot_space),
    ]
    for chunk, q, n, k, maker in steps:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        ambient = maker(space[q], n)
        slow = _slow_tallies(ambient, k)
        assert _every_code_tallies(ambient, k) == slow, (chunk, q, n, k)
        assert oracle.count_subspaces_by_class(ambient, k) == slow, (chunk, q, n, k)
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    _assert_poset_nodes_match_objects(3, 4, dot_space)


def _largest_block(q, n, k, maker):
    field = make_field(*closed.odd_prime_power(q))
    diag_idx = tuple(field.index(d) for d in maker(field, n).gram_diag)
    tasks = [
        task
        for pattern in itertools.combinations(range(n), k)
        for task in oracle._chunk_tasks(field, diag_idx, oracle._pattern_rows(pattern, n))
    ]
    return max(tasks, key=lambda t: (t[-2][1] - t[-2][0]) * (t[-1][1] - t[-1][0]))


@pytest.mark.parametrize("q,n,k,maker", [
    (13, 5, 2, dot_space),
    (11, 5, 3, lambda_dot_space),
    (3, 7, 4, lambda_dot_space),
    (5, 6, 3, dot_space),
])
def test_warm_block_allocates_under_two_full_size_arrays(q, n, k, maker):
    """A warm block writes its full-size intermediates into the workspace.

    A kernel that allocated each of them peaked at 6 to 9 full-size intp
    arrays on these blocks; the workspace leaves under two, most of them
    h-side arrays, such as the minors of C, where the l side is short.
    """
    task = _largest_block(q, n, k, maker)
    (h_lo, h_hi), (l_lo, l_hi) = task[-2:]
    full_size = (h_hi - h_lo) * (l_hi - l_lo) * np.dtype(np.intp).itemsize
    peak = _warm_peak(task)
    assert peak < 2 * full_size, (peak, full_size)


def _warm_peak(task):
    for _ in range(2):
        oracle._chunk_classes(task)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        oracle._chunk_classes(task)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
@pytest.mark.parametrize("f", [0, 1, 2, 3])
def test_paired_row_list_holds_one_code_of_each_sign_pair(q, f):
    """The list of f digits that the transfer's shifts are drawn from and its
    digit-wise negations, through the field's neg table, cover every code of
    f digits, each nonzero code once; at weight 2 for each nonzero code and
    1 for 0, the weights add up to q^f."""
    p, e = closed.odd_prime_power(q)
    neg = oracle._field_tables(p, e)[2]
    size = (q**f + 1) // 2
    codes = oracle._row_codes(np.arange(size), p, e * f)
    powers = q ** np.arange(f)
    negated = (neg[codes[:, None] // powers % q] * powers).sum(axis=1)
    nonzero = codes[codes > 0]
    assert np.array_equal(np.sort(np.concatenate([nonzero, negated[codes > 0]])),
                          np.arange(1, q**f))
    assert size == len(codes) and np.count_nonzero(codes == 0) == 1
    assert 1 + 2 * len(nonzero) == q**f


def _every_code_tallies(ambient, k):
    """Tallies of the class arrays of every code, weight 1 each, as build_poset reads them."""
    field, n = ambient.field, ambient.n
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    counts = np.zeros(3, dtype=np.int64)
    for pattern in itertools.combinations(range(n), k):
        rows = oracle._pattern_rows(pattern, n)
        for task in oracle._chunk_tasks(field, diag_idx, rows):
            counts += np.bincount(oracle._chunk_classes(task).ravel(), minlength=3)
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
    a few live states at a time and l blocks start above 0."""
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
    """The kernel's gathers clip, so a table entry >= q is refused where the
    table is built instead of being clamped into a wrong class."""
    build = oracle._arithmetic_tables

    def bad_tables(field):
        tables = dict(zip(("add", "mul", "neg"), build(field)))
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
        "    add, mul, neg = build(field)",
        "    add[2, 2] = 3",
        "    return add, mul, neg",
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


@pytest.mark.parametrize(
    "p,e", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 4)]
)
def test_field_tables_match_field_arithmetic(p, e):
    field = make_field(p, e)
    add, mul, neg, klass = oracle._field_tables.__wrapped__(p, e)
    assert (add.dtype, mul.dtype, neg.dtype, klass.dtype) == (np.intp,) * 3 + (np.int8,)
    assert add.shape == mul.shape == (field.q, field.q)
    codes = {SquareClass.ZERO: 0, SquareClass.SQUARE: 1, SquareClass.NON_SQUARE: 2}
    elems = list(field.elements())
    for i, a in enumerate(elems):
        assert neg[i] == field.index(field.neg(a))
        assert klass[i] == codes[field.square_class(a)]
        for j in range(i, field.q):
            b = elems[j]
            assert add[i, j] == add[j, i] == field.index(field.add(a, b)), (a, b)
            assert mul[i, j] == mul[j, i] == field.index(field.mul(a, b)), (a, b)


def test_field_tables_refuse_orders_beyond_uint16(monkeypatch):
    def no_field(p, e=1):
        raise AssertionError("the field was built")

    monkeypatch.setattr(oracle, "make_field", no_field)
    with pytest.raises(BudgetExceeded, match="65537"):
        oracle._field_tables(65537, 1)


def test_table_limit_keeps_the_int32_mul_build_exact():
    """The entry limit alone refuses every q of 2^16 or more, and keeps every
    intermediate of the int32 mul table build, below 2 e p^2 <= 2 q^2, in int32."""
    q = math.isqrt(oracle._MAX_TABLE_ENTRIES)
    assert q <= 0xFFFF
    assert 2 * q * q < 2**31


def test_field_tables_check_euler_criterion(monkeypatch):
    """x^2 - 1 is reducible over GF(3): a^4 is then not always +-1."""
    ring = gf.FieldSpec(3, 2)
    ring.modulus = (2, 0, 1)
    monkeypatch.setattr(oracle, "make_field", lambda p, e=1: ring)
    with pytest.raises(IdentityViolated, match="euler-criterion"):
        oracle._field_tables.__wrapped__(3, 2)


@pytest.mark.parametrize("q,samples", [
    (3, None), (5, None), (9, None), (25, 2000), (27, 2000), (157, 2000),
])
def test_ending_tables_match_field_arithmetic(q, samples):
    """inverse[a] * a = 1 for a != 0, and the entry at offsets[a] + x * q + b
    is the square class of a * (x + b * b) for a != 0 and of x for a = 0."""
    field = make_field(*closed.odd_prime_power(q))
    inverse, offsets, classes = oracle._ending_tables.__wrapped__(field.p, field.e)
    assert inverse.shape == offsets.shape == (q,)
    assert classes.dtype == np.int8 and classes.shape == (3 * q * q,)
    assert set(np.unique(classes).tolist()) <= {0, 1, 2}
    codes = {SquareClass.ZERO: 0, SquareClass.SQUARE: 1, SquareClass.NON_SQUARE: 2}
    elems = list(field.elements())
    assert inverse[0] == 1 and offsets[0] == 2 * q * q
    for a in range(1, q):
        assert field.mul(elems[a], elems[inverse[a]]) == field.one, (q, a)
        part = {SquareClass.SQUARE: 0, SquareClass.NON_SQUARE: 1}[field.square_class(elems[a])]
        assert offsets[a] == part * q * q, (q, a)
    if samples is None:
        triples = itertools.product(range(q), repeat=3)
    else:
        triples = np.random.default_rng(q).integers(0, q, size=(samples, 3)).tolist()
    for a, x, b in triples:
        value = field.add(elems[x], field.mul(elems[b], elems[b]))
        value = field.mul(elems[a], value) if a else elems[x]
        assert classes[offsets[a] + x * q + b] == codes[field.square_class(value)], (q, a, x, b)


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


@pytest.mark.parametrize("q", [3, 5, 9])
def test_blocks_above_the_class_table_price_match_object_level(q):
    """Every-code block tallies at k = 2, 3, 4 and poset nodes, whose blocks
    end on every part of the ending table: a = -1 at k = 2 is a non-square
    at q = 3 and a square at q = 5 and 9, and at k = 3, 4 the h-side a
    takes every class.  Counts run beside them.

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


def test_only_blocks_of_k_at_least_two_build_the_ending_tables():
    """k = 1 blocks end on klass alone; the 3 q^2 ending table is built on
    the first k >= 2 block of a field (about 60 ms at q = 2039), and never
    by a count."""
    oracle._ending_tables.cache_clear()
    ambient = lambda_dot_space(make_field(13), 3)
    _every_code_tallies(ambient, 1)
    assert oracle.count_subspaces_by_class(ambient, 2) == _closed_tallies(13, 3, 2, lambda_dot_space)
    assert oracle._ending_tables.cache_info().currsize == 0
    assert _every_code_tallies(ambient, 2) == _closed_tallies(13, 3, 2, lambda_dot_space)
    assert oracle._ending_tables.cache_info().currsize == 1


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
def test_count_of_fewer_than_q_cubed_subspaces_builds_no_class_table(monkeypatch, maker):
    """q = 157, n = 2, k = 2 is one subspace: its block ends on the 3 q^2
    ending table, and no table of 157^3 entries is built for it."""
    built = []
    tables = oracle._ending_tables

    def spy(p, e):
        result = tables(p, e)
        built.append(sum(t.size for t in result))
        return result

    monkeypatch.setattr(oracle, "_ending_tables", spy)
    tallies = _every_code_tallies(maker(make_field(157), 2), 2)
    assert tallies == _closed_tallies(157, 2, 2, maker)
    assert built and max(built) < 157**3
    assert max(built) == 2 * 157 + 3 * 157**2  # inverse, offsets, classes


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
def test_field_above_the_class_table_price_matches_closed_form(maker):
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


def test_short_tally_raises_mismatch(monkeypatch):
    ambient = dot_space(make_field(3), 2)
    monkeypatch.setattr(oracle, "_transfer_tallies", lambda field, diag_idx, k: (1, 0, 0))
    with pytest.raises(Mismatch):
        oracle.count_subspaces_by_class(ambient, 1)


# every cell up to n = 6 and 200 000 subspaces: column side for k <= n / 2,
# row side above
OVERLAP_CELLS = [
    (q, n, k, maker)
    for q in (3, 5, 7, 9, 11, 13, 25, 27)
    for n in range(1, 7)
    for k in range(1, n + 1)
    for maker in (dot_space, lambda_dot_space)
    if closed.gaussian_binom(q, n, k) <= 200_000
]


def test_transfer_matches_kernel_on_both_sides():
    """The transfer and the posets' every-code block classification agree on
    every cell, both ambients and both sides of the transfer."""
    assert {2 * k <= n for _, n, k, _ in OVERLAP_CELLS} == {True, False}
    assert {q for q, *_ in OVERLAP_CELLS} == {3, 5, 7, 9, 11, 13, 25, 27}
    for q, n, k, maker in OVERLAP_CELLS:
        ambient = maker(make_field(*closed.odd_prime_power(q)), n)
        assert oracle.count_subspaces_by_class(ambient, k) == _every_code_tallies(ambient, k), (
            q, n, k, maker)


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
def test_zero_diagonal_entry_walks_the_column_side(n):
    """A hand-built ambient with a zero diagonal entry: the row side would
    invert it, so every k walks the column side, and agrees with classify()."""
    field = make_field(3)
    diag = (field.one, field.zero) + (field.one,) * (n - 2)
    ambient = AmbientForm(field, n, AmbientKind.DOT, diag)
    diag_idx = tuple(field.index(d) for d in diag)
    for k in range(n + 1):
        assert oracle._walk_level(3, diag_idx, k) == k
        assert oracle.count_subspaces_by_class(ambient, k) == _slow_tallies(ambient, k), k


def test_transfer_counts_on_python_ints_beyond_the_limit(monkeypatch):
    """At limit 0 every walk counts on object arrays, with the same tallies;
    q=3 n=21 k=3 (1.0e26 subspaces) is past 2^63 at the default limit."""
    dtypes = []
    walk = oracle._transfer_counts

    def spy(*args):
        counts = walk(*args)
        dtypes.append(counts.dtype)
        return counts

    monkeypatch.setattr(oracle, "_transfer_counts", spy)
    ambient = lambda_dot_space(make_field(3), 21)
    assert oracle.count_subspaces_by_class(ambient, 3, budget=10**30) == (
        _closed_tallies(3, 21, 3, lambda_dot_space))
    assert dtypes == [object]
    cells = [(3, 6, 2), (5, 5, 3), (9, 4, 1), (3, 7, 5), (7, 3, 3)]
    fields = {q: make_field(*closed.odd_prime_power(q)) for q, _, _ in cells}
    int64 = [oracle.count_subspaces_by_class(dot_space(fields[q], n), k) for q, n, k in cells]
    monkeypatch.setattr(oracle, "_TRANSFER_LIMIT", 0)
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

    def spy(*args):
        counts = walk(*args)
        dtypes.append(counts.dtype)
        assert counts.max() > 2**53
        return counts

    monkeypatch.setattr(oracle, "_transfer_counts", spy)
    for maker in (dot_space, lambda_dot_space):
        ambient = maker(make_field(3), n)
        tallies = oracle.count_subspaces_by_class(ambient, k, budget=10**30)
        assert tallies == _closed_tallies(3, n, k, maker), maker
    assert dtypes == [np.int64] * 2


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
def test_k_near_n_counts_on_the_row_side_in_little_memory(maker):
    """q=3 n=15 k=14 has 7.2 M subspaces, inside the default budget; the
    row side walks one level, 3 states, where the kernel's minors at k = 14
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
    """Kernel-classified nodes equal classify() over enumerate_subspaces, in order."""
    _assert_poset_nodes_match_objects(q, n, maker)


def test_poset_nodes_match_with_small_chunks_and_digit_groups(monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    monkeypatch.setattr(oracle, "_GROUP_CAP", 81)
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
    monkeypatch.setattr(oracle, "_MU_LIMIT", 0)  # every rank sums on Python ints
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
    dropped = dataclasses.replace(snap, hasse_edges=edges[:middle] + edges[middle + 1:])
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
    count = oracle.count_subspaces_by_class
    dims = []

    def counting(ambient, k, **kwargs):
        dims.append(k)
        return count(ambient, k, **kwargs)

    monkeypatch.setattr(oracle, "count_subspaces_by_class", counting)
    rep = oracle.full_count_report(dot_space(make_field(3), 3))
    assert dims == [0, 1, 2, 3]
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
    """A report with any k over its price counts no k, and is refused with
    the error that the first refused count would raise."""

    def no_count(*args, **kwargs):
        raise AssertionError("a dimension was counted")

    monkeypatch.setattr(oracle, "count_subspaces_by_class", no_count)
    with pytest.raises(BudgetExceeded, match=message):
        oracle.full_count_report(dot_space(make_field(q), n), budget=budget)

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
