"""Enumeration oracle: tallies, posets, groups, and cross-checks."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from dotbinom import closed, gf, oracle
from dotbinom.errors import (
    BudgetExceeded,
    IdentityViolated,
    Mismatch,
    UndefinedForParameters,
)
from dotbinom.gf import SquareClass, make_field
from dotbinom.oracle import PosetKind
from dotbinom.quadspace import (
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
    field = make_field(p, e)
    ambient = maker(field, n)
    for k in range(n + 1):
        slow = Counter(classify(sub) for sub in oracle.enumerate_subspaces(ambient, k))
        fast = oracle.count_subspaces_by_class(ambient, k)
        for klass in SubspaceClass:
            assert fast[klass] == slow.get(klass, 0), (p, e, n, k, klass)


@pytest.mark.parametrize("p,e,n,maker", DIFFERENTIAL_CELLS)
def test_fast_tallies_match_object_level_classification(p, e, n, maker):
    """The numpy path must agree with per-subspace classify() exactly."""
    _assert_fast_matches_slow(p, e, n, maker)


def test_fast_tallies_match_with_small_chunks_and_digit_groups(monkeypatch):
    """Chunks that end mid-digit and rows split into several digit groups."""
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    monkeypatch.setattr(oracle, "_GROUP_CAP", 81)
    assert oracle._group_width(3) == 2 and oracle._group_width(9) == 1
    for p, e, n, maker in DIFFERENTIAL_CELLS[-3:]:
        _assert_fast_matches_slow(p, e, n, maker)


@pytest.mark.parametrize("maker", [dot_space, lambda_dot_space])
@pytest.mark.parametrize("q,n,ks,chunk", [
    (3, 5, range(1, 5), 2),  # q^f0 = 3^(5-k) > 2 on the largest pivot pattern of every k
    (3, 6, [5], 2),  # k = 5: a 4 x 4 Gram block C beside row 0's 3 values
    (5, 4, range(1, 4), 4),
    (9, 3, range(1, 3), 8),
])
def test_fast_tallies_match_when_row_zero_is_split(monkeypatch, q, n, ks, chunk, maker):
    """Blocks of one h value and part of row 0's l values, at k up to 5."""
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    ambient = maker(make_field(*closed.odd_prime_power(q)), n)
    for k in ks:
        assert chunk < q ** (n - k)
        slow = Counter(classify(sub) for sub in oracle.enumerate_subspaces(ambient, k))
        fast = oracle.count_subspaces_by_class(ambient, k)
        assert fast == {klass: slow.get(klass, 0) for klass in SubspaceClass}, (q, n, k)


@pytest.mark.parametrize(
    "p,e", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 4)]
)
def test_field_tables_match_field_arithmetic(p, e):
    field = make_field(p, e)
    add, mul, neg, klass = oracle._field_tables.__wrapped__(p, e)
    dtype = np.uint8 if field.q <= 0xFF else np.uint16
    assert (add.dtype, mul.dtype, neg.dtype, klass.dtype) == (dtype,) * 3 + (np.int8,)
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


def test_table_limit_keeps_element_indices_in_uint16():
    """The entry limit alone refuses every q whose indices overflow uint16."""
    assert math.isqrt(oracle._MAX_TABLE_ENTRIES) <= 0xFFFF


def test_field_tables_check_euler_criterion(monkeypatch):
    """x^2 - 1 is reducible over GF(3): a^4 is then not always +-1."""
    ring = gf.FieldSpec(3, 2)
    ring.modulus = (2, 0, 1)
    monkeypatch.setattr(oracle, "make_field", lambda p, e=1: ring)
    with pytest.raises(IdentityViolated, match="euler-criterion"):
        oracle._field_tables.__wrapped__(3, 2)


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


def _count_pools(monkeypatch):
    started = []
    executor = oracle.ProcessPoolExecutor

    def counting(*args, **kwargs):
        started.append(kwargs.get("max_workers"))
        return executor(*args, **kwargs)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", counting)
    return started


def test_jobs_do_not_change_tallies(monkeypatch):
    field = make_field(7)
    ambient = lambda_dot_space(field, 3)
    serial = [oracle.count_subspaces_by_class(ambient, k, jobs=1) for k in range(4)]
    monkeypatch.setattr(oracle, "_POOL_MIN_SUBSPACES", 0)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    started = _count_pools(monkeypatch)
    for k in range(4):
        assert oracle.count_subspaces_by_class(ambient, k, jobs=3) == serial[k]
    assert started == [3, 3]  # k = 1, 2: k = 0 and k = 3 have at most one task


def test_counts_below_break_even_run_without_a_pool(monkeypatch):
    ambient = lambda_dot_space(make_field(7), 4)
    assert closed.gaussian_binom(7, 4, 2) < oracle._POOL_MIN_SUBSPACES
    serial = oracle.count_subspaces_by_class(ambient, 2)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    started = _count_pools(monkeypatch)
    assert oracle.count_subspaces_by_class(ambient, 2, jobs=2) == serial
    assert started == []


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
    monkeypatch.setattr(oracle, "_run_tasks", lambda worker, tasks, jobs: [(1, 0, 0)])
    with pytest.raises(Mismatch):
        oracle.count_subspaces_by_class(ambient, 1)


def test_jobs_beyond_cpu_count_run_without_a_pool(monkeypatch):
    ambient = lambda_dot_space(make_field(7), 3)
    serial = [oracle.count_subspaces_by_class(ambient, k) for k in range(4)]

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(oracle, "_POOL_MIN_SUBSPACES", 0)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", no_pool)
    for k in range(4):
        assert oracle.count_subspaces_by_class(ambient, k, jobs=3) == serial[k]


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
    [(3, 2, dot_space), (3, 2, lambda_dot_space), (5, 2, lambda_dot_space), (9, 2, dot_space)],
)
def test_orthogonal_group_matches_object_level_scan(q, n, maker):
    """The Gram-plan scan against direct matrix arithmetic weighted by gram_diag."""
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


def test_orthogonal_group_with_small_chunks_and_digit_groups(monkeypatch):
    """Columns of 3 digits split into groups of 2 and 1; column 0's 27 values
    split into blocks of at most 7, each with one value of columns 1 and 2."""
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    monkeypatch.setattr(oracle, "_GROUP_CAP", 81)
    assert oracle.enumerate_orthogonal_group(dot_space(make_field(3), 3)) == 48


def test_orthogonal_group_q3_n4_scans_43m_candidates():
    ambient = dot_space(make_field(3), 4)
    assert oracle.enumerate_orthogonal_group(ambient, budget=10**8) == 1152


def test_orthogonal_group_matches_closed_form():
    for q, n in ((3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (9, 2)):
        p, e = closed.odd_prime_power(q)
        ambient = dot_space(make_field(p, e), n)
        assert oracle.enumerate_orthogonal_group(ambient) == closed.group_order(q, n)


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


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3)])
@pytest.mark.parametrize("kind", list(PosetKind))
def test_mask_containment_matches_object_level(q, n, kind):
    snap = oracle.build_poset(dot_space(make_field(q), n), kind)
    subs = [sub for sub, _ in snap.nodes]
    for lo, small in zip(snap.masks, subs):
        for hi, big in zip(snap.masks, subs):
            assert (lo & hi == lo) == contains(big, small), (small, big)


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
    assert snap.masks == (1, -1)
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
            assert oracle.count_symmetric_ksets(n, k) == _naive_symmetric_ksets(n, k)


def test_symmetric_ksets_frozen():
    assert oracle.count_symmetric_ksets(5, 3) == 2
    assert oracle.count_symmetric_ksets(4, 1) == 0
    assert oracle.count_symmetric_ksets(6, 2) == 3
    with pytest.raises(BudgetExceeded):
        oracle.count_symmetric_ksets(25, 2)
    with pytest.raises(UndefinedForParameters):
        oracle.count_symmetric_ksets(-1, 0)


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
    kv = rep.to_kv_lines(include_elapsed=False)
    assert kv[0] == "ambient dot"
    assert all(not line.startswith("elapsed") for line in kv)
    assert any(line.startswith("elapsed") for line in rep.to_kv_lines())


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
