"""Brute-force enumeration ground truth over small finite fields.

Everything here recounts objects from their definitions: subspaces are
generated as reduced row echelon matrices, classified through Gram
determinant square classes, and tallied.  The closed-form module must agree
with these counts; no formula beyond the Gaussian binomial (used for budget
estimates) is consulted.

The kernel works on field element indices and lookup tables.  The k x n
matrices of one row layout are the codes whose base-q digits are the free
entries of their rows, row by row; a row may also hold a pivot 1.  A code
is l + q^f0 * h, where l holds row 0's f0 free digits and h the digits of
rows 1..k-1, and a task is a block of h values x l values.  One Gram plan
per row layout reads every Gram entry off l and h: row j's free columns
are the last ones of every earlier row i, and row i is 0 at row j's pivot,
so B(r_i, r_j) pairs row j's digits with the top digits of row i's block
only, and small per-digit-group tables of sum d_c * x_c * y_c turn it
into one gather per group of digits.  So the Gram block C of rows 1..k-1
is made once per h value, g00 = B(r_0, r_0) once per l value, and only
b_j = B(r_0, r_j) for j = 1..k-1 at full block size.  Subspace counts and
the poset's nodes take the determinant as the bordered expansion
det G = g00 det C - b^T adj(C) b (Horn and Johnson, Matrix Analysis,
0.8.5), which holds over any commutative ring: no division and no case
for a singular C.  The isometry scan lays out a candidate matrix the same
way, its columns as the rows: it keeps the h values whose C is diagonal
and d-weighted before pairing them with column 0.

Every full-size (h values x l values) array of a count or poset block is
written into a workspace that each process keeps and reuses across
blocks: the k-1 entries b_j, the determinant and z accumulators of the
bordered expansion and one temporary, sized by _CHUNK so that short blocks
and every row layout share them.  A field op there is x * q + y formed in
place and a gather with take(out=, mode='clip'); only the h-side and
l-side arrays, and the class codes a block returns, are new.  Clipping
never acts: every add, mul, neg, digit-group and diagonal table is checked
once, where it is built, to hold field indices in [0, q), so every index
x * q + y and every digit-group index is in range by construction.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from .closed import gaussian_binom
from .errors import BudgetExceeded, IdentityViolated, Mismatch, UndefinedForParameters
from .gf import SquareClass, make_field
from .quadspace import (
    DEFAULT_BUDGET,
    DEFAULT_POSET_BUDGET,
    AmbientForm,
    AmbientKind,
    PosetKind,
    Subspace,
    SubspaceClass,
    contains,  # noqa: F401  unused here; the benchmark tracer counts its calls
    full_subspace,
    zero_subspace,
)
from .symsets import count_symmetric_ksets  # noqa: F401  re-exported; verify calls it here
# Codes per block.  Each of a block's k + 2 workspace buffers is 256 KB;
# the six large count cells of the benchmark ran 1.2x slower at 1 << 14
# and no faster at 1 << 16.
_CHUNK = 1 << 15
_GROUP_CAP = 1 << 16  # entries of one digit-group Gram table
_TABLE_BLOCK = 1 << 16  # table entries built per block of rows
# q^2 entries of each q x q table.  A count on the lambda-dot ambient at
# q = 1009 and at q = 2003 peaked 33 bytes per entry above its start (the
# uint16 tables, their intp copies and two one-digit group tables), so
# the limit keeps the tables near 140 MB: q = 2039 is the largest prime in.
# Every q it admits is below 2^16, so the uint16 element indices fit.
_MAX_TABLE_ENTRIES = 1 << 22
# A count of fewer subspaces runs in-process whatever ``jobs`` says: below
# it, starting a pool costs more than the extra workers save (break-even
# between 0.6e6 and 0.9e6 subspaces on 2 cores).
_POOL_MIN_SUBSPACES = 750_000

_CLASS_CODES = {
    SquareClass.ZERO: 0,
    SquareClass.SQUARE: 1,
    SquareClass.NON_SQUARE: 2,
}


def _price_tables(q: int) -> None:
    """Refuse a field whose lookup tables are too large, before any is built."""
    if q * q > _MAX_TABLE_ENTRIES:
        raise BudgetExceeded(
            f"field tables of {q * q} entries at q={q} exceed the limit "
            f"of {_MAX_TABLE_ENTRIES} entries"
        )


@lru_cache(maxsize=None)
def _field_tables(p: int, e: int):
    """Index-level (add, mul, neg, square-class) lookup tables, cached per process.

    Element index i has base-p digits i_t = (i // p^t) % p, the polynomial
    coefficients of the element, constant term first.  The tables are built
    a block of rows at a time, so no temporary holds more than about
    (2e - 1) * _TABLE_BLOCK integers.
    """
    q = p**e
    _price_tables(q)
    field = make_field(p, e)
    dtype = np.uint8 if q <= 0xFF else np.uint16
    index = np.arange(q, dtype=np.int64)
    weights = p ** np.arange(e, dtype=np.int64)
    digits = index[:, None] // weights % p  # digits[i, t]
    neg = ((-digits) % p @ weights).astype(dtype)
    add = np.empty((q, q), dtype=dtype)
    mul = np.empty((q, q), dtype=dtype)
    modulus = field.modulus
    rows = max(1, _TABLE_BLOCK // q)
    for lo in range(0, q, rows):
        a = digits[lo:lo + rows, None, :]  # (rows, 1, e)
        b = digits[None, :, :]  # (1, q, e)
        add[lo:lo + rows] = ((a + b) % p) @ weights
        prod = [0] * (2 * e - 1)
        for s in range(e):
            for t in range(e):
                prod[s + t] = prod[s + t] + a[..., s] * b[..., t]
        # reduce modulo the monic modulus, top coefficient first
        for s in range(2 * e - 2, e - 1, -1):
            c = prod[s] % p
            for t in range(e):
                prod[s - e + t] = prod[s - e + t] - c * modulus[t]
        mul[lo:lo + rows] = sum((prod[t] % p) * weights[t] for t in range(e))
    # Euler's criterion by square-and-multiply on the mul table
    power = np.ones(q, dtype=np.int64)
    base = index.copy()
    exponent = (q - 1) // 2
    while exponent:
        if exponent & 1:
            power = mul[power, base].astype(np.int64)
        base = mul[base, base].astype(np.int64)
        exponent >>= 1
    minus_one = p - 1  # the index of -1 = (p - 1, 0, ..., 0)
    klass = np.zeros(q, dtype=np.int8)
    klass[power == 1] = _CLASS_CODES[SquareClass.SQUARE]
    klass[power == minus_one] = _CLASS_CODES[SquareClass.NON_SQUARE]
    bad = np.flatnonzero((power[1:] != 1) & (power[1:] != minus_one)) + 1
    if bad.size:
        raise IdentityViolated("euler-criterion", (p, e), int(bad[0]), int(power[bad[0]]))
    return add, mul, neg, klass


def _field_indices(table, q: int):
    """``table`` itself, refused unless every entry is a field index in [0, q).

    The kernel gathers with mode='clip', which clamps an index out of range
    where mode='raise' would refuse it.  Its indices x * q + y and digit
    groups are in range only because every table it gathers from holds
    field indices, so that is checked here, once per table built, by a
    check that python -O keeps.
    """
    if table.size and not (0 <= table.min() and table.max() < q):
        raise IdentityViolated("field-index-range", q, int(table.min()), int(table.max()))
    return table


def _pattern_rows(pattern, n: int):
    """(pivot column, free columns) of each RREF row for a pivot-column pattern."""
    return tuple(
        (pc, tuple(c for c in range(pc + 1, n) if c not in pattern)) for pc in pattern
    )


def _free_positions(pattern, n: int):
    """RREF free-entry slots for a pivot-column pattern, in digit order."""
    return [(r, c) for r, (_, cols) in enumerate(_pattern_rows(pattern, n)) for c in cols]


def _group_width(q: int) -> int:
    """Free digits per group: the most whose q^w x q^w table fits _GROUP_CAP, at least 1."""
    w = 1
    while q ** (2 * w + 2) <= _GROUP_CAP:
        w += 1
    return w


@lru_cache(maxsize=None)
def _flat_tables(p: int, e: int):
    """The field tables as flat intp arrays: a op b is table[a * q + b]."""
    add, mul, neg, klass = _field_tables(p, e)
    q = p**e
    return (_field_indices(add.ravel().astype(np.intp), q),
            _field_indices(mul.ravel().astype(np.intp), q),
            _field_indices(neg.astype(np.intp), q), klass)


@lru_cache(maxsize=None)
def _group_table(p: int, e: int, diag: tuple):
    """Flat table of sum_t diag[t] * a_t * b_t over a digit group, at a * q^w + b.

    a_t, b_t are the base-q digits of a and b, digit t paired with diag[t].
    """
    add, mul, _, _ = _field_tables(p, e)
    q = p**e
    values = np.arange(q ** len(diag), dtype=np.intp)
    table = np.zeros((values.size, values.size), dtype=np.intp)
    for t, d in enumerate(diag):
        digit = values // q**t % q
        prod = mul[digit[:, None], digit[None, :]]
        if d != 1:
            prod = mul[d, prod]
        table = add[table, prod]
    return _field_indices(table.ravel().astype(np.intp), q)


@lru_cache(maxsize=64)
def _gram_plan(p: int, e: int, diag_idx: tuple, rows: tuple, width: int):
    """How to read each upper Gram entry of a row layout off a block of codes.

    ``rows`` holds (pivot column or None, free columns) per row.  A code is
    l + q^f0 * h: l holds row 0's f0 free digits and h the digits of rows
    1..k-1, row r's at h digits start[r] .. start[r] + f[r] - 1, each row in
    increasing column order.  For rows i < j, row j's free columns must be
    the last f[j] of row i's and row i must be 0 at row j's pivot, so
    B(r_i, r_j) pairs row j's digits with the top f[j] digits of row i's
    block only.  Each row's digits are split into groups of at most
    ``width`` from the top.  plan[i, j] is the entry as a field index when
    it does not depend on the code, else a list of terms
    (a_power, b_power, w, table) whose field sum is the entry; a term is
    table[digit(x_i, a_power, w) * q^w + digit(x_j, b_power, w)] off the
    diagonal and table[digit(x_j, b_power, w)] on it (a_power None), where
    digit(x, s, w) = x // q^s % q^w and x_r is l for row 0 and h for every
    other row.  So the Gram block C of rows 1..k-1 reads h alone, g00 =
    plan[0, 0] reads l alone, and only b_j = plan[0, j] reads both.
    """
    add, _, _, _ = _field_tables(p, e)
    q = p**e
    start = [0, *itertools.accumulate((len(cols) for _, cols in rows[1:]), initial=0)]
    plan = {}
    for j, (pc, cols) in enumerate(rows):
        groups = []
        for hi in range(len(cols), 0, -width):
            lo = max(hi - width, 0)
            table = _group_table(p, e, tuple(diag_idx[c] for c in cols[lo:hi]))
            groups.append((lo, hi - lo, table))
        for i in range(j):
            shift = start[i] + len(rows[i][1]) - len(cols)  # top f[j] digits of row i
            plan[i, j] = [(shift + lo, start[j] + lo, w, table) for lo, w, table in groups] or 0
        diagonal = [
            (None, start[j] + lo, w, table[:: q**w + 1].copy()) for lo, w, table in groups
        ]
        pivot = 0 if pc is None else diag_idx[pc]  # B(r_j, r_j) = d_pivot + the free terms
        if diagonal:
            _, power, w, table = diagonal[0]
            diagonal[0] = (None, power, w, _field_indices(add[pivot, table].astype(np.intp), q))
        plan[j, j] = diagonal or pivot
    return plan


def _gather(table, x, y, scale: int, out=None):
    """table[x * scale + y], written into ``out`` when it is given.

    ``out`` must have the full broadcast shape and must not be ``y``, which
    is read after ``out`` is first written; ``x`` may be ``out``.  The
    gather reads each index before it writes over it.  It clips because
    take(out=) with mode='raise' writes a copy first (see _field_indices).
    """
    if out is None:
        return table.take(x * scale + y, mode="clip")
    # a small x is scaled at its own size, not broadcast to out's
    np.add(np.multiply(x, scale, out=out) if x is out else x * scale, y, out=out)
    return table.take(out, out=out, mode="clip")


def _gram_entries(plan, l, h, add, q: int, pairs, out=None, temp=None):
    """The Gram entries ``pairs`` of a block: field indices where constant, else
    arrays over l for row 0, over h for the other rows, broadcast where both.

    An entry whose pair is a key of ``out`` is written into that full-size
    buffer, with ``temp`` holding each further digit group's term; the other
    entries are new arrays.
    """
    sides = (l, h)
    digits = {}

    def digit(row, power, w):
        key = (min(row, 1), power, w)
        if key not in digits:
            digits[key] = sides[key[0]] // q**power % q**w
        return digits[key]

    gram = {}
    for i, j in pairs:
        entry = plan[i, j]
        if isinstance(entry, list):
            buf = out.get((i, j)) if out else None
            spare = None if buf is None else temp
            acc = None
            for a_power, b_power, w, table in entry:
                y = digit(j, b_power, w)
                if a_power is None:
                    term = table.take(y, mode="clip")
                else:
                    term = _gather(table, digit(i, a_power, w), y, q**w,
                                   buf if acc is None else spare)
                acc = term if acc is None else _gather(add, acc, term, q, buf)
            entry = acc
        gram[i, j] = gram[j, i] = entry
    return gram


class _Minors(dict):
    """det G[rows, cols] of a Gram dict, made on first lookup by cofactor
    expansion along rows[0] that skips constant 0 entries; each minor is
    made once.  1 is the field index of 1, the empty determinant.

    A recursive closure would refer to itself, a reference cycle that keeps
    every block's arrays alive until the garbage collector runs.
    """

    def __init__(self, gram, fmul, fadd, neg):
        super().__init__({((), ()): 1})
        self.gram, self.fmul, self.fadd, self.neg = gram, fmul, fadd, neg

    def __missing__(self, key):
        rows, cols = key
        acc = None
        for idx, c in enumerate(cols):
            entry = self.gram[rows[0], c]
            if isinstance(entry, int) and entry == 0:
                continue
            term = self.fmul(entry, self[rows[1:], cols[:idx] + cols[idx + 1:]])
            if idx % 2:
                term = self.neg.take(term)
            acc = term if acc is None else self.fadd(acc, term)
        self[key] = 0 if acc is None else acc
        return self[key]


def _determinant(gram, k: int, add, mul, neg, q: int, det, z, temp):
    """det G = g00 det C - b^T adj(C) b, for C the Gram block of rows 1..k-1
    and b_j = G[0, j].

    The bordered expansion holds over any commutative ring, so a singular C
    needs no branch.  det C and adj(C) are cofactor expansions over h-side
    arrays.  C is symmetric, so adj(C) is too, and
    b^T adj(C) b = sum_i b_i (A_ii b_i + sum_{j>i} 2 A_ij b_j) with the
    negated A_ii and 2 A_ij made on the h side: full block size is reached
    only by products with b and the sum with g00 det C, which are written
    into the full-size buffers ``det`` (returned), ``z`` and ``temp``.
    """
    if k == 1:
        return gram[0, 0]

    def fmul(x, y, out=None):
        return _gather(mul, x, y, q, out)

    def fadd(x, y, out=None):
        return _gather(add, x, y, q, out)

    minors = _Minors(gram, fmul, fadd, neg)
    inner = tuple(range(1, k))
    drop = {i: inner[:i - 1] + inner[i:] for i in inner}
    fmul(gram[0, 0], minors[inner, inner], det)
    for i in inner:
        # for i <= j, -adj(C)[i, j] = -(-1)^(i+j) det(C without row i and column j)
        neg_adj = [
            minors[drop[i], drop[j]] if (i + j) % 2 else neg.take(minors[drop[i], drop[j]])
            for j in inner[i - 1:]
        ]
        fmul(neg_adj[0], gram[0, i], z)
        for j, a in zip(inner[i:], neg_adj[1:]):
            fadd(z, fmul(fadd(a, a), gram[0, j], temp), z)
        fadd(det, fmul(z, gram[0, i], z), det)
    return det


def _chunk_tasks(field, diag_idx: tuple, rows: tuple):
    """Blocks of h values x l values covering every code l + q^f0 * h of a row
    layout in code order, at most _CHUNK codes each.

    A block holds whole rows of l values when they fit, so row 0 is split
    only when q^f0 > _CHUNK, and then a block holds one h value.
    """
    q = field.q
    size_l = q ** len(rows[0][1])
    size_h = q ** sum(len(cols) for _, cols in rows[1:])
    if size_l <= _CHUNK:
        step = _CHUNK // size_l
        blocks = [((h, min(h + step, size_h)), (0, size_l)) for h in range(0, size_h, step)]
    else:
        blocks = [((h, h + 1), (l, min(l + _CHUNK, size_l)))
                  for h in range(size_h) for l in range(0, size_l, _CHUNK)]
    return [(field.p, field.e, diag_idx, rows, hs, ls) for hs, ls in blocks]


@lru_cache(maxsize=1)
def _workspace(count: int, size: int):
    """``count`` intp buffers of ``size`` entries, reused by every block of a
    process; a call with another (count, size) replaces them."""
    return np.empty((count, size), dtype=np.intp)


def _chunk_classes(task):
    """Square-class codes of the Gram determinants of one block, shape (h values, l values).

    The result is a new array: none of the workspace buffers escapes.
    """
    p, e, diag_idx, rows, (h_lo, h_hi), (l_lo, l_hi) = task
    add, mul, neg, klass = _flat_tables(p, e)
    q = p**e
    k = len(rows)
    plan = _gram_plan(p, e, diag_idx, rows, _group_width(q))
    h = np.arange(h_lo, h_hi)[:, None]
    l = np.arange(l_lo, l_hi)[None, :]
    shape = (h_hi - h_lo, l_hi - l_lo)
    size = shape[0] * shape[1]
    # b_1..b_{k-1}, det, z and a temporary.  Sized by _CHUNK, not by the
    # block, so short blocks and every row layout share one set.
    buffers = [b[:size].reshape(shape) for b in _workspace(k + 2, max(size, _CHUNK))]
    cross = {(0, j): buffers[j - 1] for j in range(1, k)}
    det, z, temp = buffers[k - 1:]
    gram = _gram_entries(plan, l, h, add, q, plan, cross, temp)
    det = _determinant(gram, k, add, mul, neg, q, det, z, temp)
    # take copies a read-only index array such as a broadcast view, so the
    # codes are broadcast after the gather: at k = 1, det is g00 alone
    return np.broadcast_to(klass.take(det), shape)


def _chunk_tallies(task):
    """(square, non-square, zero) tallies for one block.

    Counted class by class: bincount would cast the int8 codes to a new
    full-size intp array.
    """
    classes = _chunk_classes(task)
    square = int(np.count_nonzero(classes == _CLASS_CODES[SquareClass.SQUARE]))
    non_square = int(np.count_nonzero(classes == _CLASS_CODES[SquareClass.NON_SQUARE]))
    return square, non_square, classes.size - square - non_square


def _run_tasks(worker, tasks, jobs: int):
    # more workers than cores only adds process start-up
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunksize = max(1, len(tasks) // (jobs * 4))
        return list(pool.map(worker, tasks, chunksize=chunksize))


def _subspace_total(ambient: AmbientForm, k: int, budget: int) -> int:
    """Number of k-subspaces, refused when k is out of range or over budget."""
    q, n = ambient.field.q, ambient.n
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"k = {k} outside 0..{n}")
    total = gaussian_binom(q, n, k)
    if total > budget:
        raise BudgetExceeded(
            f"{total} subspaces at (q={q}, n={n}, k={k}) exceed budget {budget}"
        )
    return total


def count_subspaces_by_class(
    ambient: AmbientForm, k: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
):
    """Exhaustive classification tally of all k-subspaces."""
    field = ambient.field
    n = ambient.n
    total = _subspace_total(ambient, k, budget)
    if k == 0:
        # the zero subspace is dot-type by convention
        return {
            SubspaceClass.DOT_TYPE: 1,
            SubspaceClass.LAMBDA_DOT_TYPE: 0,
            SubspaceClass.DEGENERATE: 0,
        }
    _price_tables(field.q)
    if total < _POOL_MIN_SUBSPACES:
        jobs = 1
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    tasks = [
        task
        for pattern in itertools.combinations(range(n), k)
        for task in _chunk_tasks(field, diag_idx, _pattern_rows(pattern, n))
    ]
    square = non_square = zero = 0
    for s, ns, z in _run_tasks(_chunk_tallies, tasks, jobs):
        square += s
        non_square += ns
        zero += z
    if square + non_square + zero != total:
        raise Mismatch(
            f"{square + non_square + zero} subspaces tallied at "
            f"(q={field.q}, n={n}, k={k}), expected {total}"
        )
    return {
        SubspaceClass.DOT_TYPE: square,
        SubspaceClass.LAMBDA_DOT_TYPE: non_square,
        SubspaceClass.DEGENERATE: zero,
    }


def count_lines(ambient: AmbientForm, budget: int = DEFAULT_BUDGET, jobs: int = 1):
    """(spacelike, timelike, lightlike) tallies over all lines through 0."""
    tallies = count_subspaces_by_class(ambient, 1, budget=budget, jobs=jobs)
    return (
        tallies[SubspaceClass.DOT_TYPE],
        tallies[SubspaceClass.LAMBDA_DOT_TYPE],
        tallies[SubspaceClass.DEGENERATE],
    )


def enumerate_subspaces(ambient: AmbientForm, k: int, budget: int = DEFAULT_BUDGET):
    """Yield every k-subspace exactly once, as canonical RREF values."""
    field = ambient.field
    n = ambient.n
    _subspace_total(ambient, k, budget)
    if k == 0:
        yield zero_subspace(ambient)
        return
    elements = list(field.elements())
    zero, one = field.zero, field.one
    for pattern in itertools.combinations(range(n), k):
        slots = _free_positions(pattern, n)
        for assignment in itertools.product(range(field.q), repeat=len(slots)):
            rows = [[zero] * n for _ in range(k)]
            for r, pc in enumerate(pattern):
                rows[r][pc] = one
            for (r, c), v in zip(slots, assignment):
                rows[r][c] = elements[v]
            yield Subspace(ambient, tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class PosetSnapshot:
    """Graded inclusion poset with adjoined bottom (zero) and top (full space).

    ``masks[i]`` holds node i's vectors as bits: vector x is bit
    sum_t index(x_t) * q^t.  The bottom is 1 (the zero vector) and the top is
    -1 (every bit), so node i lies in node j exactly when masks[i] & masks[j]
    == masks[i].
    """

    ambient: AmbientForm
    poset_kind: PosetKind
    nodes: tuple  # (Subspace, rank) pairs, sorted by rank
    hasse_edges: tuple  # (lower node index, upper node index)
    masks: tuple  # one int per node

    def rank_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (self.ambient.n + 1)
        for _, rank in self.nodes:
            sizes[rank] += 1
        return tuple(sizes)


def _vector_masks(field, n: int, bases: list) -> list[int]:
    """Bitmask of the vectors spanned by each basis of field-index rows."""
    if not bases:
        return []  # no tables: they cost O(q^2) to build
    add, mul, _, _ = _field_tables(field.p, field.e)
    q = field.q
    weights = q ** np.arange(n, dtype=np.int64)
    bits = np.zeros(q**n, dtype=bool)
    masks = []
    for basis in bases:
        vecs = np.zeros((1, n), dtype=add.dtype)
        for row in basis:
            # multiples[s, t] = s * row[t]; add every multiple to every vector so far
            multiples = mul[:, row]
            vecs = add[vecs[:, None, :], multiples[None, :, :]].reshape(-1, n)
        bits[:] = False
        bits[vecs.astype(np.int64) @ weights] = True
        packed = np.packbits(bits, bitorder="little")
        masks.append(int.from_bytes(packed.tobytes(), "little"))
    return masks


def build_poset(
    ambient: AmbientForm, poset_kind: PosetKind, budget: int = DEFAULT_POSET_BUDGET
) -> PosetSnapshot:
    """Euclidean (dot-type) or Lorentzian (lambda-dot-type) inclusion poset.

    ``budget`` bounds both the subspaces scanned and the 64-bit words of the
    intermediate nodes' vector masks.  Nodes come in enumerate_subspaces order.
    """
    poset_kind = PosetKind(poset_kind)
    field, n = ambient.field, ambient.n
    q = field.q
    scan_total = sum(gaussian_binom(q, n, k) for k in range(n + 1))
    if scan_total > budget:
        raise BudgetExceeded(
            f"poset scan of {scan_total} subspaces exceeds budget {budget}"
        )
    mask_words = -(-(q**n) // 64)
    # for n >= 2 a nondegenerate form takes every value, so both kinds have a
    # line node: refuse a single mask over budget, or tables over their
    # limit, before any table is built
    if n >= 2:
        if mask_words > budget:
            raise BudgetExceeded(
                f"one vector mask at (q={q}, n={n}) takes {mask_words} 64-bit words, "
                f"exceeding budget {budget}"
            )
        _price_tables(q)
    wanted = _CLASS_CODES[
        SquareClass.SQUARE if poset_kind is PosetKind.EUCLIDEAN else SquareClass.NON_SQUARE
    ]
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    elements = list(field.elements())
    nodes, bases = [(zero_subspace(ambient), 0)], []
    for k in range(1, n):
        for pattern in itertools.combinations(range(n), k):
            slots = _free_positions(pattern, n)
            tasks = _chunk_tasks(field, diag_idx, _pattern_rows(pattern, n))
            # the blocks cover codes 0, 1, ... in order, and code h * q^f0 + l
            # is the flat index of (h, l) within them
            classes = np.concatenate([_chunk_classes(t).ravel() for t in tasks])
            codes = np.flatnonzero(classes == wanted)
            # slot s is code digit s, but itertools.product, and so
            # enumerate_subspaces, makes slot 0 the most significant
            digits = codes[:, None] // q ** np.arange(len(slots)) % q
            digits = digits[np.argsort(digits @ q ** np.arange(len(slots))[::-1])]
            basis = np.zeros((len(digits), k, n), dtype=np.intp)
            basis[:, np.arange(k), list(pattern)] = 1
            for s, (r, c) in enumerate(slots):
                basis[:, r, c] = digits[:, s]
            for rows in basis.tolist():
                bases.append(rows)
                node = tuple(tuple(elements[v] for v in row) for row in rows)
                nodes.append((Subspace(ambient, node), k))
    words = len(bases) * mask_words
    if words > budget:
        raise BudgetExceeded(
            f"vector masks of {len(bases)} subspaces at (q={q}, n={n}) take "
            f"{words} 64-bit words, exceeding budget {budget}"
        )
    nodes.append((full_subspace(ambient), n))
    masks = [1] + _vector_masks(field, n, bases) + [-1]
    by_rank: dict[int, list[int]] = {}
    for idx, (_, rank) in enumerate(nodes):
        by_rank.setdefault(rank, []).append(idx)
    ranks_present = sorted(by_rank)
    edges = []
    for lo_rank, hi_rank in zip(ranks_present, ranks_present[1:]):
        for hi in by_rank[hi_rank]:
            big = masks[hi]
            for lo in by_rank[lo_rank]:
                if masks[lo] & big == masks[lo]:
                    edges.append((lo, hi))
    return PosetSnapshot(
        ambient, poset_kind, tuple(nodes), tuple(edges), tuple(masks)
    )


def count_flags(snapshot: PosetSnapshot) -> int:
    """Maximal chains from bottom to top, by rank-layered dynamic programming."""
    if snapshot.poset_kind is not PosetKind.EUCLIDEAN:
        raise UndefinedForParameters("flag counts are defined on the Euclidean poset")
    ways = [0] * len(snapshot.nodes)
    ways[0] = 1
    for lo, hi in sorted(snapshot.hasse_edges, key=lambda e: snapshot.nodes[e[0]][1]):
        ways[hi] += ways[lo]
    return ways[-1]


def mobius_bottom(snapshot: PosetSnapshot) -> int:
    """Mobius value mu(0, top) by the definitional recursion over the order."""
    masks = snapshot.masks
    mu = [0] * len(masks)
    mu[0] = 1
    for y in range(1, len(masks)):
        big = masks[y]
        mu[y] = -sum(mu[z] for z in range(y) if masks[z] & big == masks[z])
    return mu[-1]


def _orthogonal_block(task):
    """Isometries in one block of candidate matrices, row r of the layout being column r.

    The h side, columns 1..n-1, must have the Gram block diag(d_1..d_{n-1});
    only its survivors are paired with the block's column-0 values that have
    B(c_0, c_0) = d_0, which must then be orthogonal to columns 1..n-1.
    """
    p, e, diag_idx, rows, (h_lo, h_hi), (l_lo, l_hi) = task
    add = _flat_tables(p, e)[0]
    q = p**e
    plan = _gram_plan(p, e, diag_idx, rows, _group_width(q))
    c_entries = [(i, j) for i, j in plan if i > 0]
    h = np.arange(h_lo, h_hi)
    gram = _gram_entries(plan, None, h, add, q, c_entries)
    keep = np.ones(h.size, dtype=bool)
    for i, j in c_entries:
        keep &= gram[i, j] == (diag_idx[i] if i == j else 0)
    l = np.arange(l_lo, l_hi)
    l = l[_gram_entries(plan, l, None, add, q, [(0, 0)])[0, 0] == diag_idx[0]]
    cross = [(0, j) for j in range(1, len(rows))]
    gram = _gram_entries(plan, l[None, :], h[keep][:, None], add, q, cross)
    found = np.ones((np.count_nonzero(keep), l.size), dtype=bool)
    for pair in cross:
        found &= gram[pair] == 0
    return int(np.count_nonzero(found))


def enumerate_orthogonal_group(
    ambient: AmbientForm, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> int:
    """Order of the isometry group, by scanning all n x n matrices.

    A candidate M is a code of n * n base-q digits: column i takes digits
    i * n .. i * n + n - 1, so M[t, i] is digit i * n + t.  M is counted when
    the Gram matrix of its columns is diag(gram_diag).
    """
    field = ambient.field
    n = ambient.n
    total = field.q ** (n * n)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate matrices at (q={field.q}, n={n}) exceed budget {budget}"
        )
    _price_tables(field.q)
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    columns = ((None, tuple(range(n))),) * n  # n free entries each, no pivot
    return sum(_run_tasks(_orthogonal_block, _chunk_tasks(field, diag_idx, columns), jobs))


_LABEL_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _node_label(sub: Subspace) -> str:
    """Basis rows as base-p digit strings joined by commas; bottom is '-'."""
    if sub.k == 0:
        return "-"
    p = sub.ambient.field.p
    if p >= len(_LABEL_DIGITS):
        raise UndefinedForParameters(f"p = {p} too large for digit labels")
    rows = []
    for row in sub.basis:
        rows.append("".join(_LABEL_DIGITS[c] for x in row for c in x.coeffs))
    return ",".join(rows)


def hasse_edge_lines(snapshot: PosetSnapshot) -> list[str]:
    """One 'lower upper' labelled edge per line."""
    labels = [_node_label(sub) for sub, _ in snapshot.nodes]
    return [f"{labels[lo]} {labels[hi]}" for lo, hi in snapshot.hasse_edges]


def export_hasse(snapshot: PosetSnapshot, path) -> None:
    # labels can fail, so they are all made before the file is opened
    text = "\n".join(hasse_edge_lines(snapshot)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass(frozen=True)
class CountReport:
    """Full enumeration summary for one ambient space."""

    ambient_kind: AmbientKind
    q: int
    n: int
    tallies: tuple  # (k, dot, lambda_dot, degenerate) per dimension
    lines: tuple  # (spacelike, timelike, lightlike)
    flag_count: object  # int, or None when the poset is out of budget
    mobius_bottom_to_top: object
    elapsed: float

    def to_kv_lines(self, include_elapsed: bool = True) -> list[str]:
        out = [
            f"ambient {self.ambient_kind.value}",
            f"q {self.q}",
            f"n {self.n}",
        ]
        for k, d, l, z in self.tallies:
            out.append(f"subspaces k={k} dot={d} lambda_dot={l} degenerate={z}")
        s, t, li = self.lines
        out.append(f"lines spacelike={s} timelike={t} lightlike={li}")
        flags = "-" if self.flag_count is None else str(self.flag_count)
        mob = "-" if self.mobius_bottom_to_top is None else str(self.mobius_bottom_to_top)
        out.append(f"flag_count {flags}")
        out.append(f"mobius_bottom_to_top {mob}")
        # wall-clock time is excluded from byte-stable renderings
        if include_elapsed:
            out.append(f"elapsed_seconds {self.elapsed:.3f}")
        return out


def full_count_report(
    ambient: AmbientForm,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    poset_budget: int = DEFAULT_POSET_BUDGET,
) -> CountReport:
    """Tallies for every dimension plus poset summaries when in budget."""
    started = perf_counter()
    tallies = []
    for k in range(ambient.n + 1):
        by_class = count_subspaces_by_class(ambient, k, budget=budget, jobs=jobs)
        tallies.append(
            (
                k,
                by_class[SubspaceClass.DOT_TYPE],
                by_class[SubspaceClass.LAMBDA_DOT_TYPE],
                by_class[SubspaceClass.DEGENERATE],
            )
        )
    lines = tallies[1][1:] if ambient.n >= 1 else (0, 0, 0)
    flag_count = mobius = None
    # flag and Mobius summaries belong to the Euclidean poset of the dot ambient
    if ambient.kind is AmbientKind.DOT:
        try:
            snapshot = build_poset(ambient, PosetKind.EUCLIDEAN, budget=poset_budget)
        except BudgetExceeded:
            snapshot = None
        if snapshot is not None:
            flag_count = count_flags(snapshot)
            mobius = mobius_bottom(snapshot)
    return CountReport(
        ambient_kind=ambient.kind,
        q=ambient.field.q,
        n=ambient.n,
        tallies=tuple(tallies),
        lines=lines,
        flag_count=flag_count,
        mobius_bottom_to_top=mobius,
        elapsed=perf_counter() - started,
    )
