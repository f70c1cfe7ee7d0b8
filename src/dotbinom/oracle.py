"""Brute-force enumeration ground truth over small finite fields.

Everything here recounts objects from their definitions: subspaces are
generated as reduced row echelon matrices, classified through Gram
determinant square classes, and tallied.  The closed-form module must agree
with these counts; no formula beyond the Gaussian binomial (used for budget
estimates) is consulted.

Every layer reads one checked set of field tables per process
(_field_tables): add digit by digit, mul through the logs of a primitive
element, and the square classes by log parity (_arithmetic_tables).

A count of k-subspaces is a Gram transfer, which lists no subspace.  An
RREF row holds 1 at its pivot and 0 at every other pivot, so a
k-subspace's Gram matrix is diag(d_p) over its pivots plus
d_c * x_c * x_c^T over its free columns c, x_c being column c on the rows
whose pivot lies left of c.  Walking the columns left to right, a state is
j pivots so far and their j x j partial Gram matrix S, and the walk keeps
a count per state: a pivot column of d maps S to S + [d] on the diagonal,
and a free column maps S to S + d * x * x^T for each x in F_q^j, one of
each pair {x, -x} at weight 2 and x = 0 at weight 1.  A free column
scatters only the live states, those of nonzero count: each target code
is a sum of gathers from small digit-group tables, and the counts are
added exactly, on int64 or Python ints (np.add.at), never through a
float64 sum.  The level-k states then hold every subspace's Gram matrix
with its multiplicity, and each state's determinant is classified once by
the cofactor expansion of _Minors.  States number q^(k (k + 1) / 2), so
for k > n / 2 the walk is read at level n - k instead, by orthogonal
complements: U -> U^perp pairs the k- and the (n - k)-subspaces of a
nondegenerate space, and a non-square product of every d swaps square
and non-square (_count).  An ambient with a zero diagonal entry,
which only a hand-built AmbientForm has, is read at level k.  So the
transfer costs a polynomial in n times an exponential in min(k, n - k).
Its counts are int64 under an a priori bound and Python ints beyond, and
a count whose level-m state array would pass the table limit is refused
before it starts.  The budget prices the subspaces.

After c columns the level-j states hold the tallies of the j-subspaces
of the first c columns, so _count reads cells (n, k) off one walk, each
admitted and checked against its total: count_table every cell of an
ambient, count_subspaces_by_class one and full_count_report one row.

The posets need every node, so build_poset classifies every RREF matrix
of each rank, in enumerate_subspaces order, _CHUNK matrices at a time.  A
block of codes, which may run across pivot patterns, is decoded into an
(N, k, n) array of field indices (_rref_matrices); each Gram entry is the
field sum over columns t of d_t * B[a, t] * B[b, t], formed by gathers
from the add and mul tables, and det G is classified by the cofactor
expansion of _Minors, as the transfer's states are.  Only the basis rows
of the wanted class are kept, as vector codes, and every refusal comes
before build_poset returns.  Rank sizes read the row codes alone; the
rest is made from them on first read: the nodes' Subspace objects, the
containment pairs and the Hasse edges.

Containment is generated, not tested pair by pair.  Let W be a rank-r node
with RREF basis B, pivots p_1 < ... < p_r, and C an s x r RREF matrix with
pivots Q.  Row i of C B is B's row Q_i plus later rows, so it leads with 1
at p_(Q_i), and C B restricted to B's pivot columns is C itself.  So C B is
in RREF, and C -> rowspace(C B) lists W's s-subspaces, each in canonical
form: its rows are the row codes rank s stores for it, if it is a node.
Each node's span, the codes of its q^r vectors, is made a group of upper
nodes at a time; the rows of every C are gathered from it and looked up
among rank s's row codes (_inclusion_pairs).  No elimination runs.  The
Hasse edges are the pairs of adjacent present ranks, and mu(0, .) is the
recursion mu_W = -1 - sum_{U<W} mu_U over every pair, in int64 while an a
priori bound on its sums holds and on Python ints beyond.

The isometry group is counted as frames of columns, one column at a time
among the vectors of the wanted norm orthogonal to those chosen so far; it
reads the field tables alone (enumerate_orthogonal_group).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .closed import gaussian_binom
from .errors import (
    BudgetExceeded,
    IdentityViolated,
    Mismatch,
    UndefinedForParameters,
)
from .gf import SquareClass, make_field
from .quadspace import (
    DEFAULT_BUDGET,
    DEFAULT_POSET_BUDGET,
    AmbientForm,
    AmbientKind,
    PosetKind,
    Subspace,
    SubspaceClass,
    ambient_space,
    contains,  # noqa: F401  unused here; the benchmark tracer counts its calls
    full_subspace,
    zero_subspace,
)
# Codes per block: a poset block's basis is _CHUNK x k x n intp entries
# (7.9 MB at k = 5, n = 6), and a transfer scatters from about _CHUNK
# targets at a time.
_CHUNK = 1 << 15
# table entries built per block of rows, in one digit-group shift table,
# and in the span codes of one group of poset nodes
_TABLE_BLOCK = 1 << 16
# q^2 entries of each q x q table.  `oracle count --n 2` on the lambda-dot
# ambient peaked 22 to 32 bytes per entry above importing the CLI at
# q = 2003 and 1009 (numpy, intp add and mul, and an int32 shift table
# gathered from add by row blocks): q = 2039, the largest prime in, 102 MB.
# A transfer's level-m state array is held to the same number of entries.
_MAX_TABLE_ENTRIES = 1 << 22
# the Gram transfer and mobius_bottom sum in int64 while this bounds every
# count or partial sum, and on Python ints beyond
_INT64_LIMIT = 1 << 63

_CLASS_CODES = {SquareClass.ZERO: 0, SquareClass.SQUARE: 1, SquareClass.NON_SQUARE: 2}


def _price_tables(q: int) -> None:
    """Refuse a field whose lookup tables are too large, before any is built."""
    if q * q > _MAX_TABLE_ENTRIES:
        raise BudgetExceeded(
            f"field tables of {q * q} entries at q={q} exceed the limit "
            f"of {_MAX_TABLE_ENTRIES} entries"
        )


def _arithmetic_tables(field):
    """Index-level (add, mul, neg, log) tables of ``field`` as intp, not yet checked.

    Element index i has base-p digits i_t = (i // p^t) % p, the polynomial
    coefficients of the element, constant term first.  Addition is digit by
    digit, so the add table of t + 1 digits is the add table of Z/p at the
    top digit, scaled by p^t, plus the table of the t digits below it.

    mul reads the powers of a primitive element g, the first in index order
    (from p for e > 1: constants have order dividing p - 1) whose q - 1
    powers cover every nonzero index once; a ring has none and is refused.
    Row g * x is built digit by digit in int32, every intermediate below
    2 e p^2 < 2^31, and the powers by doubling.  With log[g^i] = i,
    log[0] = 2q - 2 and ext the power cycle twice then zeros,
    mul[a, b] = ext[log a + log b], zero included.
    """
    p, e, q = field.p, field.e, field.q
    index = np.arange(q, dtype=np.int32)
    weights = [p**t for t in range(e)]
    digits = [index // w % p for w in weights]  # digits[t][i]
    neg = sum((-d) % p * w for d, w in zip(digits, weights)).astype(np.intp)
    # row i of Z/p's add table is 0..p-1 rotated left by i, a strided view
    digit_add = np.lib.stride_tricks.sliding_window_view(
        np.tile(np.arange(p, dtype=np.intp), 2), p)[:p]
    add = digit_add.copy()
    for w in weights[1:]:
        add = (digit_add[:, None, :, None] * w + add[None, :, None, :]).reshape(p * w, p * w)
    for g in range(p if e > 1 else 2, q):
        prod = [sum(int(digits[s][g]) * digits[u - s] for s in range(e) if 0 <= u - s < e)
                for u in range(2 * e - 1)]
        # reduce modulo the monic modulus, top coefficient first
        for s in range(2 * e - 2, e - 1, -1):
            c = prod[s] % p
            for t in range(e):
                prod[s - e + t] = prod[s - e + t] - c * field.modulus[t]
        step = sum(prod[t] % p * weights[t] for t in range(e)).astype(np.intp)  # x -> g x
        powers = np.ones(1, dtype=np.intp)  # 1 is the field index of 1
        while powers.size < q - 1:
            powers = np.concatenate((powers, step[powers]))  # step: x -> g^size x
            step = step[step]
        powers = powers[:q - 1]
        if (np.bincount(powers, minlength=q)[1:] == 1).all():
            break
    else:
        raise IdentityViolated("primitive-element", (p, e), tuple(field.modulus))
    log = np.full(q, 2 * q - 2, dtype=np.intp)  # log 0 + any log is past both cycles
    log[powers] = np.arange(q - 1)
    ext = np.concatenate((powers, powers, np.zeros(2 * q - 1, dtype=np.intp)))
    mul = np.empty((q, q), dtype=np.intp)
    rows = max(1, _TABLE_BLOCK // q)
    for lo in range(0, q, rows):
        # clip never acts, as no sum passes 4q - 4; mode='raise' would buffer out
        ext.take(log[lo:lo + rows, None] + log, out=mul[lo:lo + rows], mode="clip")
    return add, mul, neg, log


@lru_cache(maxsize=None)
def _field_tables(p: int, e: int):
    """(add, mul, neg, square-class) tables, cached per process: the one
    checked set (_field_indices) that every layer of the oracle reads.  A
    nonzero element is a square exactly when its log is even."""
    q = p**e
    _price_tables(q)
    *tables, log = _arithmetic_tables(make_field(p, e))
    add, mul, neg = (_field_indices(t, q) for t in tables)
    klass = np.where(log % 2, _CLASS_CODES[SquareClass.NON_SQUARE],
                     _CLASS_CODES[SquareClass.SQUARE]).astype(np.int8)
    klass[0] = _CLASS_CODES[SquareClass.ZERO]
    return add, mul, neg, klass


def _field_indices(table, q: int):
    """``table`` itself, refused unless every entry is a field index in [0, q).

    _gather and the shift tables gather with mode='clip', which clamps an
    index out of range.  Their indices x * q + y and digit groups are in
    range only because every table they gather from holds field indices, so
    each of add, mul and neg is checked here by a check that python -O keeps.
    """
    if table.size and not (0 <= table.min() and table.max() < q):
        raise IdentityViolated("field-index-range", q, int(table.min()), int(table.max()))
    return table


def _free_positions(pattern, n: int):
    """RREF free-entry slots (row, column) for a pivot-column pattern, in digit order."""
    return [(r, c) for r, pc in enumerate(pattern) for c in range(pc + 1, n) if c not in pattern]


def _gather(table, x, y, scale: int):
    """table[x * scale + y].  It clips, which never acts: every table it
    reads holds field indices (see _field_indices)."""
    return table.take(x * scale + y, mode="clip")


class _Minors(dict):
    """det G[rows, cols] of a Gram dict, made on first lookup by cofactor
    expansion along rows[0] that skips constant 0 entries; each minor is
    made once.  1 is the field index of 1, the empty determinant, and a
    1 x 1 minor is its Gram entry itself, not a copy kept in the dict.

    A recursive closure would refer to itself, a reference cycle that keeps
    every block's arrays alive until the garbage collector runs.
    """

    def __init__(self, gram, fmul, fadd, neg):
        super().__init__({((), ()): 1})
        self.gram, self.fmul, self.fadd, self.neg = gram, fmul, fadd, neg

    def __missing__(self, key):
        rows, cols = key
        if len(rows) == 1:
            return self.gram[rows[0], cols[0]]
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


def _gram_classes(upper, k: int, p: int, e: int):
    """Square-class codes of det G for a k x k Gram matrix of field-index
    arrays, by the cofactor expansion of _Minors.  ``upper`` holds its upper
    triangle: entry (a, b), a <= b, at T(b) + a, T being _triangle."""
    add, mul, neg, klass = _field_tables(p, e)
    q = p**e
    gram = {}
    for b in range(k):
        for a in range(b + 1):
            gram[a, b] = gram[b, a] = upper[_triangle(b) + a]
    minors = _Minors(gram, lambda x, y: _gather(mul, x, y, q),
                     lambda x, y: _gather(add, x, y, q), neg)
    rows = tuple(range(k))
    return klass.take(minors[rows, rows])


def _triangle(j: int) -> int:
    """Upper-triangle entries of a j x j matrix: the digits of a level-j state,
    whose code holds its partial Gram matrix's entry (a, b), a <= b, at digit
    T(b) + a, T being _triangle: column by column, so a level-j code is the
    low T(j) digits of every level-(j + 1) code that extends it."""
    return j * (j + 1) // 2


@lru_cache(maxsize=8)
def _shift_tables(p: int, e: int, j: int, d: int):
    """(q^lo, q^w, table) for each digit group lo..lo + w - 1 of a level-j
    state code, for the shifts d * x * x^T, x running over one vector of
    each pair {x, -x} of F_q^j \\ {0}: the one of lower code.

    table[g, s] is the group's digits g plus shift s's digits there, field
    sums digit by digit, times q^lo; so the code of a state plus shift s is
    the sum over groups of table[code // q^lo % q^w, s].  A group is as wide
    as fits _TABLE_BLOCK entries, and at least one digit wide.
    """
    add, mul, neg, _ = _field_tables(p, e)
    q = p**e
    powers = q ** np.arange(j)[:, None]
    codes = np.arange(1, q**j)
    x = codes // powers % q  # x[a] is coordinate a of every nonzero vector
    x = x[:, codes < (neg[x] * powers).sum(axis=0)]  # the lower code of each pair
    # digit T(b) + a of every shift, in _triangle's order
    digits = [mul[d, mul[x[a], x[b]]] for b in range(j) for a in range(b + 1)]
    shifts = x.shape[1]
    rows = max(1, _TABLE_BLOCK // max(shifts, 1))  # level 0 has no shifts
    width = 1
    while width < len(digits) and q ** (width + 1) * shifts <= _TABLE_BLOCK:
        width += 1
    groups = []
    for lo in range(0, len(digits), width):
        table = None
        for t in range(lo, min(lo + width, len(digits))):
            # [g_t, s]: digit t of g plus shift s's, a block of add's rows at a
            # time.  Field indices, so clip never acts, and int32 holds every
            # code below q^T(j) <= 2^22.
            term = np.empty((q, shifts), dtype=np.int32)
            for r in range(0, q, rows):
                term[r:r + rows] = add[r:r + rows].take(digits[t], axis=1, mode="clip")
            term *= q**t
            table = term if table is None else (term[:, None, :] + table).reshape(-1, shifts)
        groups.append((q**lo, len(table), table))
    return groups


@lru_cache(maxsize=8)
def _state_classes(p: int, e: int, m: int):
    """Square-class codes of det S for every level-m state S, by the
    cofactor expansion of _Minors over the state digits.

    Each digit t < low runs over np.arange(q) on axis -1 - t, so C order is
    code order and each minor is formed only over the digits it reads.  A
    block holds the q^low <= _TABLE_BLOCK codes of one setting of the digits
    from low up, which are fixed ints, whose zeros _Minors skips.
    """
    q, digits = p**e, _triangle(m)
    classes = np.empty(q**digits, dtype=np.int8)
    low = max(t for t in range(digits + 1) if q**t <= _TABLE_BLOCK)
    axes = [np.arange(q).reshape((q,) + (1,) * t) for t in range(low)]
    for lo in range(0, classes.size, q**low):
        fixed = [lo // q**t % q for t in range(low, digits)]
        classes[lo:lo + q**low].reshape((q,) * low)[...] = _gram_classes(axes + fixed, m, p, e)
    return classes


def _column(p: int, e: int, levels, j: int, d: int, dtype):
    """The counts of the level-j states after one more column of d, from
    ``levels``, the counts before it.

    A state (j, S) is j pivots so far and their j x j partial Gram matrix S,
    stored as its upper triangle's digits (_triangle).  A pivot column of
    d maps S to S + [d] on the diagonal: level j - 1's counts are added to
    one slice of level j, at d * q^(T(j) - 1).  A free column of d keeps
    every count (x = 0) and adds twice each live state's count onto the
    state plus each shift of _shift_tables, _CHUNK targets at a time.
    """
    q = p**e
    old = levels.get(j)
    if old is None:  # the level's first column
        new = np.zeros(q ** _triangle(j), dtype=dtype)
    elif j:
        groups = _shift_tables(p, e, j, d)
        new = old.copy()
        shifts = groups[0][2].shape[1]
        step = max(1, _CHUNK // shifts)
        for block in range(0, old.size, _CHUNK):
            live = np.flatnonzero(old[block:block + _CHUNK]) + block
            for first in range(0, live.size, step):
                codes = live[first:first + step]
                targets = sum(table.take(codes // power % size, axis=0)
                              for power, size, table in groups)
                # flat: np.add.at takes a slow path for broadcast values
                np.add.at(new, targets.ravel(), np.repeat(2 * old[codes], shifts))
    else:
        return old
    if j - 1 in levels:
        start = d * q ** (_triangle(j) - 1)
        new[start:start + levels[j - 1].size] += levels[j - 1]
    return new


def _transfer_counts(p: int, e: int, diag, reads):
    """Yield {j: counts of the level-j states} after each column of a walk
    over ``diag`` (_column).

    ``reads`` holds the (c, j) pairs the caller reads: level j after c
    columns.  Level j after c columns feeds level j' after c' columns only
    when j <= j' <= j + c' - c, so a level is kept only while some pending
    read can still reach it, and the walk stops at the last column read.
    Counts are int64 while every state count kept, at most the Gaussian
    binomial of its prefix (c columns, j pivots), is below _INT64_LIMIT,
    and Python ints beyond; np.add.at adds either exactly.
    """
    last = max(c for c, _ in reads)
    live = [set() for _ in range(last + 1)]
    for c_read, j_read in reads:
        for c in range(c_read + 1):
            live[c].update(range(max(0, j_read - c_read + c), min(c, j_read) + 1))
    bound = max(gaussian_binom(p**e, c, j) for c in range(last + 1) for j in live[c])
    dtype = np.int64 if bound < _INT64_LIMIT else object
    levels = {0: np.ones(1, dtype=dtype)}
    for c, d in enumerate(diag[:last], 1):
        levels = {j: _column(p, e, levels, j, d, dtype) for j in live[c]}
        yield levels


def _walk_level(q: int, diag_idx: tuple, k: int) -> int:
    """The level m of a k-subspace count's walk: min(k, n - k), or k where
    a zero d makes the form degenerate; refused where the level-m state
    array would pass _MAX_TABLE_ENTRIES."""
    n = len(diag_idx)
    m = k if 0 in diag_idx else min(k, n - k)
    states = q ** _triangle(m)
    if states > _MAX_TABLE_ENTRIES:
        raise BudgetExceeded(
            f"Gram transfer states of {states} entries at (q={q}, n={n}, k={k}) "
            f"exceed the limit of {_MAX_TABLE_ENTRIES} entries"
        )
    return m


def _diagonal(ambient: AmbientForm) -> tuple:
    """The ambient's diagonal as sorted field indices, those other than 1
    first.  Permuting the columns is an isometry of a diagonal form; in this
    order column 0 never scatters, a lambda-dot walk builds the shift tables
    of d = 1 alone, and the first n entries of a dot or lambda-dot diagonal
    are those of that kind's ambient of dimension n."""
    field = ambient.field
    # 1 is the field index of 1
    return tuple(sorted((field.index(d) for d in ambient.gram_diag), key=lambda d: (d == 1, d)))


def _subspace_total(q: int, n: int, k: int, budget: int) -> int:
    """Number of k-subspaces, refused when k is out of range or over budget."""
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"k = {k} outside 0..{n}")
    total = gaussian_binom(q, n, k)
    if total > budget:
        raise BudgetExceeded(
            f"{total} subspaces at (q={q}, n={n}, k={k}) exceed budget {budget}"
        )
    return total


def _admit(q: int, diag_idx: tuple, k: int, budget: int):
    """(total, m): the number of k-subspaces of the ambient ``diag_idx`` and
    the walk level m that counts them (_walk_level; 0 at k = 0, which needs
    no walk), after the checks that may refuse their count: the budget, then
    for k >= 1 the field tables and the walk's states."""
    total = _subspace_total(q, len(diag_idx), k, budget)
    if not k:
        return total, 0
    _price_tables(q)
    return total, _walk_level(q, diag_idx, k)


def _count(field, diag_idx: tuple, cells, budget: int):
    """{(n, k): class tallies, or the BudgetExceeded or Mismatch that refuses
    the count} of the k-subspaces of V_n, the form of diag_idx's first n
    entries, for each (n, k) of ``cells``, off one walk over diag_idx.

    Each cell is admitted by _admit, in ``cells`` order, and reads level m
    after column n: m = min(k, n - k), or k where a zero entry makes V_n
    degenerate.  On a nondegenerate V_n, U -> U^perp is a bijection from
    the k- to the (n - k)-subspaces; it keeps degenerate subspaces
    degenerate, and for nondegenerate U, disc U * disc U^perp = disc V_n,
    the product of the first n entries.  So a cell read at level n - k < k
    swaps the two nonzero classes when that product is a non-square.  The
    zero subspace is dot-type by convention, and needs no walk.  A cell
    whose tallies do not sum to its number of subspaces is a Mismatch.
    """
    p, e, q = field.p, field.e, field.q
    table, admitted = {}, {}
    for n, k in cells:
        try:
            admitted[n, k] = _admit(q, diag_idx[:n], k, budget)
        except BudgetExceeded as exc:
            table[n, k] = exc
    tallies = {cell: (1, 0, 0) for cell in admitted if not cell[1]}
    if len(tallies) < len(admitted):
        _, mul, _, klass = _field_tables(p, e)
        # disc V_n is products[n]; 1 is the field index of 1
        products = list(itertools.accumulate(diag_idx, lambda x, d: mul[x, d], initial=1))
        reads = {(n, m) for (n, k), (_, m) in admitted.items() if k}
        for c, levels in enumerate(_transfer_counts(p, e, diag_idx, reads), 1):
            for (n, k), (_, m) in admitted.items():
                if n != c or not k:
                    continue
                counts, classes = levels[m], _state_classes(p, e, m)
                square, non_square = (
                    int(counts[classes == _CLASS_CODES[nonzero]].sum())
                    for nonzero in (SquareClass.SQUARE, SquareClass.NON_SQUARE)
                )
                if m != k and klass[products[n]] == _CLASS_CODES[SquareClass.NON_SQUARE]:
                    square, non_square = non_square, square
                tallies[n, k] = square, non_square, int(counts.sum()) - square - non_square
    for (n, k), (total, _) in admitted.items():
        tallied = sum(tallies[n, k])
        table[n, k] = dict(zip(SubspaceClass, tallies[n, k])) if tallied == total else (
            Mismatch(f"{tallied} subspaces tallied at (q={q}, n={n}, k={k}), expected {total}"))
    return table


def _raised(cell):
    """A _count cell's tallies, or its refusal raised."""
    if isinstance(cell, Exception):
        raise cell
    return cell


def count_subspaces_by_class(
    ambient: AmbientForm, k: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
):
    """Exhaustive classification tally of all k-subspaces, by the Gram
    transfer (see the module docstring): one _count cell, the walk's last
    column.

    ``jobs`` is accepted and ignored: every count runs in this process.  It
    stays because the benchmark's workloads pass it (bench/workloads.py)
    and its tracer reads it (bench/tracing.py).
    """
    n = ambient.n
    return _raised(_count(ambient.field, _diagonal(ambient), [(n, k)], budget)[n, k])


def count_table(field, kind, max_n: int, budget: int = DEFAULT_BUDGET):
    """{(n, k): class tallies, or the error that refuses the count} for
    the k-subspaces of the ``kind`` ambient of each dimension n <= max_n:
    what count_subspaces_by_class returns or raises, from one walk over the
    _diagonal of the dimension-max_n ambient, whose first n entries are
    the dimension-n ambient's (_count).  Field tables that fail their
    checks raise."""
    diag_idx = _diagonal(ambient_space(field, kind, max_n)) if max_n else ()
    cells = [(n, k) for n in range(1, max_n + 1) for k in range(n + 1)]
    return _count(field, diag_idx, cells, budget)


def count_lines(ambient: AmbientForm, budget: int = DEFAULT_BUDGET):
    """(spacelike, timelike, lightlike) tallies over all lines through 0."""
    tallies = count_subspaces_by_class(ambient, 1, budget=budget)
    return (
        tallies[SubspaceClass.DOT_TYPE],
        tallies[SubspaceClass.LAMBDA_DOT_TYPE],
        tallies[SubspaceClass.DEGENERATE],
    )


def enumerate_subspaces(ambient: AmbientForm, k: int, budget: int = DEFAULT_BUDGET):
    """Yield every k-subspace exactly once, as canonical RREF values."""
    field = ambient.field
    n = ambient.n
    _subspace_total(field.q, n, k, budget)
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


@dataclass(frozen=True, eq=False)
class PosetSnapshot:
    """Graded inclusion poset with adjoined bottom (zero) and top (full space).

    ``ranks`` maps each rank 0 < k < n that has nodes to their basis rows as
    vector codes, an (N_k, k) array, vector x being code
    sum_t index(x_t) * q^t, and rank sizes read it alone.  The rest is made
    on first read and kept: ``pairs`` generates each node's own sub-lattice
    (_inclusion_pairs), ``hasse_edges`` reads the pairs of adjacent ranks and
    mobius_bottom reads every pair, summing in int64 only while an a priori
    bound rules out overflow.  ``nodes`` are made from the row codes, and
    two snapshots are equal when their ambient, kind and row codes are,
    since the codes fix the nodes and the nodes fix the edges.
    """

    ambient: AmbientForm
    poset_kind: PosetKind
    ranks: dict = dataclass_field(repr=False)

    @cached_property
    def pairs(self) -> dict:
        """{(r, s): (w, u)} for every two inner ranks s < r present: node u
        of rank s lies in node w of rank r, sorted by w and then u."""
        return _inclusion_pairs(self.ambient.field, self.ambient.n, self.ranks)

    def _below(self, r: int, s: int):
        """(w, u) of ranks r > s as in ``pairs``; the bottom lies in every
        node, and the top holds every node."""
        if s == 0:
            size = len(self.ranks.get(r, ((),)))  # the top is one node
            return np.arange(size), np.zeros(size, dtype=np.intp)
        if r == self.ambient.n:
            size = len(self.ranks[s])
            return np.zeros(size, dtype=np.intp), np.arange(size)
        return self.pairs[r, s]

    @cached_property
    def hasse_edges(self) -> tuple:
        """(lower node index, upper node index) pairs of adjacent present ranks,
        by rank pair in increasing order, upper node first, then lower node."""
        ranks, sizes = (0, *self.ranks, self.ambient.n), self.rank_sizes()
        starts = list(itertools.accumulate((sizes[k] for k in ranks), initial=0))
        edges = []
        for i, (s, r) in enumerate(zip(ranks, ranks[1:])):
            w, u = self._below(r, s)
            edges.extend(zip((starts[i] + u).tolist(), (starts[i + 1] + w).tolist()))
        return tuple(edges)

    @cached_property
    def nodes(self) -> tuple:
        """(Subspace, rank) pairs, sorted by rank, in enumerate_subspaces order."""
        ambient = self.ambient
        q, n = ambient.field.q, ambient.n
        elements = list(ambient.field.elements())
        nodes = [(zero_subspace(ambient), 0)]
        for k, codes in self.ranks.items():
            digits = codes[:, :, None] // q ** np.arange(n) % q
            nodes.extend(
                (Subspace(ambient, tuple(tuple(elements[v] for v in row) for row in rows)), k)
                for rows in digits.tolist()
            )
        nodes.append((full_subspace(ambient), n))
        return tuple(nodes)

    def _key(self):
        ranks = tuple((k, codes.tobytes()) for k, codes in self.ranks.items())
        return self.ambient, self.poset_kind, ranks

    def __eq__(self, other):
        if not isinstance(other, PosetSnapshot):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def rank_sizes(self) -> tuple[int, ...]:
        return (1, *(len(self.ranks.get(k, ())) for k in range(1, self.ambient.n)), 1)


def _inclusion_pairs(field, n: int, ranks: dict) -> dict:
    """PosetSnapshot.pairs of the nodes whose basis rows have the vector
    codes ``ranks`` (see the module docstring).

    A rank-r node's span codes list c B at index code(c), c in F_q^r, and
    are made _TABLE_BLOCK // q^r upper nodes at a time.  The rows of each
    s x r RREF matrix C (_sub_lattice) are gathered from them, and the s
    row codes of C B, read as one byte key, are found among rank s's by
    searchsorted into its keys, sorted once, and an equality test.
    """
    q = field.q
    weights = q ** np.arange(n)
    lookups = {}
    for s, codes in ranks.items():
        keys = codes.view(f"V{8 * s}").ravel()
        order = np.argsort(keys)
        lookups[s] = order, keys[order]
    pairs = {}
    for r, codes in ranks.items():
        lowers = [s for s in ranks if s < r]
        if not lowers:
            continue
        add, mul, _, _ = _field_tables(field.p, field.e)
        found = {s: [] for s in lowers}
        step = max(1, _TABLE_BLOCK // q**r)
        for first in range(0, len(codes), step):
            rows = codes[first:first + step, :, None] // weights % q  # (group, r, n)
            vecs = np.zeros((len(rows), 1, n), dtype=np.intp)
            for i in range(r):
                # multiples[g, c, t] = c * row_i[t], added to every vector so far
                multiples = mul[:, rows[:, i]].transpose(1, 0, 2)
                vecs = add[multiples[:, :, None, :], vecs[:, None, :, :]].reshape(len(rows), -1, n)
            spans = vecs @ weights
            for s in lowers:
                order, ordered = lookups[s]
                lattice = _sub_lattice(q, r, s)
                keys = spans.take(lattice, axis=1).view(f"V{8 * s}").ravel()
                pos = np.searchsorted(ordered, keys)
                hit = np.flatnonzero(ordered.take(pos, mode="clip") == keys)
                found[s].append(np.sort((first + hit // len(lattice)) * len(order)
                                        + order[pos[hit]]))
        for s in lowers:
            pairs[r, s] = np.divmod(np.concatenate(found[s]), len(ranks[s]))
    return pairs


@lru_cache(maxsize=32)
def _sub_lattice(q: int, r: int, s: int):
    """The code of each row of every s x r RREF matrix, an (M, s) array in
    enumerate_subspaces order: row c has code sum_i c_i * q^i."""
    layout = _rank_layout(q, r, s)
    return _rref_matrices(layout, q, np.arange(layout[0][-1])) @ q ** np.arange(r)


def _rank_layout(q: int, n: int, k: int):
    """(starts, pivots, powers) that decode the codes of the k x n RREF
    matrices, numbered in enumerate_subspaces order.

    Pivot pattern i holds the codes starts[i] .. starts[i + 1] - 1.  The
    matrix of code c there has 1 at (r, pivots[i, r]) and
    (c - starts[i]) // powers[i, r, t] % q at every other entry (r, t).
    itertools.product makes free slot 0 the most significant, so slot s of
    S is at the power q^(S - 1 - s); every other entry is at q^S, above the
    pattern's every code, and reads 0.
    """
    patterns = list(itertools.combinations(range(n), k))
    powers = np.empty((len(patterns), k, n), dtype=np.intp)
    sizes = []
    for i, pattern in enumerate(patterns):
        slots = _free_positions(pattern, n)
        sizes.append(q ** len(slots))
        powers[i] = sizes[-1]
        for s, (r, t) in enumerate(slots):
            powers[i, r, t] = q ** (len(slots) - 1 - s)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return starts, np.array(patterns, dtype=np.intp), powers


def _rref_matrices(layout, q: int, codes):
    """The (N, k, n) RREF matrices of ``codes`` as field indices, by the
    _rank_layout ``layout``; the codes may run across pivot patterns."""
    starts, pivots, powers = layout
    pattern = np.searchsorted(starts, codes, side="right") - 1
    basis = powers[pattern]
    np.floor_divide((codes - starts[pattern])[:, None, None], basis, out=basis)
    basis %= q
    basis[np.arange(len(codes))[:, None], np.arange(pivots.shape[1]), pivots[pattern]] = 1
    return basis


def _rank_blocks(field, diag_idx: tuple, k: int):
    """Yield (basis, classes) for the k-subspaces in enumerate_subspaces
    order, at most _CHUNK at a time, a block running across pivot patterns:
    basis is their (N, k, n) RREF matrices as field indices and classes the
    square-class codes of their Gram determinants."""
    add, mul, _, _ = _field_tables(field.p, field.e)
    q, n = field.q, len(diag_idx)
    layout = _rank_layout(q, n, k)
    rows, cols = np.array([(a, b) for b in range(k) for a in range(b + 1)]).T
    total = int(layout[0][-1])
    for lo in range(0, total, _CHUNK):
        basis = _rref_matrices(layout, q, np.arange(lo, min(lo + _CHUNK, total)))
        # G[a, b] = sum_t d_t * B[a, t] * B[b, t], one row per upper entry
        entries = basis.transpose(1, 2, 0)  # [r, t, code]
        gram_upper = 0
        for t, d in enumerate(diag_idx):
            term = _gather(mul, _gather(mul, d, entries[rows, t], q), entries[cols, t], q)
            gram_upper = _gather(add, gram_upper, term, q)
        yield basis, _gram_classes(gram_upper, k, field.p, field.e)


def build_poset(
    ambient: AmbientForm, poset_kind: PosetKind, budget: int = DEFAULT_POSET_BUDGET
) -> PosetSnapshot:
    """Euclidean (dot-type) or Lorentzian (lambda-dot-type) inclusion poset.

    ``budget`` bounds both the subspaces scanned and the 64-bit words that
    q^n-bit vector masks of the intermediate nodes would take, a price
    only: no mask is made, and the containment pairs are generated from
    each node's own sub-lattice when the snapshot's edges, flags or Mobius
    value are first read.  Every refusal is raised here.  Each rank is
    classified _CHUNK codes at a time (_rank_blocks), and only its wanted
    nodes' row codes are kept.
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
    weights = q ** np.arange(n)
    ranks = {}
    for k in range(1, n):
        codes = np.concatenate([basis[classes == wanted] @ weights
                                for basis, classes in _rank_blocks(field, diag_idx, k)])
        if len(codes):
            ranks[k] = codes
    inner = sum(len(codes) for codes in ranks.values())
    words = inner * mask_words
    if words > budget:
        raise BudgetExceeded(
            f"vector masks of {inner} subspaces at (q={q}, n={n}) take "
            f"{words} 64-bit words, exceeding budget {budget}"
        )
    return PosetSnapshot(ambient, poset_kind, ranks)


def count_flags(snapshot: PosetSnapshot) -> int:
    """Maximal chains from bottom to top, by rank-layered dynamic programming."""
    if snapshot.poset_kind is not PosetKind.EUCLIDEAN:
        raise UndefinedForParameters("flag counts are defined on the Euclidean poset")
    ways = [0] * sum(snapshot.rank_sizes())
    ways[0] = 1
    for lo, hi in snapshot.hasse_edges:  # lower ranks first
        ways[hi] += ways[lo]
    return ways[-1]


def mobius_bottom(snapshot: PosetSnapshot) -> int:
    """Mobius value mu(0, top) by the definitional recursion, a rank at a time.

    mu_W = -1 - sum_{U<W} mu_U over the inner nodes U below W, the -1 being
    mu(0, 0), and the top lies over every node (Stanley, EC1 3.6).  Each
    rank's sums run in int64 while 1 + sum_{s<r} N_s max|mu_s|, which bounds
    every partial sum, is below _INT64_LIMIT, and on Python ints beyond.
    """
    mus = {}
    for r in (*snapshot.ranks, snapshot.ambient.n):
        bound = 1 + sum(len(mu) * int(abs(mu).max()) for mu in mus.values())
        dtype = np.int64 if bound < _INT64_LIMIT else object
        below = np.zeros(snapshot.rank_sizes()[r], dtype=dtype)
        for s, mu in mus.items():
            w, u = snapshot._below(r, s)
            np.add.at(below, w, mu[u].astype(dtype))
        mus[r] = -1 - below
    return int(mus[snapshot.ambient.n][0])


def enumerate_orthogonal_group(ambient: AmbientForm, budget: int = DEFAULT_BUDGET) -> int:
    """Order of the isometry group, counted as frames of columns.

    M is an isometry exactly when its columns u_0..u_{n-1} satisfy
    B(u_i, u_j) = d_i delta_ij, d being gram_diag.  So column i is chosen
    among the vectors of norm B(v, v) = d_i orthogonal to columns 0..i-1,
    and the last three are counted at once: with A, B and Z the 0/1
    orthogonality matrices of their candidate sets a x b, a x c and b x c,
    they complete sum((A @ Z) * B) frames.  For n <= 2 the candidates are
    counted directly.

    The count is priced as the q^(n^2) candidate matrices it stands for, a
    bound on its work.  Its arrays, the q^n vectors and for n >= 3 the pair
    arrays of about q^2 x q^2 entries, are refused beyond the field tables'
    entry limit before any is built.
    """
    field, n = ambient.field, ambient.n
    q = field.q
    total = q ** (n * n)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate matrices at (q={q}, n={n}) exceed budget {budget}"
        )
    _price_tables(q)
    entries = max(q**n, q**4 if n >= 3 else 0)
    if entries > _MAX_TABLE_ENTRIES:
        raise BudgetExceeded(
            f"frame count arrays of {entries} entries at (q={q}, n={n}) exceed "
            f"the limit of {_MAX_TABLE_ENTRIES} entries"
        )
    add, mul, _, _ = _field_tables(field.p, field.e)
    diag = [field.index(d) for d in ambient.gram_diag]
    vectors = np.indices((q,) * n).reshape(n, -1).T  # every vector, a row each

    def form(x, y):
        """B(x, y) = sum_t d_t x_t y_t, broadcast over the leading axes of x and y."""
        acc = 0
        for t, d in enumerate(diag):
            acc = add[acc, mul[mul[d, x[..., t]], y[..., t]]]
        return acc

    def orthogonal(x, y):
        return form(x[:, None], y[None]) == 0

    norms = form(vectors, vectors)

    def frames(rest, i):
        """Completions of columns i..n-1 from ``rest``, the codes of the
        vectors of a norm in d that are orthogonal to columns 0..i-1."""
        here = vectors[rest]
        if n - i > 3:
            return sum(frames(rest[form(u, here) == 0], i + 1)
                       for u in here[norms[rest] == diag[i]])
        sets = [here[norms[rest] == d] for d in diag[i:]]
        if len(sets) == 1:
            return len(sets[0])
        if len(sets) == 2:
            return int(np.count_nonzero(orthogonal(*sets)))
        a, b, c = sets
        # each entry of A @ Z counts at most len(b) <= q^n < 2^24 vectors,
        # so float32 holds it exactly
        paths = orthogonal(a, b).astype(np.float32) @ orthogonal(b, c).astype(np.float32)
        return int(paths[orthogonal(a, c)].sum(dtype=np.float64))

    return frames(np.flatnonzero(np.isin(norms, diag)), 0)


_LABEL_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def hasse_edge_lines(snapshot: PosetSnapshot) -> list[str]:
    """One 'lower upper' labelled edge per line.  A node's label is its basis
    rows, each the base-p digits of its vector code, low digit first, joined
    by commas; the bottom is '-' and the top's rows are the codes q^i."""
    field, n = snapshot.ambient.field, snapshot.ambient.n
    if field.p >= len(_LABEL_DIGITS):
        raise UndefinedForParameters(f"p = {field.p} too large for digit labels")
    digits = field.p ** np.arange(n * field.e)
    labels = ["-"]
    for codes in (*snapshot.ranks.values(), field.q ** np.arange(n)[None, :]):
        labels.extend(",".join("".join(_LABEL_DIGITS[d] for d in row) for row in rows)
                      for rows in (codes[:, :, None] // digits % field.p).tolist())
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

    def to_kv_lines(self) -> list[str]:
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
        return out


def full_count_report(ambient: AmbientForm, budget: int = DEFAULT_BUDGET) -> CountReport:
    """Tallies for every dimension plus poset summaries when in budget.

    The tallies are row n of a count table over the ambient's own diagonal:
    every k is checked first, and the first refusal in k order is raised
    before any walk runs; then one walk counts every k.
    """
    field, n = ambient.field, ambient.n
    diag_idx = _diagonal(ambient)
    for k in range(n + 1):
        _admit(field.q, diag_idx, k, budget)
    row = _count(field, diag_idx, [(n, k) for k in range(n + 1)], budget)
    tallies = tuple((k, *_raised(row[n, k]).values()) for k in range(n + 1))
    lines = tallies[1][1:] if ambient.n >= 1 else (0, 0, 0)
    flag_count = mobius = None
    # flag and Mobius summaries belong to the Euclidean poset of the dot ambient
    if ambient.kind is AmbientKind.DOT:
        try:
            snapshot = build_poset(ambient, PosetKind.EUCLIDEAN)
        except BudgetExceeded:
            snapshot = None
        if snapshot is not None:
            flag_count = count_flags(snapshot)
            mobius = mobius_bottom(snapshot)
    return CountReport(
        ambient_kind=ambient.kind,
        q=ambient.field.q,
        n=ambient.n,
        tallies=tallies,
        lines=lines,
        flag_count=flag_count,
        mobius_bottom_to_top=mobius,
    )
