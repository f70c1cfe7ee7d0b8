"""Brute-force enumeration ground truth over small finite fields.

Everything here recounts objects from their definitions: subspaces are
generated as reduced row echelon matrices, classified through Gram
determinant square classes, and tallied.  The closed-form module must agree
with these counts; no formula beyond the Gaussian binomial (used for budget
estimates) is consulted.

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
for k > n / 2 the walk runs at level n - k instead: Sylvester's identity
(Horn and Johnson, 0.8.5) gives det(D_P + X D_F X^T) = det D_P det D_F
det(D_F^-1 + X^T D_P^-1 X) over the pivot and free columns P and F, and
the last factor is a state of the walk over the reversed columns with
every d inverted; the product of every d decides whether square and
non-square swap.  An ambient with a zero diagonal entry, which only a
hand-built AmbientForm has, walks the column side.  So the transfer costs
a polynomial in n times an exponential in min(k, n - k).  Its counts are
int64 under an a priori bound and Python ints beyond, and a count whose
level-m state array would pass the table limit is refused before it
starts.  The budget prices the subspaces.

The posets need every node, so the block kernel lists and classifies
every RREF matrix, one row layout at a time, on field element indices and
lookup tables.  The k x n matrices of one row layout are the codes whose
base-q digits are the free entries of their rows, row by row; a row may
also hold a pivot 1.  A code is l + q^f0 * h, where l holds row 0's f0
free digits and h the digits of rows 1..k-1, and a task is a block of h
values x l values.  One Gram plan
per row layout reads every Gram entry off l and h: row j's free columns
are the last ones of every earlier row i, and row i is 0 at row j's pivot,
so B(r_i, r_j) pairs row j's digits with the top digits of row i's block
only, and small per-digit-group tables of sum d_c * x_c * y_c turn it
into one gather per group of digits.  So the Gram block C of rows 1..k-1
is made once per h value, g00 = B(r_0, r_0) once per l value, and only
b_j = B(r_0, r_j) for j = 1..k-1 at full block size.  The determinant is
the bordered expansion
det G = g00 det C - b^T adj(C) b (Horn and Johnson, Matrix Analysis,
0.8.5), which holds over any commutative ring: no division and no case
for a singular C.  For k >= 2 its last term is a * b_{k-1}^2, with
a = -adj(C)[k-1, k-1] an h-side value, so det G = D + a * b_{k-1}^2 is
a (D / a + b_{k-1}^2) where a != 0 and D where a = 0.  A block scales its
h-side coefficients by 1 / a (by 1 where a = 0), which reaches D / a at no
extra full-size cost, and ends with one gather from a 3 q^2 table of
square classes (_ending_tables).

Every full-size (h values x l values) array of a block is written into a
workspace that the process keeps and reuses across blocks: the k-1
entries b_j, the determinant and z accumulators of the bordered expansion
and one temporary, sized by _CHUNK so that short blocks and every row
layout share them.  A field op there is x * q + y formed in
place and a gather with take(out=, mode='clip'); only the h-side and
l-side arrays, and the class codes a block returns, are new.  Clipping
never acts: add, mul and neg are checked once, in _field_tables, and each
digit-group, diagonal and inverse table where it is built, to hold field
indices in [0, q), so every index x * q + y and every digit-group index is
in range by construction.  The final class gather allocates its int8 codes
and keeps take's bounds check.

The inclusion posets are stored a rank at a time.  Each rank holds its
nodes' basis rows as vector codes and their vector sets as one packed bit
array, N_r rows of ceil(q^n / 8) bytes, spanned for a whole group of nodes
at once.  U lies in W exactly when every basis row of U is a vector of W,
so the containment block of rank s under rank r is an AND over U's s row
codes, each gathered from W's packed row; blocks are made a group of upper
nodes at a time, at most _INCIDENCE_ENTRIES entries per lower rank.  The
Hasse edges are the nonzero entries of the blocks of adjacent present
ranks, and mu(0, .) is the recursion mu_r = -sum_{s<r} C_{s,r}^T mu_s, in
int64 while an a priori bound on its sums holds and on Python ints beyond.

The isometry group is counted as frames of columns, one column at a time
among the vectors of the wanted norm orthogonal to those chosen so far; it
reads the field tables but not the kernel (enumerate_orthogonal_group).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

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
# Codes per block.  Each of a block's k + 2 workspace buffers is 256 KB;
# the six large count cells of the benchmark ran 1.2x slower at 1 << 14
# and no faster at 1 << 16.
_CHUNK = 1 << 15
_GROUP_CAP = 1 << 16  # entries of one digit-group Gram or shift table
_TABLE_BLOCK = 1 << 16  # table entries built per block of rows
# q^2 entries of each q x q table.  `oracle count --n 2` on the lambda-dot
# ambient peaked 25 to 36 bytes per entry above importing the CLI at
# q = 2003 and 1009 (numpy, intp add and mul, an int32 shift table and the
# temporaries of their builds): q = 2039, the largest prime in, near 100 MB.
# A transfer's level-m state array is held to the same number of entries.
_MAX_TABLE_ENTRIES = 1 << 22
# Entries of one poset block: a group of upper nodes is gathered against a
# lower rank's N_s nodes at most this many entries at a time, and vector
# sets are made a group of nodes of q^k * n + q^n entries at a time.
_INCIDENCE_ENTRIES = 1 << 20
# mobius_bottom sums in int64 while this bounds every partial sum
_MU_LIMIT = 1 << 63
# the Gram transfer counts in int64 while this bounds every state count
_TRANSFER_LIMIT = 1 << 63

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


def _arithmetic_tables(field):
    """Index-level (add, mul, neg) lookup tables of ``field`` as intp, not yet checked.

    Element index i has base-p digits i_t = (i // p^t) % p, the polynomial
    coefficients of the element, constant term first.  Addition is digit by
    digit, so the add table of t + 1 digits is the add table of Z/p at the
    top digit, scaled by p^t, plus the table of the t digits below it.  The
    mul table is built a block of rows at a time, digit by digit in int32,
    so no temporary holds more than about (2e - 1) * _TABLE_BLOCK integers;
    every intermediate there is below 2 e p^2 in magnitude, far below 2^31
    for any q that _price_tables admits.
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
    mul = np.empty((q, q), dtype=np.intp)
    modulus = field.modulus
    rows = max(1, _TABLE_BLOCK // q)
    for lo in range(0, q, rows):
        a = [d[lo:lo + rows, None] for d in digits]  # (rows, 1) each
        prod = [0] * (2 * e - 1)
        for s in range(e):
            for t in range(e):
                prod[s + t] = prod[s + t] + a[s] * digits[t]
        # reduce modulo the monic modulus, top coefficient first
        for s in range(2 * e - 2, e - 1, -1):
            c = prod[s] % p
            for t in range(e):
                prod[s - e + t] = prod[s - e + t] - c * modulus[t]
        mul[lo:lo + rows] = sum(prod[t] % p * weights[t] for t in range(e))
    return add, mul, neg


@lru_cache(maxsize=None)
def _field_tables(p: int, e: int):
    """(add, mul, neg, square-class) tables, cached per process: the one
    checked set (_field_indices) that every layer of the oracle reads.  The
    square classes are Euler's criterion by square-and-multiply on mul."""
    q = p**e
    _price_tables(q)
    add, mul, neg = (_field_indices(t, q) for t in _arithmetic_tables(make_field(p, e)))
    power = np.ones(q, dtype=np.intp)
    base = np.arange(q)
    exponent = (q - 1) // 2
    while exponent:
        if exponent & 1:
            power = mul[power, base]
        base = mul[base, base]
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
    field indices, so that is checked here, once per table built (add, mul
    and neg in _field_tables), by a check that python -O keeps.
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
def _ending_tables(p: int, e: int):
    """(inverse, offsets, classes) that end a block with k >= 2, cached per process.

    inverse[a] is 1 / a, and 1 at a = 0.  offsets[a] is s * q^2, s being 0,
    1 or 2 for a square, a non-square or zero a.  classes is flat int8 with
    the square class of a * (x + b * b) at (s * q + x) * q + b for a != 0,
    and of x for a = 0.  Only square classes multiply here (Euler's
    criterion): klass(x + b * b), the same with square and non-square
    swapped, and klass(x).
    """
    add, mul, _, klass = _field_tables(p, e)
    q = p**e
    index = np.arange(q)
    # every row a != 0 holds a 1, since _field_tables checked a^(q-1) = 1
    inverse = (mul == 1).argmax(axis=1)
    inverse[0] = 1  # where a = 0, D is left as it is
    offsets = (klass.astype(np.intp) - _CLASS_CODES[SquareClass.SQUARE]) % 3 * q * q
    classes = np.empty((3, q, q), dtype=np.int8)
    classes[0] = klass.take(add[:, mul[index, index]])  # [x, b] = klass(x + b * b)
    classes[1] = np.array([0, 2, 1], dtype=np.int8).take(classes[0])  # codes 1 and 2 swapped
    classes[2] = klass[:, None]
    return _field_indices(inverse, q), offsets, classes.ravel()


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
    return _field_indices(table.ravel(), q)


@lru_cache(maxsize=64)
def _gram_plan(p: int, e: int, diag_idx: tuple, rows: tuple, width: int):
    """How to read each upper Gram entry of a row layout off a block of codes.

    ``rows`` holds (pivot column, free columns) per row.  A code is
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
        pivot = diag_idx[pc]  # B(r_j, r_j) = d_pivot + the free terms
        if diagonal:
            _, power, w, table = diagonal[0]
            diagonal[0] = (None, power, w, _field_indices(add[pivot, table], q))
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


def _gram_entries(plan, l, h, add, q: int, out, temp):
    """Every Gram entry of a block: field indices where constant, else arrays
    over l for row 0, over h for the other rows, broadcast where both.

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
    for (i, j), entry in plan.items():
        if isinstance(entry, list):
            buf = out.get((i, j))
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


def _determinant(gram, k: int, add, mul, neg, inverse, q: int, det, z, temp):
    """det G = g00 det C - b^T adj(C) b, for C the Gram block of rows 1..k-1
    and b_j = G[0, j], as (x, a, b) with det G = a * (x + b * b) where
    a != 0 and det G = x where a = 0, for k >= 2.

    The bordered expansion holds over any commutative ring, so a singular C
    needs no branch.  C is symmetric, so adj(C) is too, and
    b^T adj(C) b = sum_i b_i (A_ii b_i + sum_{j>i} 2 A_ij b_j).  Its last
    term, i = k - 1, is a * b * b with a = -A_{k-1,k-1} an h-side array or
    a constant and b = b_{k-1}.  det C and every -A_ij are cofactor
    expansions on the h side, scaled there by 1 / a (by 1 where a = 0), so
    x reaches full block size only through products with b and the sum
    with g00 det C, written into the buffers ``det`` (x), ``z`` and ``temp``.
    """
    def fmul(x, y, out=None):
        return _gather(mul, x, y, q, out)

    def fadd(x, y, out=None):
        return _gather(add, x, y, q, out)

    minors = _Minors(gram, fmul, fadd, neg)
    inner = tuple(range(1, k))
    drop = {i: inner[:i - 1] + inner[i:] for i in inner}
    a = neg.take(minors[drop[k - 1], drop[k - 1]])
    scale = inverse.take(a)

    def scaled_neg_adj(i, j):
        """-adj(C)[i, j] / a = -(-1)^(i+j) det(C without row i and column j) / a."""
        minor = minors[drop[i], drop[j]]
        return fmul(scale, minor if (i + j) % 2 else neg.take(minor))

    fmul(gram[0, 0], fmul(scale, minors[inner, inner]), det)
    for i in inner[:-1]:
        fmul(scaled_neg_adj(i, i), gram[0, i], z)
        for j in inner[i:]:
            coeff = scaled_neg_adj(i, j)
            fadd(z, fmul(fadd(coeff, coeff), gram[0, j], temp), z)
        fadd(det, fmul(z, gram[0, i], z), det)
    return det, a, gram[0, k - 1]


def _row_codes(position, p: int, digits: int):
    """The codes at ``position`` in the list of one code of each pair
    {v, -v} of ``digits`` base-p digits, v negated digit by digit.

    The list is 0 and then the ranges [p^u, (p + 1) / 2 * p^u) for
    u = 0, 1, ...: the codes whose top nonzero base-p digit is in
    1..(p - 1) / 2, one of each pair {v, -v}.  Range u starts at position
    (p^u + 1) / 2, so position j >= 1 lies in the range u with
    p^u <= 2j - 1 < p^(u + 1) and holds code j + (p^u - 1) / 2.
    """
    if digits == 0:
        return position
    powers = p ** np.arange(digits)
    shifts = np.concatenate(([0], (powers - 1) // 2))  # shifts[0] for j = 0
    codes = np.multiply(position, 2)
    codes -= 1
    codes = np.searchsorted(powers, codes, side="right")
    # every index is in 0..digits, so clipping never acts (see _gather)
    shifts.take(codes, out=codes, mode="clip")
    codes += position
    return codes


def _chunk_tasks(field, diag_idx: tuple, rows: tuple):
    """Blocks of h values x l values covering the codes l + q^f0 * h of a
    row layout in code order, at most _CHUNK codes each.

    A block holds all of row 0's q^f0 codes when they fit, so row 0 is
    split only when q^f0 is over _CHUNK, and then a block holds one h value.
    """
    q = field.q
    size_l = q ** len(rows[0][1])
    size_h = q ** sum(len(cols) for _, cols in rows[1:])
    h_step = max(1, _CHUNK // size_l)
    l_step = min(size_l, _CHUNK)
    blocks = [((h, min(h + h_step, size_h)), (l, min(l + l_step, size_l)))
              for h in range(0, size_h, h_step) for l in range(0, size_l, l_step)]
    return [(field.p, field.e, diag_idx, rows, hs, ls) for hs, ls in blocks]


@lru_cache(maxsize=1)
def _workspace(count: int, size: int):
    """``count`` intp buffers of ``size`` entries, reused by every block of a
    process; a call with another (count, size) replaces them."""
    return np.empty((count, size), dtype=np.intp)


def _chunk_classes(task):
    """The square-class codes of one block's Gram determinants, shape
    (h values, l values).

    The classes are a new array: none of the workspace buffers escapes.
    """
    p, e, diag_idx, rows, (h_lo, h_hi), (l_lo, l_hi) = task
    add, mul, neg, klass = _field_tables(p, e)
    q = p**e
    k = len(rows)
    plan = _gram_plan(p, e, diag_idx, rows, _group_width(q))
    h, l = np.arange(h_lo, h_hi)[:, None], np.arange(l_lo, l_hi)[None, :]
    shape = (h_hi - h_lo, l_hi - l_lo)
    size = shape[0] * shape[1]
    # b_1..b_{k-1}, det, z and a temporary.  Sized by _CHUNK, not by the
    # block, so short blocks and every row layout share one set.
    buffers = [b[:size].reshape(shape) for b in _workspace(k + 2, max(size, _CHUNK))]
    cross = {(0, j): buffers[j - 1] for j in range(1, k)}
    det, z, temp = buffers[k - 1:]
    gram = _gram_entries(plan, l, h, add, q, cross, temp)
    if k == 1:
        # take copies a read-only index array such as a broadcast view, so
        # the codes of g00 alone are broadcast after the gather
        return np.broadcast_to(klass.take(gram[0, 0]), shape)
    inverse, offsets, classes = _ending_tables(p, e)
    x, a, b = _determinant(gram, k, add, mul, neg, inverse, q, det, z, temp)
    # the index (s * q + x) * q + b, formed in place; s * q^2 is h-side
    np.multiply(x, q, out=x)
    np.add(x, b, out=x)
    if np.ndim(a):
        np.add(x, offsets.take(a), out=x)
        return classes.take(x)
    return classes[offsets[a]:offsets[a] + q * q].take(x)


def _triangle(j: int) -> int:
    """Upper-triangle entries of a j x j matrix: the digits of a level-j state."""
    return j * (j + 1) // 2


def _state_gram(codes, j: int, q: int):
    """The partial Gram matrix of level-j state codes as a dict of digit arrays.

    Entry (a, b), a <= b, is digit T(b) + a, T being _triangle: the upper
    triangle column by column, so a level-j code is the low T(j) digits of
    every level-(j + 1) code that extends it.
    """
    gram = {}
    for b in range(j):
        for a in range(b + 1):
            gram[a, b] = gram[b, a] = codes // q ** (_triangle(b) + a) % q
    return gram


@lru_cache(maxsize=8)
def _shift_tables(p: int, e: int, j: int, d: int):
    """(q^lo, q^w, table) for each digit group lo..lo + w - 1 of a level-j
    state code, for the shifts d * x * x^T, x running over one vector of
    each pair {x, -x} of F_q^j \\ {0} (_row_codes on j base-q digits).

    table[g, s] is the group's digits g plus shift s's digits there, field
    sums digit by digit, times q^lo; so the code of a state plus shift s is
    the sum over groups of table[code // q^lo % q^w, s].  A group is as wide
    as fits _GROUP_CAP entries, and at least one digit wide.
    """
    add, mul, _, _ = _field_tables(p, e)
    q = p**e
    x = _row_codes(np.arange(1, (q**j + 1) // 2), p, e * j)
    x = x // q ** np.arange(j)[:, None] % q  # x[a] is coordinate a of each vector
    # digit T(b) + a of every shift, in _state_gram's order
    digits = [mul[d, mul[x[a], x[b]]] for b in range(j) for a in range(b + 1)]
    shifts = x.shape[1]
    width = 1
    while width < len(digits) and q ** (width + 1) * shifts <= _GROUP_CAP:
        width += 1
    groups = []
    for lo in range(0, len(digits), width):
        table = None
        for t in range(lo, min(lo + width, len(digits))):
            # [g_t, s]: digit t of g plus shift s's.  Field indices, so clip
            # never acts, and int32 holds every code below q^T(j) <= 2^22.
            term = np.empty((q, shifts), dtype=np.int32)
            add.take(digits[t], axis=1, out=term, mode="clip")
            term *= q**t
            table = term if table is None else (term[:, None, :] + table).reshape(-1, shifts)
        groups.append((q**lo, len(table), table))
    return groups


@lru_cache(maxsize=8)
def _state_classes(p: int, e: int, m: int):
    """Square-class codes of det S for every level-m state S, by the
    cofactor expansion of _Minors over the state digits, _TABLE_BLOCK
    states at a time."""
    add, mul, neg, klass = _field_tables(p, e)
    q = p**e
    size = q ** _triangle(m)
    classes = np.empty(size, dtype=np.int8)
    rows = tuple(range(m))
    for lo in range(0, size, _TABLE_BLOCK):
        gram = _state_gram(np.arange(lo, min(lo + _TABLE_BLOCK, size)), m, q)
        minors = _Minors(gram, lambda x, y: _gather(mul, x, y, q),
                         lambda x, y: _gather(add, x, y, q), neg)
        classes[lo:lo + _TABLE_BLOCK] = klass.take(minors[rows, rows])
    return classes


def _transfer_counts(p: int, e: int, diag, m: int):
    """Counts of the level-m states after a walk over the columns of ``diag``.

    A state (j, S) is j pivots so far and their j x j partial Gram matrix S,
    stored as its upper triangle's digits (_state_gram).  A pivot column of
    d maps S to S + [d] on the diagonal: level j - 1's counts are added to
    one slice of level j, at d * q^(T(j) - 1).  A free column of d keeps
    every count (x = 0) and adds twice each live state's count onto the
    state plus each shift of _shift_tables, _CHUNK targets at a time.
    Counts are int64 while every state count, at most the Gaussian binomial
    of its prefix (c columns, j pivots), is below _TRANSFER_LIMIT, and
    Python ints beyond; np.add.at adds either exactly.
    """
    q, n = p**e, len(diag)
    # (c, j) runs over every live state: m - j pivots still fit in n - c columns
    bound = max(gaussian_binom(q, c, j)
                for c in range(n + 1) for j in range(max(0, m - n + c), min(c, m) + 1))
    dtype = np.int64 if bound < _TRANSFER_LIMIT else object
    levels = [np.ones(1, dtype=dtype)] + [None] * m
    for c, d in enumerate(diag):
        lo, hi = max(0, m - n + c + 1), min(c + 1, m)
        for j in range(hi, lo - 1, -1):  # level j - 1 is read before it moves
            old = levels[j]
            if old is None:
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
                new = old
            if j and levels[j - 1] is not None:
                start = d * q ** (_triangle(j) - 1)
                new[start:start + levels[j - 1].size] += levels[j - 1]
            levels[j] = new
        levels[:lo] = [None] * lo
    return levels[m]


def _walk_level(q: int, diag_idx: tuple, k: int) -> int:
    """The level m of a k-subspace count's walk: min(k, n - k), or k where
    the row side would invert a zero d; refused where the level-m state
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


def _transfer_tallies(field, diag_idx: tuple, k: int):
    """(square, non-square, zero) tallies of the k-subspaces by the Gram transfer.

    At m = k (_walk_level) the walk runs over the columns with the ambient
    diagonal.  At m = n - k it runs over the reversed columns with every d
    inverted: a subspace's Gram matrix is D_P + X D_F X^T (pivot and free
    columns), and Sylvester's identity makes its determinant
    det D_P det D_F det(D_F^-1 + X^T D_P^-1 X), the last factor being a
    state of that walk.  det D_P det D_F is the product of every d, so a
    non-square product swaps the two nonzero classes.
    """
    p, e, n = field.p, field.e, len(diag_idx)
    m = _walk_level(field.q, diag_idx, k)
    _, mul, _, klass = _field_tables(p, e)
    if m == k:
        diag, twist = diag_idx, False
    else:
        diag = tuple(int(np.flatnonzero(mul[d] == 1)[0]) for d in reversed(diag_idx))
        product = 1
        for d in diag_idx:
            product = mul[product, d]
        twist = klass[product] == _CLASS_CODES[SquareClass.NON_SQUARE]
    counts = _transfer_counts(p, e, diag, m)
    classes = _state_classes(p, e, m)
    square, non_square = (
        int(counts[classes == _CLASS_CODES[c]].sum())
        for c in (SquareClass.SQUARE, SquareClass.NON_SQUARE)
    )
    if twist:
        square, non_square = non_square, square
    return square, non_square, int(counts.sum()) - square - non_square


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
    """Exhaustive classification tally of all k-subspaces, by the Gram
    transfer (see the module docstring).

    ``jobs`` is accepted and ignored: every count runs in this process.  It
    stays because the benchmark's workloads pass it (bench/workloads.py)
    and its tracer reads it (bench/tracing.py).
    """
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
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    square, non_square, zero = _transfer_tallies(field, diag_idx, k)
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
class _Layer:
    """The nodes of one rank, nodes[start:start + size].

    ``row_codes[i]`` holds node i's basis rows as vector codes, vector x being
    code sum_t index(x_t) * q^t.  ``vectors[i]`` is node i's vector set,
    packed little-endian: code c is bit c % 8 of byte c // 8.  The bottom
    has no rows, and no vector set since it is never the upper rank; the
    top, which holds every vector, has neither array.
    """

    rank: int
    start: int
    size: int
    row_codes: object  # (size, rank) intp array, or None for the top
    vectors: object  # (size, ceil(q^n / 8)) uint8 array, or None


@dataclass(frozen=True)
class PosetSnapshot:
    """Graded inclusion poset with adjoined bottom (zero) and top (full space).

    ``layers`` holds the nodes rank by rank (see _Layer), each rank's vector
    sets as one packed bit array.  Node U of rank s lies in node W of rank
    r > s exactly when every basis row of U is a vector of W, so the
    containment block of two ranks is an AND over the lower rank's row
    codes, gathered from the upper rank's packed rows a group of upper nodes
    at a time (_containment).  The Hasse edges are read off the blocks of
    adjacent ranks; mobius_bottom reads every block, and sums in int64 only
    while an a priori bound rules out overflow.
    """

    ambient: AmbientForm
    poset_kind: PosetKind
    nodes: tuple  # (Subspace, rank) pairs, sorted by rank
    # (lower node index, upper node index), by rank pair in increasing order
    hasse_edges: tuple
    # a _Layer per rank present; its arrays have no == or short repr
    layers: tuple = dataclass_field(compare=False, repr=False)

    def rank_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (self.ambient.n + 1)
        for _, rank in self.nodes:
            sizes[rank] += 1
        return tuple(sizes)


def _vector_sets(field, n: int, basis):
    """Packed vector sets of the subspaces spanned by ``basis``, an
    (N, k, n) array of field-index rows, made a group of nodes at a time."""
    add, mul, _, _ = _field_tables(field.p, field.e)
    q = field.q
    size, k, _ = basis.shape
    weights = q ** np.arange(n)
    packed = np.empty((size, -(-(q**n) // 8)), dtype=np.uint8)
    step = max(1, _INCIDENCE_ENTRIES // (q**k * n + q**n))
    for first in range(0, size, step):
        rows = basis[first:first + step]
        vecs = np.zeros((len(rows), 1, n), dtype=np.intp)
        for i in range(k):
            # multiples[g, s, t] = s * row_i[t]; add each to every vector so far
            multiples = mul[:, rows[:, i]].transpose(1, 0, 2)
            vecs = add[vecs[:, :, None, :], multiples[:, None, :, :]].reshape(len(rows), -1, n)
        bits = np.zeros((len(rows), q**n), dtype=bool)
        bits[np.arange(len(rows))[:, None], vecs @ weights] = True
        packed[first:first + step] = np.packbits(bits, axis=1, bitorder="little")
    return packed


def _containment(upper: _Layer, lowers):
    """Yield (first, blocks) for each group of ``upper``'s nodes: blocks[i] is
    a bool array whose [w, u] is True when node u of lowers[i] lies in
    upper node first + w.

    A group holds at most _INCIDENCE_ENTRIES // N_s upper nodes for the
    widest lower rank, and each of that rank's s basis rows is gathered into
    one group x N_s array, so no temporary grows as N_r x N_s x s.
    """
    if upper.vectors is None:  # the top holds every vector
        yield 0, [np.ones((1, lower.size), dtype=bool) for lower in lowers]
        return
    step = max(1, _INCIDENCE_ENTRIES // max(lower.size for lower in lowers))
    for first in range(0, upper.size, step):
        vectors = upper.vectors[first:first + step]
        blocks = []
        for lower in lowers:
            # bit 0 of the AND of each row's byte, shifted down to its bit
            block = np.ones((len(vectors), lower.size), dtype=np.uint8)
            for codes in lower.row_codes.T:
                block &= vectors[:, codes >> 3] >> (codes & 7).astype(np.uint8)
            blocks.append((block & 1).view(bool))
        yield first, blocks


def build_poset(
    ambient: AmbientForm, poset_kind: PosetKind, budget: int = DEFAULT_POSET_BUDGET
) -> PosetSnapshot:
    """Euclidean (dot-type) or Lorentzian (lambda-dot-type) inclusion poset.

    ``budget`` bounds both the subspaces scanned and the 64-bit words of the
    intermediate nodes' vector sets.  Nodes come in enumerate_subspaces order;
    edges join adjacent present ranks, upper node first, then lower node.
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
    nodes, bases = [(zero_subspace(ambient), 0)], {}
    for k in range(1, n):
        rank = []
        for pattern in itertools.combinations(range(n), k):
            slots = _free_positions(pattern, n)
            tasks = _chunk_tasks(field, diag_idx, _pattern_rows(pattern, n))
            # every code, in order: code h * q^f0 + l is the flat index of
            # (h, l) within the blocks
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
            rank.append(basis)
            for rows in basis.tolist():
                node = tuple(tuple(elements[v] for v in row) for row in rows)
                nodes.append((Subspace(ambient, node), k))
        basis = np.concatenate(rank)
        if len(basis):
            bases[k] = basis
    inner = len(nodes) - 1
    words = inner * mask_words
    if words > budget:
        raise BudgetExceeded(
            f"vector masks of {inner} subspaces at (q={q}, n={n}) take "
            f"{words} 64-bit words, exceeding budget {budget}"
        )
    nodes.append((full_subspace(ambient), n))
    layers = [_Layer(0, 0, 1, np.empty((1, 0), dtype=np.intp), None)]
    weights = q ** np.arange(n)
    for k, basis in bases.items():
        start = layers[-1].start + layers[-1].size
        layers.append(_Layer(k, start, len(basis), basis @ weights,
                             _vector_sets(field, n, basis)))
    layers.append(_Layer(n, len(nodes) - 1, 1, None, None))
    edges = []
    for lower, upper in zip(layers, layers[1:]):
        for first, (block,) in _containment(upper, [lower]):
            hi, lo = np.nonzero(block)  # row-major: upper node, then lower node
            edges.extend(zip((lower.start + lo).tolist(),
                             (upper.start + first + hi).tolist()))
    return PosetSnapshot(ambient, poset_kind, tuple(nodes), tuple(edges), tuple(layers))


def count_flags(snapshot: PosetSnapshot) -> int:
    """Maximal chains from bottom to top, by rank-layered dynamic programming."""
    if snapshot.poset_kind is not PosetKind.EUCLIDEAN:
        raise UndefinedForParameters("flag counts are defined on the Euclidean poset")
    ways = [0] * len(snapshot.nodes)
    ways[0] = 1
    for lo, hi in snapshot.hasse_edges:  # lower ranks first
        ways[hi] += ways[lo]
    return ways[-1]


def mobius_bottom(snapshot: PosetSnapshot) -> int:
    """Mobius value mu(0, top) by the definitional recursion, a rank at a time.

    mu_r = -sum_{s<r} C_{s,r}^T mu_s over every comparable pair, C_{s,r}
    being the containment block of rank s under rank r (Stanley, EC1 3.6).
    Each rank's sums run in int64 while sum_{s<r} N_s max|mu_s|, which
    bounds every partial sum, is below _MU_LIMIT, and on Python ints beyond.
    """
    layers = snapshot.layers
    mus = [np.ones(1, dtype=np.int64)]
    for r in range(1, len(layers)):
        bound = sum(lower.size * int(abs(mu).max()) for lower, mu in zip(layers, mus))
        dtype = np.int64 if bound < _MU_LIMIT else object
        below = [mu.astype(dtype) for mu in mus]
        mu = np.empty(layers[r].size, dtype=dtype)
        for first, blocks in _containment(layers[r], layers[:r]):
            mu[first:first + len(blocks[0])] = -sum(
                block @ m for block, m in zip(blocks, below)
            )
        mus.append(mu)
    return int(mus[-1][0])


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
    """Tallies for every dimension plus poset summaries when in budget."""
    field = ambient.field
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    for k in range(ambient.n + 1):  # refuse as the counts would, before any runs
        _subspace_total(ambient, k, budget)
        if k:
            _price_tables(field.q)
            _walk_level(field.q, diag_idx, k)
    tallies = []
    for k in range(ambient.n + 1):
        by_class = count_subspaces_by_class(ambient, k, budget=budget)
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
        tallies=tuple(tallies),
        lines=lines,
        flag_count=flag_count,
        mobius_bottom_to_top=mobius,
    )
