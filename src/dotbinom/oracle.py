"""Brute-force enumeration ground truth over small finite fields.

Everything here recounts objects from their definitions: subspaces are
generated as reduced row echelon matrices, classified through Gram
determinant square classes, and tallied.  The closed-form module must agree
with these counts; no formula beyond the Gaussian binomial (used for budget
estimates) is consulted.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from time import perf_counter

import numpy as np

from .closed import gaussian_binom
from .errors import BudgetExceeded, Mismatch, UndefinedForParameters
from .gf import SquareClass, make_field
from .quadspace import (
    AmbientForm,
    AmbientKind,
    Subspace,
    SubspaceClass,
    classify,
    contains,  # noqa: F401  unused here; the benchmark tracer counts its calls
    full_subspace,
    zero_subspace,
)

DEFAULT_BUDGET = 10**7
DEFAULT_POSET_BUDGET = 20000
_CHUNK = 1 << 19

_CLASS_CODES = {
    SquareClass.ZERO: 0,
    SquareClass.SQUARE: 1,
    SquareClass.NON_SQUARE: 2,
}


@lru_cache(maxsize=None)
def _field_tables(p: int, e: int):
    """Index-level (add, mul, neg, square-class) lookup tables, cached per process."""
    field = make_field(p, e)
    q = field.q
    dtype = np.uint8 if q <= 0xFF else np.uint16
    elements = list(field.elements())
    add = np.zeros((q, q), dtype=dtype)
    mul = np.zeros((q, q), dtype=dtype)
    neg = np.zeros(q, dtype=dtype)
    klass = np.zeros(q, dtype=np.int8)
    for i, a in enumerate(elements):
        neg[i] = field.index(field.neg(a))
        klass[i] = _CLASS_CODES[field.square_class(a)]
        for j in range(i, q):
            b = elements[j]
            s = field.index(field.add(a, b))
            m = field.index(field.mul(a, b))
            add[i, j] = add[j, i] = s
            mul[i, j] = mul[j, i] = m
    return add, mul, neg, klass


@lru_cache(maxsize=None)
def _perms_and_signs(k: int):
    perms = []
    signs = []
    for perm in itertools.permutations(range(k)):
        inversions = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        perms.append(perm)
        signs.append(-1 if inversions % 2 else 1)
    return tuple(perms), tuple(signs)


def _free_positions(pattern, n: int):
    """RREF free-entry slots for a pivot-column pattern, in digit order."""
    pivot_set = set(pattern)
    return [
        (r, c)
        for r, pc in enumerate(pattern)
        for c in range(pc + 1, n)
        if c not in pivot_set
    ]


def _decode_batch(codes, q: int, k: int, n: int, pattern, slots, dtype):
    """Mixed-radix decode of subspace codes into RREF basis matrices."""
    mats = np.zeros((codes.size, k, n), dtype=dtype)
    for r, pc in enumerate(pattern):
        mats[:, r, pc] = 1
    rem = codes.copy()
    for r, c in slots:
        mats[:, r, c] = rem % q
        rem //= q
    return mats


def _gram_batch(mats, diag_idx, add, mul, k: int, n: int):
    """Upper-triangular Gram entries (as index arrays) for a batch of bases."""
    gram = {}
    for i in range(k):
        for j in range(i, k):
            acc = np.zeros(mats.shape[0], dtype=add.dtype)
            for t in range(n):
                prod = mul[mats[:, i, t], mats[:, j, t]]
                d = diag_idx[t]
                if d != 1:
                    prod = mul[d, prod]
                acc = add[acc, prod]
            gram[i, j] = acc
            gram[j, i] = acc
    return gram


def _det_batch(gram, add, mul, neg, k: int):
    """Leibniz determinant over the field, vectorized across the batch."""
    perms, signs = _perms_and_signs(k)
    det = None
    for perm, sign in zip(perms, signs):
        term = gram[0, perm[0]]
        for i in range(1, k):
            term = mul[term, gram[i, perm[i]]]
        if sign < 0:
            term = neg[term]
        det = term if det is None else add[det, term]
    return det


def _chunk_tallies(task):
    """(square, non-square, zero) tallies for one pivot pattern chunk."""
    p, e, n, k, diag_idx, pattern, start, stop = task
    add, mul, neg, klass = _field_tables(p, e)
    q = p**e
    slots = _free_positions(pattern, n)
    codes = np.arange(start, stop, dtype=np.int64)
    mats = _decode_batch(codes, q, k, n, pattern, slots, add.dtype)
    gram = _gram_batch(mats, diag_idx, add, mul, k, n)
    det = _det_batch(gram, add, mul, neg, k)
    counts = np.bincount(klass[det].astype(np.int64), minlength=3)
    return int(counts[1]), int(counts[2]), int(counts[0])


def _run_tasks(worker, tasks, jobs: int):
    # more workers than cores only adds process start-up
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunksize = max(1, len(tasks) // (jobs * 4))
        return list(pool.map(worker, tasks, chunksize=chunksize))


def count_subspaces_by_class(
    ambient: AmbientForm, k: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
):
    """Exhaustive classification tally of all k-subspaces."""
    field = ambient.field
    n = ambient.n
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"k = {k} outside 0..{n}")
    total = gaussian_binom(field.q, n, k)
    if total > budget:
        raise BudgetExceeded(
            f"{total} subspaces at (q={field.q}, n={n}, k={k}) exceed budget {budget}"
        )
    if k == 0:
        # the zero subspace is dot-type by convention
        return {
            SubspaceClass.DOT_TYPE: 1,
            SubspaceClass.LAMBDA_DOT_TYPE: 0,
            SubspaceClass.DEGENERATE: 0,
        }
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    q = field.q
    tasks = []
    for pattern in itertools.combinations(range(n), k):
        size = q ** len(_free_positions(pattern, n))
        for start in range(0, size, _CHUNK):
            tasks.append(
                (field.p, field.e, n, k, diag_idx, pattern, start, min(start + _CHUNK, size))
            )
    square = non_square = zero = 0
    for s, ns, z in _run_tasks(_chunk_tallies, tasks, jobs):
        square += s
        non_square += ns
        zero += z
    if square + non_square + zero != total:
        raise Mismatch(
            f"{square + non_square + zero} subspaces tallied at "
            f"(q={q}, n={n}, k={k}), expected {total}"
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
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"k = {k} outside 0..{n}")
    total = gaussian_binom(field.q, n, k)
    if total > budget:
        raise BudgetExceeded(
            f"{total} subspaces at (q={field.q}, n={n}, k={k}) exceed budget {budget}"
        )
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


class PosetKind(Enum):
    EUCLIDEAN = "euclidean"
    LORENTZIAN = "lorentzian"


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


def _vector_masks(ambient: AmbientForm, subspaces: list) -> list[int]:
    """Bitmask of the vectors of each subspace, spanned on index tables."""
    if not subspaces:
        return []  # no tables: they cost O(q^2) to build
    field = ambient.field
    add, mul, _, _ = _field_tables(field.p, field.e)
    q, n = field.q, ambient.n
    weights = q ** np.arange(n, dtype=np.int64)
    bits = np.zeros(q**n, dtype=bool)
    masks = []
    for sub in subspaces:
        vecs = np.zeros((1, n), dtype=add.dtype)
        for row in sub.basis:
            # multiples[s, t] = s * row[t]; add every multiple to every vector so far
            multiples = mul[:, [field.index(x) for x in row]]
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
    intermediate nodes' vector masks.
    """
    poset_kind = PosetKind(poset_kind)
    q, n = ambient.field.q, ambient.n
    scan_total = sum(gaussian_binom(q, n, k) for k in range(n + 1))
    if scan_total > budget:
        raise BudgetExceeded(
            f"poset scan of {scan_total} subspaces exceeds budget {budget}"
        )
    wanted = (
        SubspaceClass.DOT_TYPE
        if poset_kind is PosetKind.EUCLIDEAN
        else SubspaceClass.LAMBDA_DOT_TYPE
    )
    nodes = [(zero_subspace(ambient), 0)]
    for k in range(1, n):
        for sub in enumerate_subspaces(ambient, k, budget=budget):
            if classify(sub) is wanted:
                nodes.append((sub, k))
    inner = nodes[1:]
    words = len(inner) * -(-(q**n) // 64)
    if words > budget:
        raise BudgetExceeded(
            f"vector masks of {len(inner)} subspaces at (q={q}, n={n}) take "
            f"{words} 64-bit words, exceeding budget {budget}"
        )
    nodes.append((full_subspace(ambient), n))
    masks = [1] + _vector_masks(ambient, [sub for sub, _ in inner]) + [-1]
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


def _orthogonal_chunk(task):
    p, e, n, diag_idx, start, stop = task
    add, mul, _, _ = _field_tables(p, e)
    q = p**e
    codes = np.arange(start, stop, dtype=np.int64)
    # cols[b, i, t] = entry M[t, i]: basis vectors appear as matrix columns
    cols = np.zeros((codes.size, n, n), dtype=add.dtype)
    rem = codes.copy()
    for t in range(n):
        for i in range(n):
            cols[:, i, t] = rem % q
            rem //= q
    gram = _gram_batch(cols, diag_idx, add, mul, n, n)
    keep = np.ones(codes.size, dtype=bool)
    for i in range(n):
        for j in range(i, n):
            want = diag_idx[i] if i == j else 0
            keep &= gram[i, j] == want
    return int(np.count_nonzero(keep))


def enumerate_orthogonal_group(
    ambient: AmbientForm, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> int:
    """Order of the isometry group, by scanning all n x n matrices."""
    field = ambient.field
    n = ambient.n
    total = field.q ** (n * n)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate matrices at (q={field.q}, n={n}) exceed budget {budget}"
        )
    diag_idx = tuple(field.index(d) for d in ambient.gram_diag)
    tasks = [
        (field.p, field.e, n, diag_idx, start, min(start + _CHUNK, total))
        for start in range(0, total, _CHUNK)
    ]
    return sum(_run_tasks(_orthogonal_chunk, tasks, jobs))


@lru_cache(maxsize=None)
def _symmetric_set_profile(n: int) -> tuple[int, ...]:
    """Counts, by size, of subsets A of Z/(n+1) with A = -A and 0 not in A.

    Scans all subsets of the negation orbits: floor(n/2) two-element orbits
    {a, n+1-a} plus the self-negating element (n+1)/2 when n is odd.
    """
    pairs = n // 2
    has_self = n % 2
    counts = [0] * (n + 1)
    pair_mask = (1 << pairs) - 1
    for mask in range(1 << (pairs + has_self)):
        size = 2 * (mask & pair_mask).bit_count() + (mask >> pairs)
        counts[size] += 1
    return tuple(counts)


def count_symmetric_ksets(n: int, k: int) -> int:
    """Number of k-element negation-closed subsets of Z/(n+1) avoiding 0."""
    if n < 0 or k < 0:
        raise UndefinedForParameters(f"need n, k >= 0, got n={n}, k={k}")
    if n > 24:
        raise BudgetExceeded(f"n = {n} beyond the subset-scan budget of n = 24")
    if k > n:
        return 0
    return _symmetric_set_profile(n)[k]


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
