"""Negation-closed subsets of Z/(n+1), counted by scanning them.

These counts are what the polynomial limits at the degenerate point should
equal.  The scan consults no closed form and needs no numpy; the CLI's
``limits`` command and ``verify`` read it, and the oracle does not.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BudgetExceeded, UndefinedForParameters


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
