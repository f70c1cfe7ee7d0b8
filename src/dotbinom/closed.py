"""Closed-form dot-analogue counts as exact integers.

Brackets count lines of a given type in the two ambient families; everything
else (factorials, the four binomial variants, Pascal rows, orthogonal group
orders, Mobius values, limits) is built from them.  With chi = chi(-1) the
quadratic character of -1, a bracket is
(q^(n-1) + sigma * chi^floor(n/2) * q^floor((n-1)/2)) / 2, where the sign
sigma depends only on the flavor and the parity of n; the brackets are
cross-checked against exhaustive enumeration in the test suite.  The
published sign-rule variants are kept verbatim in separate entry points so
that disagreements can be reported side by side instead of silently patched.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    ExactDivisionFailed,
    IdentityViolated,
    InvalidQ,
    UndefinedForParameters,
    UnsupportedFlavor,
)
from .gf import _is_prime
from .quadspace import AmbientKind, LineType


class Flavor(Enum):
    SPACELIKE_DOT = "spacelike_dot"
    TIMELIKE_DOT = "timelike_dot"
    SPACELIKE_LAMBDA = "spacelike_lambda"
    TIMELIKE_LAMBDA = "timelike_lambda"


class Variant(Enum):
    DD = "dd"  # dot-type subspaces of the dot ambient
    LD = "ld"  # dot-type subspaces of the lambda-dot ambient
    DL = "dl"  # lambda-dot-type subspaces of the dot ambient
    LL = "ll"  # lambda-dot-type subspaces of the lambda-dot ambient


# what each flavor counts: lines of one type in one ambient family
_FLAVORS = {
    Flavor.SPACELIKE_DOT: (AmbientKind.DOT, LineType.SPACELIKE),
    Flavor.TIMELIKE_DOT: (AmbientKind.DOT, LineType.TIMELIKE),
    Flavor.SPACELIKE_LAMBDA: (AmbientKind.LAMBDA_DOT, LineType.SPACELIKE),
    Flavor.TIMELIKE_LAMBDA: (AmbientKind.LAMBDA_DOT, LineType.TIMELIKE),
}


def _integer_root(q: int, e: int) -> int:
    """The largest r with r**e <= q, for q >= 1, by Newton's method on integers."""
    r = 1 << -(-q.bit_length() // e)  # 2^ceil(bits / e) > q^(1/e)
    while True:
        s = ((e - 1) * r + q // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


@lru_cache(maxsize=None)
def odd_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e for odd prime p, or raise InvalidQ.

    The largest e for which q is a perfect e-th power gives the smallest
    root r; q is a prime power exactly when that r is prime.
    """
    if q < 3 or q % 2 == 0:
        raise InvalidQ(f"q = {q} is not an odd prime power")
    for e in range(q.bit_length(), 1, -1):
        r = _integer_root(q, e)
        if r**e == q:
            break
    else:
        r, e = q, 1
    if not _is_prime(r):
        raise InvalidQ(f"q = {q} is not a prime power")
    return r, e


def _chi(q: int) -> int:
    """Quadratic character of -1: +1 when q = 1 (mod 4), else -1."""
    return 1 if q % 4 == 1 else -1


@lru_cache(maxsize=None)
def bracket(q: int, n: int, flavor: Flavor = Flavor.SPACELIKE_DOT) -> int:
    """Number of lines of the given flavor in the n-dimensional ambient.

    [n]_d is the spacelike-in-dot value, with [0]_d = 1 by convention.  For
    n >= 1 it is (q^(n-1) + sigma * chi^floor(n/2) * q^floor((n-1)/2)) / 2
    with chi = chi(-1).  For odd n, sigma is +1 on spacelike-dot and
    timelike-lambda lines and -1 on the other two; for even n it is -1 in
    the dot ambient and +1 in the lambda-dot one.  The oracle-equivalence
    tests lock it in against exhaustive enumeration.
    """
    odd_prime_power(q)
    try:
        flavor = Flavor(flavor)
    except ValueError:
        raise UnsupportedFlavor(f"unknown flavor {flavor!r}") from None
    if n < 0:
        raise UndefinedForParameters(f"n = {n} < 0")
    if n == 0:
        if flavor is Flavor.SPACELIKE_DOT:
            return 1
        raise UndefinedForParameters("only the spacelike-dot count is defined at n = 0")
    kind, line = _FLAVORS[flavor]
    dot = kind is AmbientKind.DOT
    if n % 2:
        sigma = 1 if dot == (line is LineType.SPACELIKE) else -1
    else:
        sigma = -1 if dot else 1
    return (q ** (n - 1) + sigma * _chi(q) ** (n // 2) * q ** ((n - 1) // 2)) // 2


def total_lines(q: int, n: int) -> int:
    odd_prime_power(q)
    return (q**n - 1) // (q - 1)


def line_counts(q: int, n: int, kind: AmbientKind) -> tuple[int, int, int]:
    """(spacelike, timelike, lightlike) in the given ambient family."""
    # _FLAVORS lists each family's spacelike flavor before its timelike one
    s, t = (bracket(q, n, f) for f, (k, _) in _FLAVORS.items() if k is kind)
    return s, t, total_lines(q, n) - s - t


@lru_cache(maxsize=None)
def bracket_factorial(q: int, n: int) -> int:
    """[n]_d! = product of [k]_d for k = 1..n; empty product is 1."""
    if n < 0:
        raise UndefinedForParameters(f"n = {n} < 0")
    out = 1
    for k in range(1, n + 1):
        out *= bracket(q, k)
    return out


def _exact_div(num: int, den: int, context: str) -> int:
    if den == 0:
        raise ExactDivisionFailed(f"{context}: zero denominator")
    quot, rem = divmod(num, den)
    if rem:
        raise ExactDivisionFailed(f"{context}: {num} / {den} leaves remainder {rem}")
    return quot


def dot_binom(q: int, n: int, k: int) -> int:
    """C(n,k)_d = [n]_d! / ([k]_d! [n-k]_d!), via telescoped exact division."""
    odd_prime_power(q)  # k = 0 reads no bracket, which would check q
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"k = {k} outside 0..{n}")
    value = 1
    for j in range(1, k + 1):
        value = _exact_div(value * bracket(q, n - j + 1), bracket(q, j), "dot_binom")
    return value


# (top, rest, low) bracket flavors of the product shared by LD, DL and LL
_VARIANT_FLAVORS = {
    Variant.LD: (Flavor.SPACELIKE_LAMBDA, Flavor.SPACELIKE_LAMBDA, Flavor.SPACELIKE_DOT),
    Variant.DL: (Flavor.TIMELIKE_DOT, Flavor.SPACELIKE_LAMBDA, Flavor.TIMELIKE_LAMBDA),
    Variant.LL: (Flavor.TIMELIKE_LAMBDA, Flavor.SPACELIKE_DOT, Flavor.TIMELIKE_LAMBDA),
}


def dot_binom_variant(q: int, n: int, k: int, variant: Variant) -> int:
    """Count subspaces of one type inside one ambient family.

    DD is dot_binom.  LD, DL and LL are one product of brackets whose
    flavors (top, rest, low) the variant picks:
    [n]_top * prod_{i=1..k-1} [n-i]_rest / ([k]_low * [k-1]_d!).  The zero
    subspace is dot-type by convention, so DL and LL vanish at k = 0 while
    LD counts it once.
    """
    odd_prime_power(q)
    try:
        variant = Variant(variant)
    except ValueError:
        raise UnsupportedFlavor(f"unknown variant {variant!r}") from None
    if n < 1:
        raise UndefinedForParameters(f"variant counts need n >= 1, got {n}")
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"k = {k} outside 0..{n}")
    if variant is Variant.DD:
        return dot_binom(q, n, k)
    if k == 0:
        return 1 if variant is Variant.LD else 0
    top, rest, low = _VARIANT_FLAVORS[variant]
    num = bracket(q, n, top)
    for i in range(1, k):
        num *= bracket(q, n - i, rest)
    den = bracket(q, k, low) * bracket_factorial(q, k - 1)
    return _exact_div(num, den, f"dot_binom_variant/{variant.value}")


@lru_cache(maxsize=None)
def gaussian_binom(q: int, n: int, k: int) -> int:
    """Ordinary q-binomial coefficient; counts all k-subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    value = 1
    for i in range(1, k + 1):
        value = _exact_div(
            value * (q ** (n - k + i) - 1), q**i - 1, "gaussian_binom"
        )
    return value


# -- published sign-rule variants (kept verbatim for reconciliation) ---------


def verbatim_line_count(q: int, n: int, kind: AmbientKind, which: str) -> int:
    """Published line-count expression, evaluated exactly as printed.

    Disagrees with enumeration on some congruence cells; use bracket() for
    the normative value and compare the two for the discrepancy report.
    """
    odd_prime_power(q)
    if n < 1:
        raise UndefinedForParameters(f"n = {n} < 1")
    if which not in ("spacelike", "timelike"):
        raise UnsupportedFlavor(f"unknown line kind {which!r}")
    # the published epsilon, delta and eta
    epsilon = 1 if (q % 4 == 1 or n % 4 in (1, 2)) else -1
    delta = 1 if n % 2 == 0 else 0
    eta = 1 if n % 2 == 0 else -1
    term = epsilon * (-1) ** delta * q ** ((n - delta - 1) // 2)
    if which == "timelike":
        term *= eta
    if kind is AmbientKind.LAMBDA_DOT:
        term = -term
    return (q ** (n - 1) + term) // 2


def verbatim_flavor(q: int, n: int, flavor: Flavor) -> int:
    kind, line = _FLAVORS[flavor]
    return verbatim_line_count(q, n, kind, line.value)


# -- Pascal rows and identities ----------------------------------------------


def pascal_row(q: int, n: int) -> list[int]:
    return [dot_binom(q, n, k) for k in range(n + 1)]


def pascal_check(q: int, n: int) -> tuple[list[int], bool]:
    """Both bracket Pascal identities in exact rational arithmetic.

    C(n,k) = C(n-1,k-1) + (([n]-[k])/[n-k]) C(n-1,k)
    C(n,k) = C(n-1,k)   + (([n]-[n-k])/[k]) C(n-1,k-1)
    """
    from fractions import Fraction

    row = pascal_row(q, n)
    if n == 0:
        return row, True
    prev = pascal_row(q, n - 1)
    bn = bracket(q, n)
    for k in range(1, n):
        lhs = Fraction(row[k])
        first = prev[k - 1] + Fraction(bn - bracket(q, k), bracket(q, n - k)) * prev[k]
        second = prev[k] + Fraction(bn - bracket(q, n - k), bracket(q, k)) * prev[k - 1]
        if lhs != first:
            raise IdentityViolated("pascal-1", (q, n, k), str(lhs), str(first))
        if lhs != second:
            raise IdentityViolated("pascal-2", (q, n, k), str(lhs), str(second))
    return row, True


# -- row shape ------------------------------------------------------------


class ShapeRowReport(NamedTuple):
    values: tuple[int, ...]
    symmetric: bool
    unimodal: bool
    log_concave: bool
    peak_centered: bool

    @property
    def ok(self) -> bool:
        return self.symmetric and self.unimodal and self.log_concave and self.peak_centered


class ShapeReport(NamedTuple):
    euclidean: ShapeRowReport
    lorentzian: ShapeRowReport

    @property
    def ok(self) -> bool:
        return self.euclidean.ok and self.lorentzian.ok


def _row_shape(values: tuple[int, ...], peak_positions) -> ShapeRowReport:
    m = len(values)
    if m == 0:
        return ShapeRowReport(values, True, True, True, True)
    symmetric = all(values[i] == values[m - 1 - i] for i in range(m))
    rises = [values[i + 1] - values[i] for i in range(m - 1)]
    first_drop = next((i for i, d in enumerate(rises) if d < 0), m - 1)
    unimodal = all(d <= 0 for d in rises[first_drop:])
    log_concave = all(
        values[i] * values[i] >= values[i - 1] * values[i + 1]
        for i in range(1, m - 1)
    )
    peak = max(values)
    peak_centered = any(values[i] == peak for i in peak_positions)
    return ShapeRowReport(values, symmetric, unimodal, log_concave, peak_centered)


def shape_checks(q: int, n: int) -> ShapeReport:
    """Symmetry, unimodality, log-concavity, centered peak for both row families."""
    row = tuple(pascal_row(q, n))
    eu = _row_shape(row, {n // 2, (n + 1) // 2})
    lo_vals = tuple(dot_binom_variant(q, n, k, Variant.DL) for k in range(1, n))
    # row indexed by k = 1..n-1; centered peak means k near n/2, offset by 1
    centers = {n // 2 - 1, (n + 1) // 2 - 1} if len(lo_vals) else set()
    lo = _row_shape(lo_vals, centers)
    return ShapeReport(eu, lo)


# -- orthogonal groups ---------------------------------------------------------


def group_order(q: int, n: int) -> int:
    """|O(n, q)| = 2^n [n]_d!."""
    if n < 1:
        raise UndefinedForParameters(f"n = {n} < 1")
    return 2**n * bracket_factorial(q, n)


def verbatim_group_order(q: int, n: int) -> tuple[int | None, str]:
    """Published product expression for |O(n, q)|, evaluated as printed.

    Returns (value, note); value is None when an exponent printed as a
    fraction is not an integer.  Kept only for side-by-side comparison with
    the normative 2^n [n]_d! value.
    """
    odd_prime_power(q)
    if n < 1:
        raise UndefinedForParameters(f"n = {n} < 1")
    if n % 2 == 1:
        m = (n - 1) // 2
        if (m - 1) % 2:
            return None, f"exponent ({m}-1)/2 is not an integer"
        value = 2 * q ** ((m - 1) // 2)
        for kk in range(0, (m - 3) // 2 + 1):
            value *= q ** (2 * m) - q ** (2 * kk)
        return value, ""
    m = n // 2
    if m % 2:
        return None, f"exponent {m}/2 is not an integer"
    if q % 4 == 1:
        value = 2 * (q ** (m // 2) - 1)
    else:
        value = 2 * (q ** (m // 2) + (-1) ** ((m + 2) // 2))
    for kk in range(1, (m - 2) // 2 + 1):
        value *= q**m - q ** (2 * kk)
    return value, ""


def quotient_identity_check(q: int, n: int, k: int) -> bool:
    """|O(n,q)| = C(n,k)_d |O(k,q)| |O(n-k,q)| for 0 < k < n, exactly."""
    if not 0 < k < n:
        raise UndefinedForParameters(f"k = {k} outside 1..{n - 1}")
    lhs = group_order(q, n)
    rhs = dot_binom(q, n, k) * group_order(q, k) * group_order(q, n - k)
    if lhs != rhs:
        raise IdentityViolated("group-quotient", (q, n, k), str(lhs), str(rhs))
    return True


# -- Mobius values and limits ---------------------------------------------------


class MobiusSequence(NamedTuple):
    q: int
    b: tuple[int, ...]
    mu: tuple[int, ...]


def mobius_sequence(q: int, n: int) -> MobiusSequence:
    """b_0 = 1 and sum_k (-1)^k b_k C(m,k)_d = 0 for each m; mu_m = (-1)^m b_m."""
    odd_prime_power(q)
    if n < 0:
        raise UndefinedForParameters(f"n = {n} < 0")
    b = [1]
    for m in range(1, n + 1):
        acc = sum((-1) ** k * b[k] * dot_binom(q, m, k) for k in range(m))
        b.append((-1) ** (m + 1) * acc)
    mu = tuple((-1) ** m * b[m] for m in range(n + 1))
    return MobiusSequence(q, tuple(b), mu)


def limit_value(n: int, k: int) -> int:
    """Limit of the polynomial family at the degenerate evaluation point.

    Counts negation-closed k-subsets of Z/(n+1) avoiding 0: binomial in the
    half parameters, zero when n is even and k is odd.
    """
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"k = {k} outside 0..{n}")
    if n % 2 == 1:
        return math.comb((n - 1) // 2, (k - 1) // 2 if k % 2 else k // 2)
    if k % 2:
        return 0
    return math.comb(n // 2, k // 2)


def asymptotic_gap(q: int, n: int, k: int) -> Fraction:
    """|C(n,k)_d / C(n,k)_q - 1/2| as an exact rational."""
    from fractions import Fraction

    ratio = Fraction(dot_binom(q, n, k), gaussian_binom(q, n, k))
    return abs(ratio - Fraction(1, 2))
