"""Exact arithmetic in small odd-characteristic Galois fields GF(p^e).

A FieldSpec fixes the modulus polynomial and a canonical non-square witness;
elements are fully reduced coefficient tuples, so structural equality of
values is equality in the field.  Everything here is pure and immutable once
constructed, safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DivisionByZero,
    EvenCharacteristic,
    IdentityViolated,
    NotPrime,
)

MAX_EXTENSION_DEGREE = 4
MAX_FIELD_ORDER = 1 << 20
MAX_Q = 1 << 64  # _is_prime is exact below this, and the CLI refuses q from it up


class SquareClass(Enum):
    """Multiplicative square class of a field element."""

    ZERO = "zero"
    SQUARE = "square"
    NON_SQUARE = "non_square"


@dataclass(frozen=True)
class FieldElement:
    """Reduced polynomial representative, constant coefficient first."""

    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for m < MAX_Q = 2^64.

    The prime bases 2..37 leave no strong pseudoprime below 2^64 (Jaeschke
    1993; Sorenson and Webster 2015).  Larger m is refused, not guessed.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2:
        return False
    for b in bases:
        if m % b == 0:
            return m == b
    if m >= MAX_Q:
        raise BudgetExceeded(f"primality of {m} is not decided at or above 2^64")
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return tuple(out)


def _poly_eval(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_rem(num, den, p: int):
    """Remainder of dense ascending-coefficient polynomials over GF(p)."""
    num = list(num)
    dn = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dn - 1, -1):
        c = (num[i] * lead_inv) % p
        if c:
            for j, d in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - c * d) % p
    while num and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(coeffs, p: int) -> bool:
    # degree <= 3: a factor would be linear, so a root check is exhaustive
    deg = len(coeffs) - 1
    for x in range(p):
        if _poly_eval(coeffs, x, p) == 0:
            return False
    if deg <= 3:
        return True
    # degree 4: also rule out irreducible quadratic divisors
    for idx in range(p * p):
        cand = list(_digits(idx, p, 2)) + [1]
        if any(_poly_eval(cand, x, p) == 0 for x in range(p)):
            continue
        if not _poly_rem(coeffs, cand, p):
            return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e with smallest base-p coefficient encoding."""
    if e == 1:
        return (0, 1)
    for idx in range(p**e):
        coeffs = _digits(idx, p, e) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldSpec:
    """Arithmetic context for GF(q), q = p**e odd, 1 <= e <= 4.

    The modulus is the monic irreducible degree-e polynomial whose non-leading
    coefficient tuple has the smallest base-p encoding, and lambda_ is the
    non-square of smallest element index, so repeated constructions agree.
    """

    def __init__(self, p: int, e: int = 1):
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is out of scope")
        if not 1 <= e <= MAX_EXTENSION_DEGREE:
            raise DegreeOutOfRange(
                f"extension degree {e} outside 1..{MAX_EXTENSION_DEGREE}"
            )
        q = p**e
        if q > MAX_FIELD_ORDER:
            raise DegreeOutOfRange(f"field order {q} exceeds {MAX_FIELD_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _smallest_irreducible(p, e)
        self.zero = FieldElement((0,) * e)
        self.one = FieldElement((1,) + (0,) * (e - 1))
        self.lambda_ = self._smallest_non_square()

    # -- construction and indexing ----------------------------------------

    def from_int(self, value: int) -> FieldElement:
        """Embed an integer as the constant polynomial value mod p."""
        return FieldElement((value % self.p,) + (0,) * (self.e - 1))

    def from_coeffs(self, coeffs) -> FieldElement:
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) > self.e:
            raise DegreeOutOfRange(f"{len(coeffs)} coefficients for degree {self.e}")
        return FieldElement(coeffs + (0,) * (self.e - len(coeffs)))

    def from_index(self, index: int) -> FieldElement:
        if not 0 <= index < self.q:
            raise DegreeOutOfRange(f"element index {index} outside 0..{self.q - 1}")
        return FieldElement(_digits(index, self.p, self.e))

    def index(self, a: FieldElement) -> int:
        acc = 0
        for c in reversed(a.coeffs):
            acc = acc * self.p + c
        return acc

    def elements(self) -> Iterator[FieldElement]:
        """All elements in canonical index order."""
        for i in range(self.q):
            yield self.from_index(i)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.p
        return FieldElement(tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.p
        return FieldElement(tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FieldElement) -> FieldElement:
        p = self.p
        return FieldElement(tuple((-x) % p for x in a.coeffs))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p, e = self.p, self.e
        if e == 1:
            return FieldElement(((a.coeffs[0] * b.coeffs[0]) % p,))
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    prod[i + j] += x * y
        prod = [c % p for c in prod]
        # reduce modulo the monic modulus
        m = self.modulus
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * m[j]) % p
        return FieldElement(tuple(prod[:e]))

    def pow_(self, a: FieldElement, exponent: int) -> FieldElement:
        if exponent < 0:
            return self.pow_(self.inv(a), -exponent)
        result = self.one
        base = a
        while exponent:
            if exponent & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            exponent >>= 1
        return result

    def inv(self, a: FieldElement) -> FieldElement:
        if a.is_zero():
            raise DivisionByZero("inverse of zero")
        return self.pow_(a, self.q - 2)

    def square_class(self, a: FieldElement) -> SquareClass:
        """Euler criterion: a^((q-1)/2) is 1 on squares, -1 on non-squares."""
        if a.is_zero():
            return SquareClass.ZERO
        w = self.pow_(a, (self.q - 1) // 2)
        if w == self.one:
            return SquareClass.SQUARE
        if w != self.neg(self.one):
            raise IdentityViolated("euler-criterion", (self.p, self.e), a.coeffs, w.coeffs)
        return SquareClass.NON_SQUARE

    def _smallest_non_square(self) -> FieldElement:
        for i in range(1, self.q):
            a = self.from_index(i)
            if self.square_class(a) is SquareClass.NON_SQUARE:
                return a
        raise AssertionError("no non-square found")  # unreachable for odd q

    # -- presentation ---------------------------------------------------------

    def format_element(self, a: FieldElement) -> str:
        if self.e == 1:
            return str(a.coeffs[0])
        terms = []
        for i in range(self.e - 1, -1, -1):
            c = a.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e}, q={self.q})"


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> FieldSpec:
    """Build GF(p**e) with the canonical modulus and non-square witness."""
    return FieldSpec(p, e)
