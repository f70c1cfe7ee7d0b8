"""Dot-binomial coefficients as exact polynomials in the indeterminate q.

Every p_(n,k)(q) is 1/2 * q^m times a polynomial with integer coefficients,
m = floor(k(n-k)/2).  With chi = chi(-1) (+1 in class 1, -1 in class 3),
h = floor(n/2), i = floor(k/2) and G the Gaussian binomial in q^2, that
polynomial is

    n odd,  k odd:   (q^(h-i) + chi^(h-i)) * G(h, i)
    n even, k odd:   (q^h - chi^h) * G(h-1, i)
    n odd,  k even:  (q^i + chi^i) * G(h, i)
    n even, k even:  (q^(h-i) + chi^(h-i)) * (q^i + chi^i) * G(h, i) / (q^h + chi^h)

It is built on integer coefficient lists only: Gaussian binomials by the
q-Pascal rule, row by row, products with q^e +- 1 by convolution, and the
even-n, even-k quotient by exact integer division.  The factor 1/2 * q^m is
applied last, when the cell's ``RatPoly`` is made; ``RatPoly`` is a
read-only value with ``Fraction`` coefficients.

Each interior cell's sign, by coefficient reversal, is set beside the
paper's printed sign rule in one ``coefficient_symmetry_report``; the
printed class-3 case list is the one table ``_CLASS3_MINUS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .closed import _chi, dot_binom, odd_prime_power
from .errors import (
    ExactDivisionFailed,
    Mismatch,
    NeitherSign,
    UndefinedForParameters,
)

HALF = Fraction(1, 2)


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


@dataclass(frozen=True)
class RatPoly:
    """Univariate polynomial, exact rational coefficients, lowest degree first."""

    coeffs: tuple

    # no trailing zeros: the zero polynomial is the empty tuple
    @staticmethod
    def from_coeffs(cs) -> "RatPoly":
        cs = [_as_fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RatPoly(tuple(cs))

    @staticmethod
    def constant(c) -> "RatPoly":
        return RatPoly.from_coeffs([c])

    @staticmethod
    def monomial(c, deg: int) -> "RatPoly":
        return RatPoly.from_coeffs([0] * deg + [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def valuation(self) -> int:
        """Exponent of the lowest-degree nonzero term."""
        if self.is_zero():
            raise ValueError("zero polynomial has no valuation")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("normalized nonzero polynomial with all-zero coeffs")

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.coeffs[-1]

    def evaluate(self, x) -> Fraction:
        """Exact evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "q" if d == 1 else f"q^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# Integer coefficient lists, lowest degree first, for the construction below.


def _qpm(e: int, sign: int) -> list:
    """q^e + sign with sign in {+1, -1}; q^0 + 1 is the constant 2."""
    cs = [sign] + [0] * e
    cs[e] += 1
    return cs


def _times(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divexact(num: list, den: list) -> list:
    """Quotient num / den with integer coefficients, or ExactDivisionFailed."""
    rem = list(num)
    top = len(den) - 1
    quot = [0] * (len(num) - top)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + top], den[top])
        if r:
            raise ExactDivisionFailed(f"{num} / {den}: quotient is not integral")
        quot[i] = c
        for j, d in enumerate(den):
            rem[i + j] -= c * d
    if any(rem):
        raise ExactDivisionFailed(f"{num} / {den}: nonzero remainder")
    return quot


@lru_cache(maxsize=None)
def _gaussian_row(n: int) -> tuple:
    """[n, k] for k = 0..n, from [m, k] = [m-1, k-1] + q^k [m-1, k] row by row."""
    row = ((1,),)
    for m in range(1, n + 1):
        inner = []
        for k in range(1, m):
            lo, hi = row[k - 1], row[k]
            cs = [0] * (len(hi) + k)
            cs[:len(lo)] = lo
            for i, c in enumerate(hi):
                cs[i + k] += c
            inner.append(tuple(cs))
        row = ((1,), *inner, (1,))
    return row


def _gaussian(n: int, k: int, step: int = 2) -> list:
    """[n, k] as a polynomial in q^step."""
    cs = _gaussian_row(n)[k]
    out = [0] * ((len(cs) - 1) * step + 1)
    out[::step] = cs
    return out


def gaussian_binom_poly(n: int, k: int, squared: bool = False) -> RatPoly:
    """Gaussian binomial as a polynomial, in q or (squared) in q^2."""
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"need 0 <= k <= n, got n={n}, k={k}")
    return RatPoly.from_coeffs(_gaussian(n, k, 2 if squared else 1))


@dataclass(frozen=True)
class PolyFamilyKey:
    """Selects one congruence cell of the closed-form polynomial tables."""

    q_class: int
    n: int
    k: int

    def __post_init__(self):
        if self.q_class not in (1, 3):
            raise UndefinedForParameters(f"q_class must be 1 or 3, got {self.q_class}")
        if not 0 <= self.k <= self.n:
            raise UndefinedForParameters(f"need 0 <= k <= n, got n={self.n}, k={self.k}")


@lru_cache(maxsize=None)
def _dot_binom_poly(q_class: int, n: int, k: int) -> RatPoly:
    # each case is 1/2 * q^m * cs; the printed exponent (k(n-k)-1)/2 of the
    # odd k(n-k) cases is this floor too
    m = k * (n - k) // 2
    chi, h, i = _chi(q_class), n // 2, k // 2
    if n % 2 and k % 2:
        cs = _times(_qpm(h - i, chi ** (h - i)), _gaussian(h, i))
    elif k % 2:
        cs = _times(_qpm(h, -chi**h), _gaussian(h - 1, i))
    elif n % 2:
        cs = _times(_qpm(i, chi**i), _gaussian(h, i))
    else:
        num = _times(_qpm(h - i, chi ** (h - i)), _times(_qpm(i, chi**i), _gaussian(h, i)))
        cs = _divexact(num, _qpm(h, chi**h))
    return RatPoly.from_coeffs([0] * m + [Fraction(c, 2) for c in cs])


def dot_binom_poly(key: PolyFamilyKey) -> RatPoly:
    """Closed-form subspace-count polynomial for the key's congruence cell."""
    return _dot_binom_poly(key.q_class, key.n, key.k)


def eval_consistency(key: PolyFamilyKey, q_value: int) -> bool:
    """Check the polynomial at a concrete prime power against the integer count."""
    odd_prime_power(q_value)
    if q_value % 4 != key.q_class:
        raise UndefinedForParameters(
            f"q={q_value} is {q_value % 4} mod 4 but the key wants {key.q_class} mod 4"
        )
    got = dot_binom_poly(key).evaluate(q_value)
    want = dot_binom(q_value, key.n, key.k)
    if got != want:
        raise Mismatch(
            f"p_({key.n},{key.k}) at q={q_value}: polynomial gives {got}, count is {want}"
        )
    return True


class FunctionalSign(Enum):
    PLUS = "plus"
    MINUS = "minus"


def depressed_coefficients(key: PolyFamilyKey):
    """(trailing exponent, coefficients of the depressed factor) for the cell."""
    poly = dot_binom_poly(key)
    m = poly.valuation
    return m, poly.coeffs[m:]


def functional_equation_check(key: PolyFamilyKey) -> FunctionalSign:
    """Definite sign s with p(1/q) = s * q^(-3k(n-k)/2) * p(q), by coefficient reversal."""
    if not 0 < key.k < key.n:
        raise UndefinedForParameters(f"need 0 < k < n, got n={key.n}, k={key.k}")
    _, s = depressed_coefficients(key)
    rev = tuple(reversed(s))
    if rev == s:
        return FunctionalSign.PLUS
    if rev == tuple(-c for c in s):
        return FunctionalSign.MINUS
    raise NeitherSign(
        f"p_({key.n},{key.k}) class {key.q_class}: depressed coefficients {s} "
        "are neither palindromic nor anti-palindromic"
    )


# The printed class-3 "minus" cases as (n mod 4, the k mod 4 values each covers).
_CLASS3_MINUS = (
    (3, (1, 2)),  # restates its class
    (1, (3, 2)),  # case 3, printed without its class
    (2, (0, 2)),  # case 4, likewise
    (0, (0, 2)),  # case 5, likewise
    (0, (3,)),  # case 6, likewise
)


def published_functional_sign(key: PolyFamilyKey) -> FunctionalSign:
    """Sign claimed by the printed case list, unlabeled cases read as class 3."""
    if key.q_class == 1:
        minus = key.n % 2 == 0 and key.k % 2 == 1
    else:
        minus = any(key.n % 4 == n4 and key.k % 4 in k4s for n4, k4s in _CLASS3_MINUS)
    return FunctionalSign.MINUS if minus else FunctionalSign.PLUS


@dataclass(frozen=True)
class SymmetryReport:
    """A cell's reversal sign (None if neither) beside the printed sign and reversal index."""

    depressed_degree: int
    computed: object
    published: FunctionalSign
    printed_bound: Fraction
    bound_consistent: bool
    matches_published: bool


def coefficient_symmetry_report(key: PolyFamilyKey) -> SymmetryReport:
    """Reversal symmetry of the depressed coefficients, checked against the printed table."""
    if not 0 < key.k < key.n:
        raise UndefinedForParameters(f"need 0 < k < n, got n={key.n}, k={key.k}")
    depressed_degree = len(depressed_coefficients(key)[1]) - 1
    try:
        computed = functional_equation_check(key)
    except NeitherSign:
        computed = None
    published = published_functional_sign(key)
    kk = key.k * (key.n - key.k)
    if key.q_class == 3 and key.n % 2 == 0 and key.k % 2 == 1:
        kk += 1
    bound = Fraction(kk, 2)
    return SymmetryReport(
        depressed_degree=depressed_degree,
        computed=computed,
        published=published,
        printed_bound=bound,
        bound_consistent=bound == depressed_degree,
        matches_published=computed is published,
    )


def row_symmetric(q_class: int, n: int) -> bool:
    """Row n is symmetric under k <-> n-k coefficient-wise."""
    return all(
        dot_binom_poly(PolyFamilyKey(q_class, n, k))
        == dot_binom_poly(PolyFamilyKey(q_class, n, n - k))
        for k in range(n + 1)
    )
