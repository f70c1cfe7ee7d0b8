"""Dot-binomial coefficients as exact polynomials in the indeterminate q."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .closed import dot_binom, limit_value, odd_prime_power
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

    def __add__(self, other) -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly.from_coeffs(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly.from_coeffs([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RatPoly.from_coeffs(out)

    __rmul__ = __mul__

    def divexact(self, other: "RatPoly") -> "RatPoly":
        """Long division requiring a zero remainder."""
        if other.is_zero():
            raise ExactDivisionFailed("polynomial division by zero")
        if self.is_zero():
            return self
        if self.degree < other.degree:
            raise ExactDivisionFailed(
                f"degree {self.degree} not divisible by degree {other.degree}"
            )
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * (len(self.coeffs) - len(other.coeffs) + 1)
        for i in range(len(quot) - 1, -1, -1):
            factor = rem[i + other.degree] / lead
            quot[i] = factor
            if factor == 0:
                continue
            for j, c in enumerate(other.coeffs):
                rem[i + j] -= factor * c
        if any(c != 0 for c in rem):
            raise ExactDivisionFailed(
                f"({self}) is not divisible by ({other}): nonzero remainder"
            )
        return RatPoly.from_coeffs(quot)

    def evaluate(self, x) -> Fraction:
        """Exact evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def inflate(self, m: int) -> "RatPoly":
        """Substitute q -> q^m."""
        if m < 1:
            raise ValueError("inflation exponent must be positive")
        if self.is_zero() or m == 1:
            return self
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * m + 1)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
        return RatPoly.from_coeffs(out)

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


def _qpm(e: int, sign: int) -> RatPoly:
    """The polynomial q^e + sign with sign in {+1, -1}."""
    return RatPoly.monomial(1, e) + RatPoly.constant(sign)


@lru_cache(maxsize=None)
def _gaussian_binom_poly(n: int, k: int) -> RatPoly:
    out = RatPoly.constant(1)
    # each partial product is itself a Gaussian binomial, so division stays exact
    for i in range(k):
        out = (out * _qpm(n - i, -1)).divexact(_qpm(i + 1, -1))
    return out


def gaussian_binom_poly(n: int, k: int, squared: bool = False) -> RatPoly:
    """Gaussian binomial as a polynomial, in q or (squared) in q^2."""
    if not 0 <= k <= n:
        raise UndefinedForParameters(f"need 0 <= k <= n, got n={n}, k={k}")
    out = _gaussian_binom_poly(n, k)
    return out.inflate(2) if squared else out


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

    @property
    def n_mod4(self) -> int:
        return self.n % 4

    @property
    def k_mod4(self) -> int:
        return self.k % 4


@lru_cache(maxsize=None)
def _dot_binom_poly(q_class: int, n: int, k: int) -> RatPoly:
    kk = k * (n - k)
    if q_class == 1:
        if n % 2 == 1:
            if k % 2 == 1:
                fac = _qpm((n - k) // 2, +1)
                gb = gaussian_binom_poly((n - 1) // 2, (k - 1) // 2, squared=True)
            else:
                fac = _qpm(k // 2, +1)
                gb = gaussian_binom_poly((n - 1) // 2, k // 2, squared=True)
            return RatPoly.monomial(HALF, kk // 2) * fac * gb
        if k % 2 == 1:
            fac = _qpm(n // 2, -1)
            gb = gaussian_binom_poly((n - 2) // 2, (k - 1) // 2, squared=True)
            return RatPoly.monomial(HALF, (kk - 1) // 2) * fac * gb
        num = (
            _qpm((n - k) // 2, +1)
            * _qpm(k // 2, +1)
            * gaussian_binom_poly(n // 2, k // 2, squared=True)
        )
        return (RatPoly.monomial(HALF, kk // 2) * num).divexact(_qpm(n // 2, +1))

    nm, km = n % 4, k % 4
    if k % 2 == 1:
        if n % 2 == 1:
            gb = gaussian_binom_poly((n - 1) // 2, (k - 1) // 2, squared=True)
            if nm == 1:
                sign = +1 if km == 1 else -1
            else:
                sign = -1 if km == 1 else +1
            return RatPoly.monomial(HALF, kk // 2) * _qpm((n - k) // 2, sign) * gb
        gb = gaussian_binom_poly((n - 2) // 2, (k - 1) // 2, squared=True)
        sign = +1 if nm == 2 else -1
        return RatPoly.monomial(HALF, (kk - 1) // 2) * _qpm(n // 2, sign) * gb
    if n % 2 == 1:
        sign = -1 if km == 2 else +1
        gb = gaussian_binom_poly((n - 1) // 2, k // 2, squared=True)
        return RatPoly.monomial(HALF, kk // 2) * _qpm(k // 2, sign) * gb
    gb = gaussian_binom_poly(n // 2, k // 2, squared=True)
    s_k = -1 if km == 2 else +1
    if nm == 2:
        s_nk = +1 if km == 2 else -1
        denom = _qpm(n // 2, -1)
    else:
        s_nk = -1 if km == 2 else +1
        denom = _qpm(n // 2, +1)
    num = _qpm((n - k) // 2, s_nk) * _qpm(k // 2, s_k) * gb
    return (RatPoly.monomial(HALF, kk // 2) * num).divexact(denom)


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


def degree_check(key: PolyFamilyKey) -> bool:
    """Degree of the family polynomial must be k(n-k)."""
    return dot_binom_poly(key).degree == key.k * (key.n - key.k)


def leading_coefficient(key: PolyFamilyKey) -> Fraction:
    return dot_binom_poly(key).leading_coefficient


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


def published_functional_sign(key: PolyFamilyKey) -> FunctionalSign:
    """Sign claimed by the printed case list, unlabeled cases read as class 3."""
    nm, km = key.n_mod4, key.k_mod4
    if key.q_class == 1:
        minus = key.n % 2 == 0 and key.k % 2 == 1
    else:
        minus = (
            (nm == 3 and km in (1, 2))
            or (nm == 1 and km in (3, 2))
            or (nm == 2 and key.k % 2 == 0)
            or (nm == 0 and key.k % 2 == 0)
            or (nm == 0 and km == 3)
        )
    return FunctionalSign.MINUS if minus else FunctionalSign.PLUS


def _ambiguous_case(nm: int, km: int):
    # printed cases whose congruence class is not restated
    if nm == 1 and km in (3, 2):
        return 3
    if nm == 2 and km % 2 == 0:
        return 4
    if nm == 0 and km % 2 == 0:
        return 5
    if nm == 0 and km == 3:
        return 6
    return None


@dataclass(frozen=True)
class FunctionalSignReport:
    key: PolyFamilyKey
    computed: FunctionalSign
    published: FunctionalSign
    matches: bool
    ambiguous_case: object
    minus_under_class1: object
    minus_under_class3: object


def functional_sign_report(key: PolyFamilyKey) -> FunctionalSignReport:
    """Reversal-based sign next to the printed claim, with both-class resolution."""
    computed = functional_equation_check(key)
    published = published_functional_sign(key)
    case = _ambiguous_case(key.n_mod4, key.k_mod4)
    minus1 = minus3 = None
    if case is not None:
        minus1 = (
            functional_equation_check(PolyFamilyKey(1, key.n, key.k))
            is FunctionalSign.MINUS
        )
        minus3 = (
            functional_equation_check(PolyFamilyKey(3, key.n, key.k))
            is FunctionalSign.MINUS
        )
    return FunctionalSignReport(
        key=key,
        computed=computed,
        published=published,
        matches=computed is published,
        ambiguous_case=case,
        minus_under_class1=minus1,
        minus_under_class3=minus3,
    )


def published_symmetry(key: PolyFamilyKey):
    """(sign, printed reversal index) from the printed symmetry case lists."""
    kk = key.k * (key.n - key.k)
    if key.q_class == 3 and key.n % 2 == 0 and key.k % 2 == 1:
        kk += 1
    return published_functional_sign(key), Fraction(kk, 2)


@dataclass(frozen=True)
class SymmetryReport:
    key: PolyFamilyKey
    depressed: tuple
    trailing_exponent: int
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
    m, s = depressed_coefficients(key)
    depressed_degree = len(s) - 1
    try:
        computed = functional_equation_check(key)
    except NeitherSign:
        computed = None
    published, bound = published_symmetry(key)
    return SymmetryReport(
        key=key,
        depressed=s,
        trailing_exponent=m,
        depressed_degree=depressed_degree,
        computed=computed,
        published=published,
        printed_bound=bound,
        bound_consistent=bound == depressed_degree,
        matches_published=computed is published,
    )


def limit_check(key: PolyFamilyKey) -> bool:
    """Evaluate at q=1 (class 1) or q=-1 (class 3) and compare with the limit table."""
    if not 0 < key.k < key.n:
        raise UndefinedForParameters(f"need 0 < k < n, got n={key.n}, k={key.k}")
    x = 1 if key.q_class == 1 else -1
    got = dot_binom_poly(key).evaluate(x)
    want = limit_value(key.n, key.k)
    if got != want:
        raise Mismatch(
            f"limit of p_({key.n},{key.k}) at q={x}: polynomial gives {got}, "
            f"table value is {want}"
        )
    return True


def row_symmetric(q_class: int, n: int) -> bool:
    """Row n is symmetric under k <-> n-k coefficient-wise."""
    return all(
        dot_binom_poly(PolyFamilyKey(q_class, n, k))
        == dot_binom_poly(PolyFamilyKey(q_class, n, n - k))
        for k in range(n + 1)
    )
