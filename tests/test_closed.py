"""Closed-form counts against frozen enumeration values and identities."""

import math
from fractions import Fraction

import pytest

from dotbinom import closed
from dotbinom.closed import Flavor, Variant
from dotbinom.errors import InvalidQ, UndefinedForParameters, UnsupportedFlavor
from dotbinom.quadspace import AmbientKind

ODD_PRIME_POWERS = (3, 5, 7, 9, 11, 13)


def test_odd_prime_power():
    assert closed.odd_prime_power(9) == (3, 2)
    assert closed.odd_prime_power(13) == (13, 1)
    for bad in (1, 2, 4, 6, 8, 12, 15, 0, -3):
        with pytest.raises(InvalidQ):
            closed.odd_prime_power(bad)


# one ambient dimension of brute-force line tallies, frozen:
# (q, n) -> (spacelike, timelike) for the dot and lambda ambients
FROZEN_BRACKETS = {
    (3, 1): ((1, 0), (0, 1)),
    (3, 2): ((2, 2), (1, 1)),
    (3, 3): ((3, 6), (6, 3)),
    (3, 4): ((12, 12), (15, 15)),
    (5, 1): ((1, 0), (0, 1)),
    (5, 2): ((2, 2), (3, 3)),
    (5, 3): ((15, 10), (10, 15)),
    (5, 4): ((60, 60), (65, 65)),
}


@pytest.mark.parametrize("q,n", sorted(FROZEN_BRACKETS))
def test_bracket_flavors_frozen(q, n):
    (dot_sp, dot_tl), (lam_sp, lam_tl) = FROZEN_BRACKETS[q, n]
    assert closed.bracket(q, n, Flavor.SPACELIKE_DOT) == dot_sp
    assert closed.bracket(q, n, Flavor.TIMELIKE_DOT) == dot_tl
    assert closed.bracket(q, n, Flavor.SPACELIKE_LAMBDA) == lam_sp
    assert closed.bracket(q, n, Flavor.TIMELIKE_LAMBDA) == lam_tl


def test_bracket_larger_frozen():
    assert closed.bracket(3, 5) == 45
    assert closed.bracket(3, 6) == 126
    assert closed.bracket(5, 4) == 60


def test_bracket_at_zero():
    assert closed.bracket(7, 0) == 1
    for flavor in (Flavor.TIMELIKE_DOT, Flavor.SPACELIKE_LAMBDA,
                   Flavor.TIMELIKE_LAMBDA):
        with pytest.raises(UndefinedForParameters):
            closed.bracket(7, 0, flavor)
    with pytest.raises(UndefinedForParameters):
        closed.bracket(7, -1)


def test_bracket_accepts_value_strings_and_rejects_unknown():
    assert closed.bracket(3, 2, "spacelike_dot") == 2
    with pytest.raises(UnsupportedFlavor):
        closed.bracket(3, 2, "sideways")


def test_line_counts_sum_to_all_lines():
    for q in ODD_PRIME_POWERS:
        for n in range(1, 7):
            for kind in AmbientKind:
                s, t, light = closed.line_counts(q, n, kind)
                assert s + t + light == closed.total_lines(q, n)
                assert s == closed.bracket(
                    q, n,
                    Flavor.SPACELIKE_DOT if kind is AmbientKind.DOT
                    else Flavor.SPACELIKE_LAMBDA,
                )


def test_line_counts_frozen():
    assert closed.line_counts(5, 2, AmbientKind.DOT) == (2, 2, 2)
    assert closed.line_counts(3, 2, AmbientKind.DOT) == (2, 2, 0)
    assert closed.line_counts(3, 3, AmbientKind.DOT) == (3, 6, 4)
    assert closed.line_counts(3, 2, AmbientKind.LAMBDA_DOT) == (1, 1, 2)


def test_pascal_rows_frozen():
    assert closed.pascal_row(5, 0) == [1]
    assert closed.pascal_row(5, 1) == [1, 1]
    assert closed.pascal_row(5, 2) == [1, 2, 1]
    assert closed.pascal_row(5, 3) == [1, 15, 15, 1]
    assert closed.pascal_row(5, 4) == [1, 60, 450, 60, 1]
    assert closed.pascal_row(3, 3) == [1, 3, 3, 1]


def test_dot_binom_frozen():
    assert closed.dot_binom(3, 4, 2) == 18
    assert closed.dot_binom(3, 6, 2) == 2835
    assert closed.dot_binom(9, 2, 1) == 4  # GF(9) is class 1: (q - 1)/2


def test_dot_binom_variant_frozen():
    assert closed.dot_binom_variant(3, 4, 2, Variant.DD) == 18
    assert closed.dot_binom_variant(3, 4, 2, Variant.LD) == 45
    assert closed.dot_binom_variant(3, 4, 2, Variant.DL) == 72
    assert closed.dot_binom_variant(3, 4, 2, Variant.LL) == 45
    # a printed worked example gives 0 here; enumeration gives 1
    assert closed.dot_binom_variant(3, 2, 1, Variant.LD) == 1
    assert closed.dot_binom_variant(3, 2, 1, Variant.DL) == 2


def test_dot_binom_variant_edges():
    for q in (3, 5, 9):
        for n in range(1, 6):
            assert closed.dot_binom_variant(q, n, 0, Variant.DD) == 1
            assert closed.dot_binom_variant(q, n, 0, Variant.LD) == 1
            assert closed.dot_binom_variant(q, n, 0, Variant.DL) == 0
            assert closed.dot_binom_variant(q, n, 0, Variant.LL) == 0
            assert closed.dot_binom_variant(q, n, n, Variant.DD) == 1
            assert closed.dot_binom_variant(q, n, n, Variant.LD) == 0
            assert closed.dot_binom_variant(q, n, n, Variant.DL) == 0
            assert closed.dot_binom_variant(q, n, n, Variant.LL) == 1


def test_gaussian_binom():
    assert closed.gaussian_binom(3, 4, 2) == 130
    assert closed.gaussian_binom(3, 1, 1) == 1
    assert closed.gaussian_binom(3, 5, -1) == 0
    assert closed.gaussian_binom(3, 5, 6) == 0
    for n in range(7):
        for k in range(n + 1):
            assert closed.gaussian_binom(5, n, k) == closed.gaussian_binom(5, n, n - k)


def test_four_variants_partition_gaussian():
    """Nondegenerate cells of every flavor plus degenerate ones fill the count."""
    for q in ODD_PRIME_POWERS:
        for n in range(1, 7):
            for k in range(n + 1):
                dd = closed.dot_binom_variant(q, n, k, Variant.DD)
                dl = closed.dot_binom_variant(q, n, k, Variant.DL)
                assert dd + dl <= closed.gaussian_binom(q, n, k)


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_pascal_identities(q):
    for n in range(1, 7):
        closed.pascal_check(q, n)


def test_group_order_frozen():
    assert closed.group_order(3, 2) == 8
    assert closed.group_order(5, 2) == 8
    assert closed.group_order(3, 3) == 48
    assert closed.group_order(5, 4) == 28800
    assert closed.group_order(3, 5) == 103680


def _classical_order(q, n):
    """Textbook orthogonal group orders for the standard dot form."""
    chi = 1 if q % 4 == 1 else -1
    if n % 2 == 1:
        m = (n - 1) // 2
        order = 2 * q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
        return order
    m = n // 2
    # plus type iff (-1)^m times the discriminant (here 1) is a square
    eps = 1 if chi**m == 1 else -1
    order = 2 * q ** (m * (m - 1)) * (q**m - eps)
    for i in range(1, m):
        order *= q ** (2 * i) - 1
    return order


def test_group_order_matches_classical_formulas():
    for q in ODD_PRIME_POWERS:
        for n in range(1, 9):
            assert closed.group_order(q, n) == _classical_order(q, n), (q, n)


def test_quotient_identity():
    for q in ODD_PRIME_POWERS:
        for n in range(1, 9):
            for k in range(1, n):
                assert closed.quotient_identity_check(q, n, k)


def test_mobius_sequence_frozen():
    assert closed.mobius_sequence(3, 1).mu == (1, -1)
    assert closed.mobius_sequence(5, 2).mu == (1, -1, 1)
    assert closed.mobius_sequence(3, 3).mu == (1, -1, 1, -1)
    assert closed.mobius_sequence(3, 4).mu[4] == 5
    assert closed.mobius_sequence(5, 4).b[4] == -331
    assert closed.mobius_sequence(5, 4).mu[4] == -331


def test_mobius_recursion_alternating_sum():
    """The defining recursion: the signed binomial transform vanishes."""
    for q in (3, 5, 9):
        seq = closed.mobius_sequence(q, 5)
        for m in range(1, 6):
            total = sum(
                (-1) ** k * seq.b[k] * closed.dot_binom(q, m, k)
                for k in range(m + 1)
            )
            assert total == 0, (q, m)
            assert seq.mu[m] == (-1) ** m * seq.b[m]


def test_shape_checks():
    for q in ODD_PRIME_POWERS:
        for n in range(1, 9):
            report = closed.shape_checks(q, n)
            assert report.ok, (q, n, report)
            assert report.euclidean.ok and report.lorentzian.ok


def test_limit_value_frozen():
    assert closed.limit_value(5, 3) == 2
    assert closed.limit_value(4, 1) == 0
    assert closed.limit_value(6, 2) == 3
    assert closed.limit_value(7, 0) == 1
    with pytest.raises(UndefinedForParameters):
        closed.limit_value(4, 5)


def test_limit_value_parity_table():
    """Binomial coefficients in halved parameters; zero for n even, k odd."""
    import math

    for n in range(1, 17):
        for k in range(n + 1):
            want = closed.limit_value(n, k)
            if n % 2 == 1 and k % 2 == 1:
                assert want == math.comb((n - 1) // 2, (k - 1) // 2)
            elif n % 2 == 1:
                assert want == math.comb((n - 1) // 2, k // 2)
            elif k % 2 == 0:
                assert want == math.comb(n // 2, k // 2)
            else:
                assert want == 0


def test_asymptotic_gap():
    for q in (101, 1009):
        for n in range(2, 7):
            for k in range(1, n):
                gap = closed.asymptotic_gap(q, n, k)
                assert abs(gap) < Fraction(2, q), (q, n, k, gap)
    # plane at q = 1 mod 4: 50 of 102 lines are dot-type, gap exactly 1/102
    assert closed.asymptotic_gap(101, 2, 1) == Fraction(1, 102)


def test_verbatim_line_count_known_divergence():
    """The printed piecewise line counts are off exactly at q = 3 mod 4, n even."""
    for q in (3, 5, 7, 9, 11, 13):
        for n in range(1, 7):
            for kind in AmbientKind:
                s, t, _ = closed.line_counts(q, n, kind)
                vs = closed.verbatim_line_count(q, n, kind, "spacelike")
                vt = closed.verbatim_line_count(q, n, kind, "timelike")
                diverges = q % 4 == 3 and n % 2 == 0
                assert (vs != s or vt != t) == diverges, (q, n, kind)


def test_verbatim_line_count_3_2():
    assert closed.verbatim_line_count(3, 2, AmbientKind.DOT, "spacelike") == 1
    assert closed.line_counts(3, 2, AmbientKind.DOT)[0] == 2


def test_verbatim_flavor_matches_line_count():
    assert closed.verbatim_flavor(3, 2, Flavor.SPACELIKE_DOT) == 1
    assert closed.verbatim_flavor(5, 3, Flavor.TIMELIKE_LAMBDA) == \
        closed.verbatim_line_count(5, 3, AmbientKind.LAMBDA_DOT, "timelike")


def test_verbatim_group_order():
    value, note = closed.verbatim_group_order(3, 1)
    assert value is None and note
    value, note = closed.verbatim_group_order(3, 2)
    assert value is None and note
    value, _ = closed.verbatim_group_order(3, 3)
    assert value == 2  # the printed product collapses; the true order is 48
    value, _ = closed.verbatim_group_order(3, 4)
    assert value == 8
    value, _ = closed.verbatim_group_order(5, 4)
    assert value == 8


def test_bracket_factorial():
    assert closed.bracket_factorial(3, 3) == 6
    assert closed.bracket_factorial(5, 2) == 2
    assert closed.bracket_factorial(7, 0) == 1
    for q in (3, 5):
        for n in range(1, 6):
            assert closed.bracket_factorial(q, n) == \
                closed.bracket_factorial(q, n - 1) * closed.bracket(q, n)


def test_odd_prime_power_matches_trial_division_below_1e5():
    limit = 10**5
    smallest = list(range(limit))  # smallest prime factor, sieved
    for f in range(2, math.isqrt(limit) + 1):
        if smallest[f] == f:
            for m in range(f * f, limit, f):
                smallest[m] = min(smallest[m], f)
    find = closed.odd_prime_power.__wrapped__  # keeps the cache small
    for q in range(-3, limit):
        want = None
        if q >= 3 and q % 2:
            p, e, rest = smallest[q], 0, q
            while rest % p == 0:
                rest //= p
                e += 1
            want = (p, e) if rest == 1 else None
        try:
            got = find(q)
        except InvalidQ:
            got = None
        assert got == want, q


@pytest.mark.parametrize("p,e", [
    (18446744073709551557, 1),  # the largest prime below 2^64
    (4294967291, 2),  # the largest prime below 2^32
    (65521, 4),  # the largest prime below 2^16
    (2642239, 3),
    (251, 8),
    (13, 17),
    (7, 22),
    (5, 27),
    (3, 40),
])
def test_odd_prime_power_near_two_to_the_64(p, e):
    assert p**e < 2**64
    assert closed.odd_prime_power(p**e) == (p, e)


@pytest.mark.parametrize("q", [
    4294967291 * 4294967279,  # two primes near 2^32
    3 * 4294967291**2,
    65521**3 * 65519,
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,  # Carmichael numbers
    3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    2**64 - 1,
])
def test_odd_prime_power_refuses_composites_that_fool_weaker_tests(q):
    with pytest.raises(InvalidQ):
        closed.odd_prime_power(q)
