"""Field tower construction and arithmetic."""

import math
import subprocess
import sys

import pytest

from dotbinom.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DivisionByZero,
    EvenCharacteristic,
    NotPrime,
)
from dotbinom.gf import MAX_FIELD_ORDER, MAX_Q, SquareClass, _is_prime, make_field


def test_construction_validation():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(15)
    with pytest.raises(EvenCharacteristic):
        make_field(2)
    with pytest.raises(DegreeOutOfRange):
        make_field(3, 0)
    with pytest.raises(DegreeOutOfRange):
        make_field(3, 5)
    with pytest.raises(DegreeOutOfRange):
        make_field(1048583)  # prime just above the order cap
    assert make_field(3, 4).q == 81 <= MAX_FIELD_ORDER


def test_make_field_is_cached():
    assert make_field(3, 2) is make_field(3, 2)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)])
def test_field_axioms(p, e):
    """Commutativity, associativity, distributivity over every triple."""
    field = make_field(p, e)
    elems = list(field.elements())
    assert len(elems) == field.q
    for a in elems:
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
    # triples on a subfield-sized slice keep this O(q^2) overall
    probe = elems[: min(len(elems), 9)]
    for a in probe:
        for b in probe:
            for c in probe:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_units_and_inverses(p, e):
    field = make_field(p, e)
    for a in field.elements():
        assert field.add(a, field.neg(a)) == field.zero
        assert field.sub(a, a) == field.zero
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                field.inv(a)
        else:
            assert field.mul(a, field.inv(a)) == field.one


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (13, 1), (3, 2), (5, 2)])
def test_square_classes_partition_evenly(p, e):
    """Exactly (q-1)/2 nonzero squares, and the class agrees with squaring."""
    field = make_field(p, e)
    squares = {field.mul(a, a) for a in field.elements() if not a.is_zero()}
    assert len(squares) == (field.q - 1) // 2
    for a in field.elements():
        klass = field.square_class(a)
        if a.is_zero():
            assert klass is SquareClass.ZERO
        elif a in squares:
            assert klass is SquareClass.SQUARE
        else:
            assert klass is SquareClass.NON_SQUARE


def test_square_class_multiplicativity():
    field = make_field(7)
    nonzero = [a for a in field.elements() if not a.is_zero()]
    for a in nonzero:
        for b in nonzero:
            same = field.square_class(a) is field.square_class(b)
            product_square = field.square_class(field.mul(a, b)) is SquareClass.SQUARE
            assert same == product_square


def test_lambda_witness():
    assert make_field(3).index(make_field(3).lambda_) == 2
    assert make_field(5).index(make_field(5).lambda_) == 2
    # GF(9) with modulus t^2 + 1: indices 0..3 are 0, 1, 2, t; 4 is 1 + t
    f9 = make_field(3, 2)
    assert f9.modulus == (1, 0, 1)
    assert f9.index(f9.lambda_) == 4
    assert f9.lambda_.coeffs == (1, 1)
    for field in (make_field(3), make_field(5), f9, make_field(3, 3)):
        assert field.square_class(field.lambda_) is SquareClass.NON_SQUARE


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 2), (3, 4)])
def test_index_round_trip(p, e):
    field = make_field(p, e)
    seen = set()
    for i in range(field.q):
        a = field.from_index(i)
        assert field.index(a) == i
        seen.add(a)
    assert len(seen) == field.q
    assert field.index(field.zero) == 0
    assert field.index(field.one) == 1


def test_from_int_embeds_prime_subfield():
    f9 = make_field(3, 2)
    two = f9.from_int(2)
    assert f9.add(two, f9.one) == f9.zero
    assert f9.from_int(5) == two
    assert f9.from_int(-1) == two


def test_pow_matches_repeated_multiplication():
    field = make_field(3, 2)
    for a in field.elements():
        acc = field.one
        for exponent in range(6):
            assert field.pow_(a, exponent) == acc
            acc = field.mul(acc, a)
        if not a.is_zero():
            assert field.pow_(a, field.q - 1) == field.one


def test_frobenius_is_additive():
    field = make_field(3, 2)
    for a in field.elements():
        for b in field.elements():
            lhs = field.pow_(field.add(a, b), 3)
            rhs = field.add(field.pow_(a, 3), field.pow_(b, 3))
            assert lhs == rhs


def test_format_element():
    f3 = make_field(3)
    assert f3.format_element(f3.from_int(2)) == "2"
    f9 = make_field(3, 2)
    assert f9.format_element(f9.zero) == "0"
    assert f9.format_element(f9.from_index(3)) == "t"
    assert f9.format_element(f9.from_index(4)) == "t + 1"


def test_euler_criterion_check_survives_optimize_flag():
    """x^2 - 1 is reducible over GF(3): there (1 + x)^4 = 2 + 2x, neither 1 nor -1."""
    script = (
        "from dotbinom.errors import IdentityViolated\n"
        "from dotbinom.gf import FieldSpec\n"
        "ring = FieldSpec(3, 2)\n"
        "ring.modulus = (2, 0, 1)\n"
        "try:\n"
        "    ring.square_class(ring.from_coeffs((1, 1)))\n"
        "except IdentityViolated as exc:\n"
        "    print(*exc.args)\n"
    )
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "euler-criterion (3, 2) (1, 1) (2, 2)\n"


def test_is_prime_matches_a_sieve_below_1e5():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, limit, i))
    assert [m for m in range(limit) if _is_prime(m)] == \
        [m for m in range(limit) if sieve[m]]


def test_is_prime_near_and_beyond_two_to_the_64():
    assert _is_prime(MAX_Q - 59)  # the largest prime below 2^64
    assert not _is_prime(3825123056546413051)  # strong pseudoprime to bases up to 23
    assert not _is_prime(MAX_Q + 5)  # divisible by 3
    with pytest.raises(BudgetExceeded):  # 274177 * 67280421310721, undecided
        _is_prime(MAX_Q + 1)
