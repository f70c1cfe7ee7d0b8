"""Polynomial families, functional equations, and coefficient symmetry."""

from fractions import Fraction

import pytest

from dotbinom import closed, polyq
from dotbinom.errors import (
    ExactDivisionFailed,
    Mismatch,
    NeitherSign,
    UndefinedForParameters,
)
from dotbinom.polyq import HALF, FunctionalSign, PolyFamilyKey, RatPoly


def test_ratpoly_construction_and_str():
    zero = RatPoly.from_coeffs(())
    assert zero.is_zero() and zero.degree == -1
    assert str(zero) == "0"
    assert str(RatPoly.constant(Fraction(1, 2))) == "1/2"
    assert str(RatPoly.monomial(1, 1)) == "q"
    p = RatPoly.from_coeffs((0, Fraction(1, 2), 1))
    assert str(p) == "q^2 + 1/2*q"
    assert str(RatPoly.from_coeffs((-1, Fraction(1, 2)))) == "1/2*q - 1"
    # trailing zeros are stripped on construction
    assert RatPoly.from_coeffs((1, 0, 0)) == RatPoly.constant(1)


def test_integer_division_is_exact_or_fails():
    assert polyq._divexact([-1, 0, 1], [1, 1]) == [-1, 1]
    assert polyq._divexact([4], [2]) == [2]   # q^0 + 1 at n = 0
    with pytest.raises(ExactDivisionFailed, match="nonzero remainder"):
        polyq._divexact([1, 0, 1], [1, 1])
    with pytest.raises(ExactDivisionFailed, match="nonzero remainder"):
        polyq._divexact([1, 1], [0, 0, 1])
    with pytest.raises(ExactDivisionFailed, match="not integral"):
        polyq._divexact([1, 1], [2])
    with pytest.raises(ExactDivisionFailed, match="not integral"):
        polyq._divexact([0, 1], [1, 2])


def test_ratpoly_valuation_and_depressed():
    p = RatPoly.from_coeffs((0, 0, Fraction(1, 2), 1))
    assert p.valuation == 2
    assert p.coeffs[p.valuation:] == (Fraction(1, 2), Fraction(1))
    assert p.leading_coefficient == 1
    with pytest.raises(ValueError):
        RatPoly.from_coeffs(()).valuation


def test_gaussian_binom_poly():
    assert str(polyq.gaussian_binom_poly(2, 1)) == "q + 1"
    assert str(polyq.gaussian_binom_poly(2, 1, squared=True)) == "q^2 + 1"
    assert str(polyq.gaussian_binom_poly(3, 1, squared=True)) == "q^4 + q^2 + 1"
    assert str(polyq.gaussian_binom_poly(4, 2)) == "q^4 + q^3 + 2*q^2 + q + 1"
    # the q-Pascal build against the product formula
    for n in range(16):
        for k in range(n + 1):
            poly = polyq.gaussian_binom_poly(n, k)
            assert poly == polyq.gaussian_binom_poly(n, n - k)
            for q in (3, 5, 7):
                assert poly.evaluate(q) == closed.gaussian_binom(q, n, k)
    with pytest.raises(UndefinedForParameters):
        polyq.gaussian_binom_poly(3, 4)


def test_key_validation():
    with pytest.raises(UndefinedForParameters):
        PolyFamilyKey(2, 3, 1)
    with pytest.raises(UndefinedForParameters):
        PolyFamilyKey(1, 3, 4)
    with pytest.raises(UndefinedForParameters):
        PolyFamilyKey(1, 3, -1)


def test_dot_binom_poly_frozen():
    assert str(polyq.dot_binom_poly(PolyFamilyKey(1, 4, 2))) == \
        "1/2*q^4 + q^3 + 1/2*q^2"
    assert str(polyq.dot_binom_poly(PolyFamilyKey(1, 3, 1))) == \
        "1/2*q^2 + 1/2*q"
    assert str(polyq.dot_binom_poly(PolyFamilyKey(3, 4, 2))) == \
        "1/2*q^4 - q^3 + 1/2*q^2"
    assert str(polyq.dot_binom_poly(PolyFamilyKey(1, 2, 1))) == "1/2*q - 1/2"
    assert polyq.dot_binom_poly(PolyFamilyKey(1, 5, 0)) == RatPoly.constant(1)
    assert polyq.dot_binom_poly(PolyFamilyKey(3, 5, 5)) == RatPoly.constant(1)


def test_dot_binom_poly_evaluation_frozen():
    assert polyq.dot_binom_poly(PolyFamilyKey(1, 4, 2)).evaluate(5) == 450
    assert polyq.dot_binom_poly(PolyFamilyKey(3, 4, 2)).evaluate(3) == 18
    assert polyq.dot_binom_poly(PolyFamilyKey(3, 3, 1)).evaluate(3) == 3


def test_eval_consistency_sweep():
    for q_class, qs in ((1, (5, 9, 13)), (3, (3, 7, 11))):
        for n in range(1, 9):
            for k in range(n + 1):
                key = PolyFamilyKey(q_class, n, k)
                for q in qs:
                    assert polyq.eval_consistency(key, q)


def test_eval_consistency_rejects_wrong_class():
    with pytest.raises(UndefinedForParameters):
        polyq.eval_consistency(PolyFamilyKey(1, 3, 1), 3)
    with pytest.raises(UndefinedForParameters):
        polyq.eval_consistency(PolyFamilyKey(3, 3, 1), 9)


def test_degree_and_leading_coefficient():
    for q_class in (1, 3):
        for n in range(1, 9):
            for k in range(n + 1):
                poly = polyq.dot_binom_poly(PolyFamilyKey(q_class, n, k))
                assert poly.degree == k * (n - k)
                lead = poly.leading_coefficient
                if 0 < k < n:
                    assert lead == HALF
                else:
                    assert lead == 1


def test_depressed_coefficients_frozen():
    assert polyq.depressed_coefficients(PolyFamilyKey(1, 4, 1)) == \
        (1, (Fraction(-1, 2), Fraction(0), Fraction(1, 2)))
    assert polyq.depressed_coefficients(PolyFamilyKey(1, 4, 2)) == \
        (2, (Fraction(1, 2), Fraction(1), Fraction(1, 2)))
    assert polyq.depressed_coefficients(PolyFamilyKey(1, 3, 1)) == \
        (1, (Fraction(1, 2), Fraction(1, 2)))


def test_valuation_matches_parity_rule():
    """Odd k(n-k) pulls the prefactor exponent down by one half step."""
    for q_class in (1, 3):
        for n in range(1, 9):
            for k in range(1, n):
                key = PolyFamilyKey(q_class, n, k)
                m, _ = polyq.depressed_coefficients(key)
                kk = k * (n - k)
                assert m == (kk - 1) // 2 if kk % 2 else kk // 2


def test_functional_equation_signs_frozen():
    assert polyq.functional_equation_check(PolyFamilyKey(1, 3, 1)) is \
        FunctionalSign.PLUS
    assert polyq.functional_equation_check(PolyFamilyKey(1, 4, 2)) is \
        FunctionalSign.PLUS
    assert polyq.functional_equation_check(PolyFamilyKey(1, 4, 1)) is \
        FunctionalSign.MINUS
    assert polyq.functional_equation_check(PolyFamilyKey(3, 4, 2)) is \
        FunctionalSign.PLUS
    assert polyq.functional_equation_check(PolyFamilyKey(3, 4, 1)) is \
        FunctionalSign.MINUS


def test_every_interior_cell_has_definite_sign():
    for q_class in (1, 3):
        for n in range(1, 9):
            for k in range(1, n):
                polyq.functional_equation_check(PolyFamilyKey(q_class, n, k))


def test_published_sign_disagrees_only_at_known_cells():
    """The printed case lists flip sign against the computed reversal on two
    congruence families in class 3: every even-even cell (printed minus,
    actual plus) and every n = 0, k = 1 (mod 4) cell (printed plus, actual
    minus).  Class 1 is printed correctly everywhere.  The printed
    functional-equation and symmetry lists agree with each other on these
    cells, so they are wrong together."""
    for q_class in (1, 3):
        for n in range(1, 13):
            for k in range(1, n):
                key = PolyFamilyKey(q_class, n, k)
                computed = polyq.functional_equation_check(key)
                published = polyq.published_functional_sign(key)
                known = q_class == 3 and (
                    (n % 2 == 0 and k % 2 == 0)
                    or (n % 4 == 0 and k % 4 == 1)
                )
                assert (computed is not published) == known, (q_class, n, k)
                sym = polyq.coefficient_symmetry_report(key)
                assert sym.matches_published == (computed is published)


# The paper's class-3 "minus" cases printed without their class:
# case number -> (n mod 4, the k mod 4 values, reversal signs in classes 1 and 3).
UNLABELED_CASES = {
    3: (1, (3, 2), ("plus", "minus")),
    4: (2, (0, 2), ("plus", "plus")),
    5: (0, (0, 2), ("plus", "plus")),
    6: (0, (3,), ("minus", "minus")),
}


@pytest.mark.parametrize("case", sorted(UNLABELED_CASES))
def test_unlabeled_printed_cases_read_their_reversal_signs_in_both_classes(case):
    """Only case 3 is minus in class 3 alone, e.g. at (n, k) = (5, 2); cases 4
    and 5 are plus in both classes and case 6 is minus in both."""
    n4, k4s, want = UNLABELED_CASES[case]
    cells = [(n, k) for n in range(1, 25) for k in range(1, n)
             if n % 4 == n4 and k % 4 in k4s]
    assert cells
    for n, k in cells:
        got = tuple(polyq.functional_equation_check(PolyFamilyKey(c, n, k)).value
                    for c in (1, 3))
        assert got == want, (case, n, k)


def test_symmetry_report_frozen():
    rep = polyq.coefficient_symmetry_report(PolyFamilyKey(1, 2, 1))
    assert rep.computed is FunctionalSign.MINUS
    assert rep.published is FunctionalSign.MINUS
    assert rep.matches_published
    assert rep.printed_bound == Fraction(1, 2)
    assert not rep.bound_consistent  # fractional printed index bound
    rep2 = polyq.coefficient_symmetry_report(PolyFamilyKey(1, 3, 1))
    assert rep2.bound_consistent and rep2.matches_published
    rep3 = polyq.coefficient_symmetry_report(PolyFamilyKey(3, 4, 2))
    assert rep3.bound_consistent and not rep3.matches_published
    assert (rep3.computed, rep3.published) == (FunctionalSign.PLUS, FunctionalSign.MINUS)


def test_symmetry_bound_inconsistent_exactly_on_class1_odd_cells():
    for q_class in (1, 3):
        for n in range(1, 9):
            for k in range(1, n):
                rep = polyq.coefficient_symmetry_report(PolyFamilyKey(q_class, n, k))
                fractional = q_class == 1 and n % 2 == 0 and k % 2 == 1
                assert rep.bound_consistent == (not fractional), (q_class, n, k)


def test_limit_checks():
    # the values agree with the degenerate-point table
    x = {1: 1, 3: -1}
    for q_class in (1, 3):
        for n in range(1, 9):
            for k in range(n + 1):
                poly = polyq.dot_binom_poly(PolyFamilyKey(q_class, n, k))
                assert poly.evaluate(x[q_class]) == closed.limit_value(n, k)


def test_row_symmetry():
    for q_class in (1, 3):
        for n in range(1, 9):
            assert polyq.row_symmetric(q_class, n), (q_class, n)
            for k in range(n + 1):
                assert polyq.dot_binom_poly(PolyFamilyKey(q_class, n, k)) == \
                    polyq.dot_binom_poly(PolyFamilyKey(q_class, n, n - k))


def test_mismatch_carries_both_values():
    key = PolyFamilyKey(3, 4, 2)
    with pytest.raises((Mismatch, UndefinedForParameters)):
        polyq.eval_consistency(key, 5)
