"""Property tests over random odd prime powers: identities of the closed forms,
and the oracle against itself."""

import functools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dotbinom import closed, oracle, polyq  # noqa: E402
from dotbinom.gf import make_field  # noqa: E402
from dotbinom.quadspace import SubspaceClass, dot_space, lambda_dot_space  # noqa: E402

ODD_PRIME_POWERS = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27]
DOT, LAMBDA, DEGENERATE = (
    SubspaceClass.DOT_TYPE,
    SubspaceClass.LAMBDA_DOT_TYPE,
    SubspaceClass.DEGENERATE,
)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(q=st.sampled_from(ODD_PRIME_POWERS), n=st.integers(1, 4), k=st.integers(0, 4))
@example(q=27, n=4, k=2)  # the costliest cell runs whatever hypothesis draws
def test_tallies_are_dual_under_orthogonal_complement(q, n, k):
    """W -> W-perp maps k-subspaces onto (n-k)-subspaces, and V = W + W-perp

    gives disc W-perp = disc V * disc W mod squares: on the dot ambient each
    class is kept, on the lambda-dot ambient dot and lambda-dot swap.
    Degenerate W has degenerate W-perp on both.
    """
    k %= n + 1
    field = make_field(*closed.odd_prime_power(q))
    dot = dot_space(field, n)
    low = oracle.count_subspaces_by_class(dot, k)
    high = oracle.count_subspaces_by_class(dot, n - k)
    assert low == high
    lam = lambda_dot_space(field, n)
    low = oracle.count_subspaces_by_class(lam, k)
    high = oracle.count_subspaces_by_class(lam, n - k)
    assert low[DOT] == high[LAMBDA]
    assert low[LAMBDA] == high[DOT]
    assert low[DEGENERATE] == high[DEGENERATE]


def _odd_primes(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(3, limit) if sieve[i]]


ODD_PRIMES = _odd_primes(2000)
# q = p^e up to the largest extension degree the fields support
prime_powers = st.builds(pow, st.sampled_from(ODD_PRIMES), st.integers(1, 4))


def _fields(q):
    return make_field(*closed.odd_prime_power(q))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q=prime_powers, n=st.integers(0, 14))
def test_pascal_identities_hold_over_random_prime_powers(q, n):
    row, ok = closed.pascal_check(q, n)
    assert ok and row == closed.pascal_row(q, n)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q=prime_powers, n=st.integers(2, 14), k=st.integers(1, 13))
def test_quotient_identity_holds_over_random_prime_powers(q, n, k):
    assert closed.quotient_identity_check(q, n, 1 + (k - 1) % (n - 1))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q=prime_powers, n=st.integers(0, 14), k=st.integers(0, 14))
def test_polynomials_evaluate_to_the_integer_counts(q, n, k):
    key = polyq.PolyFamilyKey(q % 4, n, k % (n + 1))
    assert polyq.eval_consistency(key, q)
    assert polyq.dot_binom_poly(key).evaluate(q) == closed.dot_binom(q, n, key.k)


def _oracle_brackets(field, n):
    """[m]_d for m = 0..n: spacelike lines of the m-dimensional dot ambient, [0] = 1."""
    return [1] + [oracle.count_lines(dot_space(field, m))[0] for m in range(1, n + 1)]


def _oracle_row(field, n):
    return [oracle.count_subspaces_by_class(dot_space(field, n), k)[DOT] for k in range(n + 1)]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(q=st.sampled_from(ODD_PRIME_POWERS), n=st.integers(2, 4))
def test_oracle_counts_satisfy_both_pascal_identities(q, n):
    """C(n,k) = C(n-1,k-1) + ([n]-[k])/[n-k] C(n-1,k) = C(n-1,k) + ([n]-[n-k])/[k] C(n-1,k-1),
    every term an oracle count."""
    field = _fields(q)
    b = _oracle_brackets(field, n)
    row, prev = _oracle_row(field, n), _oracle_row(field, n - 1)
    for k in range(1, n):
        assert row[k] == prev[k - 1] + Fraction(b[n] - b[k], b[n - k]) * prev[k]
        assert row[k] == prev[k] + Fraction(b[n] - b[n - k], b[k]) * prev[k - 1]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(q=st.sampled_from(ODD_PRIME_POWERS), n=st.integers(1, 5), k=st.integers(0, 5))
def test_oracle_counts_match_the_polynomials(q, n, k):
    k %= n + 1
    tally = oracle.count_subspaces_by_class(dot_space(_fields(q), n), k)
    key = polyq.PolyFamilyKey(q % 4, n, k)
    assert polyq.dot_binom_poly(key).evaluate(q) == tally[DOT]
    assert polyq.eval_consistency(key, q)


# cells whose q^(n^2) isometry scan stays under a few million candidates
GROUP_CELLS = [(q, 2, 1) for q in ODD_PRIME_POWERS] + [(3, 3, 1), (3, 3, 2), (5, 3, 1), (5, 3, 2)]


@settings(derandomize=True, deadline=None, max_examples=15)
@given(cell=st.sampled_from(GROUP_CELLS))
def test_oracle_group_orders_satisfy_the_quotient_identity(cell):
    """|O(n)| = C(n,k)_d |O(k)| |O(n-k)|, every factor enumerated."""
    q, n, k = cell
    field = _fields(q)
    order = functools.partial(oracle.enumerate_orthogonal_group, budget=10**7)
    binom = oracle.count_subspaces_by_class(dot_space(field, n), k)[DOT]
    assert order(dot_space(field, n)) == (
        binom * order(dot_space(field, k)) * order(dot_space(field, n - k))
    )
