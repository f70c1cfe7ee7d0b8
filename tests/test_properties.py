"""Property tests over random odd prime powers: identities of the closed forms,
and the oracle against itself; and a fuzz of the command line."""

import argparse
import contextlib
import functools
import io
import os
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dotbinom import cli, closed, oracle, polyq  # noqa: E402
from dotbinom.closed import Variant  # noqa: E402
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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q=prime_powers, n=st.integers(1, 14))
def test_closed_forms_are_dual_under_orthogonal_complement(q, n):
    """W -> W-perp keeps the class on the dot ambient and swaps dot and
    lambda-dot on the lambda-dot one: DD and DL are symmetric in k <-> n-k,
    and LD(n, k) = LL(n, n-k)."""
    dd, ld, dl, ll = ([closed.dot_binom_variant(q, n, k, v) for k in range(n + 1)]
                      for v in (Variant.DD, Variant.LD, Variant.DL, Variant.LL))
    assert dd == dd[::-1]
    assert dl == dl[::-1]
    assert ld == ll[::-1]


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


# cells whose frame counts each take milliseconds; n = 4 and q >= 7 at n = 3
# are priced at 4e7 to 4e8 candidate matrices, inside a budget of 10^9
GROUP_CELLS = [(q, 2, 1) for q in ODD_PRIME_POWERS] + [
    (3, 3, 1), (3, 3, 2), (5, 3, 1), (5, 3, 2), (3, 4, 1), (3, 4, 2), (7, 3, 1), (9, 3, 1),
]


@settings(derandomize=True, deadline=None, max_examples=15)
@given(cell=st.sampled_from(GROUP_CELLS))
def test_oracle_group_orders_satisfy_the_quotient_identity(cell):
    """|O(n)| = C(n,k)_d |O(k)| |O(n-k)|, every factor enumerated."""
    q, n, k = cell
    field = _fields(q)
    order = functools.partial(oracle.enumerate_orthogonal_group, budget=10**9)
    binom = oracle.count_subspaces_by_class(dot_space(field, n), k)[DOT]
    assert order(dot_space(field, n)) == (
        binom * order(dot_space(field, k)) * order(dot_space(field, n - k))
    )


# q = p^e below 140, so that every n >= 2 has q^2 < 20000 vectors
small_prime_powers = st.builds(pow, st.sampled_from(ODD_PRIMES[:33]), st.integers(1, 3)).filter(
    lambda q: q < 140)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(q=small_prime_powers, n=st.integers(2, 4), lam=st.booleans())
@example(q=27, n=3, lam=True)
def test_weighted_tallies_equal_the_posets_every_code_ranks(q, n, lam):
    """Counts classify one code of each sign pair per row, weighted; the
    posets classify every code (weight 1).  Rank k of the Euclidean and the
    Lorentzian poset holds the dot-type and the lambda-dot-type k-subspaces."""
    while q**n > 20_000:
        n -= 1
    ambient = (lambda_dot_space if lam else dot_space)(_fields(q), n)
    euclid, lorentz = (oracle.build_poset(ambient, kind, budget=10**7).rank_sizes()
                       for kind in oracle.PosetKind)
    for k in range(1, n):
        tallies = oracle.count_subspaces_by_class(ambient, k)
        assert (tallies[DOT], tallies[LAMBDA]) == (euclid[k], lorentz[k]), k


@settings(derandomize=True, deadline=None, max_examples=30)
@given(q=prime_powers.filter(lambda q: q * q <= oracle._MAX_TABLE_ENTRIES),
       n=st.integers(1, 10), k=st.integers(1, 10), lam=st.booleans())
@example(q=2039, n=3, k=2, lam=True)  # row side at the largest field the tables admit
@example(q=27, n=6, k=2, lam=False)
def test_transfer_matches_the_closed_forms_over_random_prime_powers(q, n, k, lam):
    """The Gram transfer against the variant closed forms on both sides,
    moved towards k = 1 or n - 1 until its state array fits the table limit."""
    k = k % n + 1
    field = _fields(q)
    ambient = (lambda_dot_space if lam else dot_space)(field, n)
    diag = tuple(field.index(d) for d in ambient.gram_diag)
    while q ** oracle._triangle(min(k, n - k)) > oracle._MAX_TABLE_ENTRIES:
        k += 1 if 2 * k > n else -1
    square, non_square, zero = oracle._transfer_tallies(field, diag, k)
    variants = (Variant.LD, Variant.LL) if lam else (Variant.DD, Variant.DL)
    assert (square, non_square) == tuple(closed.dot_binom_variant(q, n, k, v) for v in variants)
    assert square + non_square + zero == closed.gaussian_binom(q, n, k)


# the commands that enumerate draw small inputs only, so each finishes at once
ENUMERATING = {"oracle count", "oracle poset", "flags", "verify"}


def _in_or_out(low, high, *out):
    """Integers in low..high first (where hypothesis shrinks to), else ``out``."""
    return st.one_of(st.integers(low, high), st.sampled_from(out))


def _value(command, flag, spec):
    """A strategy for the text of one option: in range, out of range, or not valid."""
    small = command.name in ENUMERATING
    if "choices" in spec:
        return st.sampled_from([*map(str, spec["choices"]), "none-of-these"])
    if spec.get("metavar") == "FILE":
        # a writable file, a missing directory, and a directory
        return st.sampled_from([os.devnull, "/nonexistent/dir/edges.txt", "."])
    good = [3, 5, 7, 9] if small else [*ODD_PRIME_POWERS, 2**64 - 59]
    bad = [-1, 0, 1, 2, 4, 6] + ([] if small else [15, 18446743979220271189, 2**64])
    q = st.one_of(st.sampled_from(good), st.sampled_from(bad))
    if command.name == "verify" and flag == "--q":
        return st.one_of(st.lists(q, max_size=3).map(lambda qs: ",".join(map(str, qs))),
                         st.just("x"))
    ints = {
        "--q": q,
        "--n": _in_or_out(1, 3, -1, 0) if small else _in_or_out(0, cli.MAX_N, -1, cli.MAX_N + 1),
        "--k": _in_or_out(0, cli.MAX_N + 2, -1),
        "--rows": _in_or_out(0, cli.MAX_TRIANGLE_ROWS, -1, cli.MAX_TRIANGLE_ROWS + 1),
        "--max-n": _in_or_out(0, 1, -1, cli.MAX_VERIFY_N + 1),
        "--budget": _in_or_out(0, 10**6, -1),
    }
    return ints[flag].map(str)


@st.composite
def _argv(draw):
    """An argv built from one entry of cli.COMMANDS and its argument specs."""
    command = draw(st.sampled_from([c for c in cli.COMMANDS if c.handler]))
    argv = [*command.name.split(), "--format",
            draw(st.sampled_from(["plain", "csv", "json"]))]
    for flags, spec in command.args:
        flag = flags[0]
        if spec.get("action") == "store_true":
            argv += [flag] if draw(st.booleans()) else []
        elif spec.get("action") is argparse.BooleanOptionalAction:
            argv += draw(st.sampled_from([[], [flag], ["--no-" + flag[2:]]]))
        elif spec.get("required") or draw(st.booleans()):
            argv += [flag, draw(_value(command, flag, spec))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_argv())
def test_every_command_line_exits_zero_one_or_two(argv):
    """No argv drawn from the command table ends in a traceback.

    Exit 2 is a usage error from argparse; exit 1 is a domain error, which
    prints one ``error:`` line and nothing on stdout.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
