"""Property tests over random odd prime powers: the oracle against itself."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dotbinom import closed, oracle  # noqa: E402
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
