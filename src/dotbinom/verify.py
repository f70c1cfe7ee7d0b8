"""Reconciliation suite: closed forms against enumeration and printed text."""

from __future__ import annotations

from fractions import Fraction

from . import closed, oracle, polyq, symsets
from .closed import Variant
from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    IdentityViolated,
    Mismatch,
    NeitherSign,
)
from .gf import make_field
from .oracle import PosetKind
from .quadspace import AmbientKind, SubspaceClass, dot_space
from .report import CheckRecord, Status, VerifyReport

# Posets are checked for q <= 5 and n <= 4 only.  Their edges and Mobius
# values are rank-layered gathers, cheap well beyond this window (q = 9,
# n = 4 builds its Euclidean poset in 83-91 ms and sums its flags and Mobius
# value in 26-27 ms, warm, on 2 cores); the window stays because a wider
# one adds records that the frozen verify output in bench/reference/ lacks.
POSET_Q_MAX = 5
POSET_N_MAX = 4
KSET_N_MAX = 16

_VARIANT_BY_CELL = {
    (AmbientKind.DOT, SubspaceClass.DOT_TYPE): Variant.DD,
    (AmbientKind.DOT, SubspaceClass.LAMBDA_DOT_TYPE): Variant.DL,
    (AmbientKind.LAMBDA_DOT, SubspaceClass.DOT_TYPE): Variant.LD,
    (AmbientKind.LAMBDA_DOT, SubspaceClass.LAMBDA_DOT_TYPE): Variant.LL,
}
_FAILURES = (IdentityViolated, Mismatch, NeitherSign)
# an enumeration over budget, or over a field the oracle cannot build
_SKIPS = (BudgetExceeded, DegreeOutOfRange)


def _field(q):
    return make_field(*closed.odd_prime_power(q))


def _check(add, check, params, expected, actual, failed="", compare=True,
           mismatch=Status.FAIL, note=""):
    """Add the record of one check; return the actual value, or None on error.

    ``actual`` is a value or a callable computing it here.  BudgetExceeded
    or a field the oracle cannot build makes the record SKIPPED; a violated
    identity, a mismatch or an indefinite sign makes it FAIL with ``failed``
    as its actual value.
    Otherwise it is PASS when ``expected`` equals the actual value and
    ``mismatch`` when not: FAIL, or PAPER_DISCREPANCY where the actual value
    is a formula as printed.  Where ``expected`` describes the value rather
    than equals it, the two never match, and ``mismatch`` is the status the
    record takes.  That record carries ``note``; with ``compare`` false it
    is left to the caller.
    """
    try:
        value = actual() if callable(actual) else actual
    except _SKIPS as exc:
        add(CheckRecord(check, params, str(expected), "", Status.SKIPPED, str(exc)))
        return None
    except _FAILURES as exc:
        add(CheckRecord(check, params, str(expected), failed, Status.FAIL, str(exc)))
        return None
    if compare:
        status = Status.PASS if expected == value else mismatch
        add(CheckRecord(check, params, str(expected), str(value), status, note))
    return value


def _line_counts(tallies):
    """(spacelike, timelike, lightlike) from the class tallies of the lines."""
    return tuple(tallies[klass] for klass in SubspaceClass)


def _subspace_family(add, tally, q, n):
    for kind in AmbientKind:
        for k in range(n + 1):
            params = f"q={q} n={n} k={k} ambient={kind.value}"
            tallies = _check(add, "oracle/subspace-count", params, "",
                             lambda: tally(q, kind, n, k), compare=False)
            if tallies is None:
                continue
            for klass in (SubspaceClass.DOT_TYPE, SubspaceClass.LAMBDA_DOT_TYPE):
                variant = _VARIANT_BY_CELL[kind, klass]
                _check(add, "oracle/subspace-count",
                       f"{params} variant={variant.value}",
                       closed.dot_binom_variant(q, n, k, variant), tallies[klass])
        params = f"q={q} n={n} ambient={kind.value}"
        lines = _check(add, "oracle/line-count", params, "",
                       lambda: _line_counts(tally(q, kind, n, 1)), compare=False)
        if lines is not None:
            _check(add, "oracle/line-count", params,
                   closed.line_counts(q, n, kind), lines)


def _closed_family(add, q, n):
    params = f"q={q} n={n}"
    _check(add, "closed/pascal", params, "identities hold",
           lambda: closed.pascal_check(q, n) and "identities hold",
           failed="violated")
    shape = closed.shape_checks(q, n)
    actual = "euclidean={} lorentzian={}".format(
        "ok" if shape.euclidean.ok else "violated",
        "ok" if shape.lorentzian.ok else "violated",
    )
    _check(add, "closed/shape", params, "euclidean=ok lorentzian=ok", actual)
    for k in range(1, n):
        _check(add, "closed/quotient-identity", f"q={q} n={n} k={k}",
               "identity holds",
               lambda: closed.quotient_identity_check(q, n, k) and "identity holds",
               failed="violated")


def _poset_family(add, q, n):
    ambient = dot_space(_field(q), n)
    params = f"q={q} n={n}"
    euclidean = params + " kind=euclidean"
    snap = _check(add, "oracle/poset-ranks", euclidean, "",
                  lambda: oracle.build_poset(ambient, PosetKind.EUCLIDEAN),
                  compare=False)
    if snap is None:
        return
    _check(add, "oracle/poset-ranks", euclidean,
           tuple(closed.pascal_row(q, n)), snap.rank_sizes())
    _check(add, "oracle/flag-count", params,
           closed.bracket_factorial(q, n), oracle.count_flags(snap))
    _check(add, "oracle/mobius", params,
           closed.mobius_sequence(q, n).mu[n], oracle.mobius_bottom(snap))
    want = (1,) + tuple(
        closed.dot_binom_variant(q, n, k, Variant.DL) for k in range(1, n)
    ) + (1,)
    _check(add, "oracle/poset-ranks", params + " kind=lorentzian",
           want, lambda: oracle.build_poset(ambient, PosetKind.LORENTZIAN).rank_sizes())


def _group_family(add, q, n, budget):
    _check(add, "oracle/group-order", f"q={q} n={n}", closed.group_order(q, n),
           lambda: oracle.enumerate_orthogonal_group(dot_space(_field(q), n), budget=budget))


def _published_family(add, tally, q, n):
    for kind in AmbientKind:
        note = ""
        try:
            s, t, _ = _line_counts(tally(q, kind, n, 1))
        except _SKIPS + _FAILURES as exc:
            # the same reason the oracle/line-count record was skipped or failed for
            s, t, _ = closed.line_counts(q, n, kind)
            note = f"expected from fitted bracket; {exc}"
        for which, want in (("spacelike", s), ("timelike", t)):
            _check(add, "published/line-count",
                   f"q={q} n={n} ambient={kind.value} which={which}", want,
                   closed.verbatim_line_count(q, n, kind, which),
                   mismatch=Status.PAPER_DISCREPANCY, note=note)
    params = f"q={q} n={n}"
    want = closed.group_order(q, n)
    value, note = closed.verbatim_group_order(q, n)
    _check(add, "published/group-order", params, want,
           "not evaluable" if value is None else value,
           mismatch=Status.SKIPPED if value is None else Status.PAPER_DISCREPANCY,
           note=note)


def _poly_cell(add, key, compare_paper):
    params = f"class={key.q_class} n={key.n} k={key.k}"
    poly = polyq.dot_binom_poly(key)
    interior = 0 < key.k < key.n
    want_lead = polyq.HALF if interior else Fraction(1)
    _check(
        add, "poly/degree-lead", params,
        f"degree={key.k * (key.n - key.k)} lead={want_lead}",
        f"degree={poly.degree} lead={poly.leading_coefficient}",
    )
    if not interior:
        return
    if not compare_paper:
        _check(add, "poly/sign", params, "definite sign",
               lambda: polyq.functional_equation_check(key).value,
               failed="neither", mismatch=Status.PASS)
    else:
        rep = polyq.coefficient_symmetry_report(key)
        # a sign that is neither is raised again, for its message
        sign = _check(add, "poly/sign", params, "definite sign",
                      lambda: rep.computed or polyq.functional_equation_check(key),
                      failed="neither", compare=False)
        if sign is not None:
            _check(add, "poly/sign", params, rep.published.value, sign.value,
                   mismatch=Status.PAPER_DISCREPANCY,
                   note="" if rep.matches_published
                   else "printed case list disagrees with coefficient reversal")
        issues = []
        if not rep.bound_consistent:
            issues.append(
                f"printed index bound {rep.printed_bound} does not match "
                f"depressed degree {rep.depressed_degree}"
            )
        if not rep.matches_published:
            computed = rep.computed.value if rep.computed else "neither"
            issues.append(
                f"printed symmetry {rep.published.value} vs computed {computed}"
            )
        _check(add, "poly/symmetry", params, "printed table consistent",
               "; ".join(issues) or "consistent",
               mismatch=Status.PAPER_DISCREPANCY if issues else Status.PASS)
    x = 1 if key.q_class == 1 else -1
    _check(add, "poly/limit", f"{params} at q={x}",
           closed.limit_value(key.n, key.k), poly.evaluate(x))


def _poly_family(add, qs, max_n, compare_paper):
    for q_class in (1, 3):
        eval_qs = [q for q in qs if q % 4 == q_class]
        for n in range(1, max_n + 1):
            for k in range(n + 1):
                key = polyq.PolyFamilyKey(q_class, n, k)
                _poly_cell(add, key, compare_paper)
                for q in eval_qs:
                    _check(add, "poly/eval", f"class={q_class} n={n} k={k} q={q}",
                           "values agree",
                           lambda: polyq.eval_consistency(key, q) and "values agree",
                           failed="mismatch")
            _check(
                add, "poly/row-symmetry", f"class={q_class} n={n}",
                "symmetric",
                "symmetric" if polyq.row_symmetric(q_class, n) else "asymmetric",
            )


def _kset_family(add):
    for n in range(2, KSET_N_MAX + 1):
        want = tuple(closed.limit_value(n, k) for k in range(1, n))
        got = tuple(symsets.count_symmetric_ksets(n, k) for k in range(1, n))
        _check(add, "ksets/limit-equality", f"n={n}", want, got)


def run_verify(qs, max_n, budget=oracle.DEFAULT_BUDGET, jobs=1,
               compare_paper=True) -> VerifyReport:
    """Run every check family over the given field sizes and dimensions.

    ``jobs`` is accepted and ignored: every count runs in this process.  It
    stays because the benchmark's verify workload passes it
    (bench/workloads.py).
    """
    records = []
    add = records.append
    # each (q, ambient kind) is counted once per run, as a table of every
    # (n, k): each cell's tallies or the error that skipped or failed it
    tables = {}

    def tally(q, kind, n, k):
        if (q, kind) not in tables:
            try:
                tables[q, kind] = oracle.count_table(_field(q), kind, max_n, budget)
            except _SKIPS + _FAILURES as exc:
                tables[q, kind] = {(dim, j): exc for dim in range(1, max_n + 1)
                                   for j in range(dim + 1)}
        found = tables[q, kind][n, k]
        if isinstance(found, Exception):
            raise found
        return found

    for q in qs:
        closed.odd_prime_power(q)  # a q that is not an odd prime power raises here
        for n in range(1, max_n + 1):
            _subspace_family(add, tally, q, n)
            _closed_family(add, q, n)
            if q <= POSET_Q_MAX and n <= POSET_N_MAX:
                _poset_family(add, q, n)
            _group_family(add, q, n, budget)
            if compare_paper:
                _published_family(add, tally, q, n)
    _poly_family(add, qs, max_n, compare_paper)
    _kset_family(add)
    return VerifyReport(tuple(records))
