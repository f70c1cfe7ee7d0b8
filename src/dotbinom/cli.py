"""Command line interface for exact dot-analogue computations.

The closed-form commands run without numpy: the oracle, ``polyq`` and
``verify`` are imported only by the commands that use them.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import closed, symsets
from .closed import Flavor, Variant
from .errors import DotAnalogueError, NeitherSign
from .gf import MAX_Q, make_field
from .quadspace import (
    DEFAULT_BUDGET,
    DEFAULT_POSET_BUDGET,
    PosetKind,
    ambient_space,
    dot_space,
)
from .report import (
    render_csv,
    render_json,
    verify_csv,
    verify_json,
    verify_plain_lines,
)

# Caps on --rows and --n.  At q just below the --q cap, triangle row 30 and
# group-order or mobius at n = 22 hold integers beyond the 4300 digits that
# Python converts to text; inside the caps every command takes under 0.3 s.
MAX_TRIANGLE_ROWS = 29
MAX_N = 21


def _field_for(q):
    p, e = closed.odd_prime_power(q)
    return make_field(p, e)


def _fmt(value) -> str:
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    return str(value)


def _emit(args, columns, rows, payload, plain_lines) -> None:
    if args.format == "csv":
        sys.stdout.write(render_csv(columns, rows))
    elif args.format == "json":
        sys.stdout.write(render_json(payload))
    else:
        sys.stdout.write("\n".join(plain_lines) + "\n")


def cmd_bracket(args) -> int:
    flavor = Flavor(args.flavor)
    value = closed.bracket(args.q, args.n, flavor)
    columns = ["q", "n", "flavor", "value"]
    row = {"q": args.q, "n": args.n, "flavor": flavor.value, "value": value}
    plain = [str(value)]
    if args.compare_paper:
        published = closed.verbatim_flavor(args.q, args.n, flavor)
        status = "pass" if published == value else "paper_discrepancy"
        columns += ["published", "status"]
        row["published"] = published
        row["status"] = status
        plain = [f"value {value}", f"published {published}", f"status {status}"]
    payload = {"command": "bracket", **row}
    _emit(args, columns, [row], payload, plain)
    return 0


def cmd_binom(args) -> int:
    variant = Variant(args.variant)
    value = closed.dot_binom_variant(args.q, args.n, args.k, variant)
    columns = ["q", "n", "k", "variant", "value"]
    row = {"q": args.q, "n": args.n, "k": args.k,
           "variant": variant.value, "value": value}
    payload = {"command": "binom", **row}
    _emit(args, columns, [row], payload, [str(value)])
    return 0


def cmd_triangle(args) -> int:
    triangle = [closed.pascal_row(args.q, n) for n in range(args.rows + 1)]
    columns = ["n", "k", "value"]
    rows = [
        {"n": n, "k": k, "value": value}
        for n, row in enumerate(triangle)
        for k, value in enumerate(row)
    ]
    payload = {"command": "triangle", "q": args.q, "rows": triangle}
    plain = [" ".join(str(v) for v in row) for row in triangle]
    _emit(args, columns, rows, payload, plain)
    return 0


def cmd_poly(args) -> int:
    from . import polyq

    ks = range(args.n + 1) if args.k is None else [args.k]
    columns = ["q_class", "n", "k", "degree", "poly"]
    if args.checks:
        columns += ["sign", "published_sign", "limit", "limit_expected"]
    rows = []
    plain = []
    for k in ks:
        key = polyq.PolyFamilyKey(args.q_class, args.n, k)
        poly = polyq.dot_binom_poly(key)
        row = {"q_class": args.q_class, "n": args.n, "k": k,
               "degree": poly.degree, "poly": str(poly)}
        line = f"k={k} degree={poly.degree} {poly}"
        if args.checks and 0 < k < args.n:
            try:
                sign = polyq.functional_equation_check(key).value
            except NeitherSign:
                sign = "neither"
            x = 1 if args.q_class == 1 else -1
            row["sign"] = sign
            row["published_sign"] = polyq.published_functional_sign(key).value
            row["limit"] = _fmt(poly.evaluate(x))
            row["limit_expected"] = closed.limit_value(args.n, k)
            line += (f"  sign={row['sign']} published={row['published_sign']}"
                     f" limit={row['limit']} expected={row['limit_expected']}")
        rows.append(row)
        plain.append(line)
    payload = {"command": "poly", "q_class": args.q_class, "n": args.n,
               "cells": rows}
    _emit(args, columns, rows, payload, plain)
    return 0


def cmd_group_order(args) -> int:
    value = closed.group_order(args.q, args.n)
    columns = ["q", "n", "value"]
    row = {"q": args.q, "n": args.n, "value": value}
    plain = [str(value)]
    if args.compare_paper:
        published, note = closed.verbatim_group_order(args.q, args.n)
        if published is None:
            status = "skipped"
            published_text = "not evaluable"
        else:
            status = "pass" if published == value else "paper_discrepancy"
            published_text = str(published)
        columns += ["published", "status", "note"]
        row["published"] = published_text
        row["status"] = status
        row["note"] = note
        plain = [f"value {value}", f"published {published_text}",
                 f"status {status}"]
        if note:
            plain.append(f"note {note}")
    payload = {"command": "group-order", **row}
    _emit(args, columns, [row], payload, plain)
    return 0


def cmd_mobius(args) -> int:
    seq = closed.mobius_sequence(args.q, args.n)
    columns = ["m", "b", "mu"]
    rows = [{"m": m, "b": seq.b[m], "mu": seq.mu[m]}
            for m in range(args.n + 1)]
    payload = {"command": "mobius", "q": args.q, "rows": rows}
    plain = [f"m={r['m']} b={r['b']} mu={r['mu']}" for r in rows]
    _emit(args, columns, rows, payload, plain)
    return 0


def cmd_limits(args) -> int:
    ks = range(args.n + 1) if args.k is None else [args.k]
    columns = ["n", "k", "limit", "symmetric_ksets"]
    rows = []
    for k in ks:
        ksets = symsets.count_symmetric_ksets(args.n, k) if args.n <= 24 else None
        rows.append({"n": args.n, "k": k,
                     "limit": closed.limit_value(args.n, k),
                     "symmetric_ksets": ksets})
    payload = {"command": "limits", "n": args.n, "rows": rows}
    plain = [
        "k={k} limit={limit} ksets={ks}".format(
            k=r["k"], limit=r["limit"],
            ks="-" if r["symmetric_ksets"] is None else r["symmetric_ksets"])
        for r in rows
    ]
    _emit(args, columns, rows, payload, plain)
    return 0


def cmd_oracle_count(args) -> int:
    from . import oracle

    ambient = ambient_space(_field_for(args.q), args.ambient, args.n)
    rep = oracle.full_count_report(ambient, budget=args.budget, jobs=args.jobs)
    columns = ["ambient", "q", "n", "k", "dot", "lambda_dot", "degenerate"]
    rows = [
        {"ambient": rep.ambient_kind.value, "q": rep.q, "n": rep.n,
         "k": k, "dot": d, "lambda_dot": l, "degenerate": z}
        for k, d, l, z in rep.tallies
    ]
    s, t, li = rep.lines
    payload = {
        "command": "oracle-count",
        "ambient": rep.ambient_kind.value,
        "q": rep.q,
        "n": rep.n,
        "subspaces": [
            {"k": k, "dot": d, "lambda_dot": l, "degenerate": z}
            for k, d, l, z in rep.tallies
        ],
        "lines": {"spacelike": s, "timelike": t, "lightlike": li},
        "flag_count": rep.flag_count,
        "mobius_bottom_to_top": rep.mobius_bottom_to_top,
    }
    _emit(args, columns, rows, payload, rep.to_kv_lines(include_elapsed=False))
    return 0


def cmd_oracle_poset(args) -> int:
    from . import oracle

    ambient = dot_space(_field_for(args.q), args.n)
    snap = oracle.build_poset(ambient, PosetKind(args.kind), budget=args.budget)
    ranks = snap.rank_sizes()
    graph_file = None
    if args.emit_graph:
        oracle.export_hasse(snap, args.emit_graph)
        graph_file = args.emit_graph
    columns = ["rank", "size"]
    rows = [{"rank": i, "size": size} for i, size in enumerate(ranks)]
    payload = {"command": "oracle-poset", "q": args.q, "n": args.n,
               "kind": args.kind, "ranks": list(ranks),
               "nodes": len(snap.nodes), "edges": len(snap.hasse_edges),
               "graph_file": graph_file}
    plain = [
        "ranks " + " ".join(str(size) for size in ranks),
        f"nodes {len(snap.nodes)}",
        f"edges {len(snap.hasse_edges)}",
    ]
    if graph_file is not None:
        plain.append(f"graph {graph_file}")
    _emit(args, columns, rows, payload, plain)
    return 0


def cmd_flags(args) -> int:
    from . import oracle

    ambient = dot_space(_field_for(args.q), args.n)
    snap = oracle.build_poset(ambient, PosetKind.EUCLIDEAN, budget=args.budget)
    flags = oracle.count_flags(snap)
    want = closed.bracket_factorial(args.q, args.n)
    status = "pass" if flags == want else "fail"
    columns = ["q", "n", "flags", "bracket_factorial", "status"]
    row = {"q": args.q, "n": args.n, "flags": flags,
           "bracket_factorial": want, "status": status}
    payload = {"command": "flags", **row}
    plain = [f"flags {flags}", f"bracket_factorial {want}", f"status {status}"]
    _emit(args, columns, [row], payload, plain)
    return 0 if status == "pass" else 1


def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_verify(args.q, args.max_n, budget=args.budget,
                               jobs=args.jobs, compare_paper=args.compare_paper)
    if args.format == "csv":
        sys.stdout.write(verify_csv(report))
    elif args.format == "json":
        sys.stdout.write(verify_json(report))
    else:
        sys.stdout.write("\n".join(verify_plain_lines(report)) + "\n")
    return report.exit_status


def _int_in(low=None, high=None):
    """argparse type: an integer in low..high; a None end is open."""
    def parse(text: str) -> int:
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


_natural = _int_in(0)
_positive = _int_in(1)
_field_size = _int_in(high=MAX_Q - 1)
_dimension = _int_in(0, MAX_N)
_rows = _int_in(0, MAX_TRIANGLE_ROWS)


def _q_list(text: str) -> list[int]:
    try:
        values = [_field_size(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("at least one field size is required")
    return values


_N_HELP = f"at most {MAX_N}"
_POSET_BUDGET_HELP = ("cap on the subspaces scanned and on the 64-bit words "
                      "of the nodes' vector masks (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "csv", "json"),
                        default="plain", help="output format")

    parser = argparse.ArgumentParser(
        prog="dotbinom",
        description="Exact dot-analogue counts over odd finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", parents=[common],
                       help="bracket value [n] for one flavor")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.add_argument("--flavor", choices=[f.value for f in Flavor],
                   default=Flavor.SPACELIKE_DOT.value)
    p.add_argument("--compare-paper", action="store_true",
                   help="also evaluate the published line-count expression")
    p.set_defaults(handler=cmd_bracket)

    p = sub.add_parser("binom", parents=[common],
                       help="dot-binomial coefficient for one variant")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--variant", choices=[v.value for v in Variant],
                   default=Variant.DD.value)
    p.set_defaults(handler=cmd_binom)

    p = sub.add_parser("triangle", parents=[common],
                       help="triangle of dot-binomial coefficients")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--rows", type=_rows, required=True,
                   help=f"last row index, at most {MAX_TRIANGLE_ROWS}")
    p.set_defaults(handler=cmd_triangle)

    p = sub.add_parser("poly", parents=[common],
                       help="polynomial forms of the dot-binomial coefficients")
    p.add_argument("--q-class", type=int, choices=(1, 3), required=True,
                   help="congruence class of q modulo 4")
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.add_argument("--k", type=_natural, default=None,
                   help="single cell (default: the whole row)")
    p.add_argument("--checks", action="store_true",
                   help="include sign, symmetry, and limit columns")
    p.set_defaults(handler=cmd_poly)

    p = sub.add_parser("group-order", parents=[common],
                       help="order of the orthogonal group of the dot form")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.add_argument("--compare-paper", action="store_true",
                   help="also evaluate the published product expression")
    p.set_defaults(handler=cmd_group_order)

    p = sub.add_parser("mobius", parents=[common],
                       help="Mobius sequence of the subspace poset")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.set_defaults(handler=cmd_mobius)

    p = sub.add_parser("limits", parents=[common],
                       help="limits of the normalized polynomials")
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.add_argument("--k", type=_natural, default=None)
    p.set_defaults(handler=cmd_limits)

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p = oracle_sub.add_parser("count", parents=[common],
                              help="enumerate and classify all subspaces")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.add_argument("--ambient", choices=("dot", "lambda_dot"), default="dot")
    p.add_argument("--budget", type=_natural, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=_positive, default=1)
    p.set_defaults(handler=cmd_oracle_count)

    p = oracle_sub.add_parser("poset", parents=[common],
                              help="build a rank poset over the dot ambient")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.add_argument("--kind", choices=[k.value for k in PosetKind],
                   default=PosetKind.EUCLIDEAN.value)
    p.add_argument("--emit-graph", metavar="FILE", default=None,
                   help="write Hasse edges to FILE, one edge per line")
    p.add_argument("--budget", type=_natural, default=DEFAULT_POSET_BUDGET,
                   help=_POSET_BUDGET_HELP)
    p.set_defaults(handler=cmd_oracle_poset)

    p = sub.add_parser("flags", parents=[common],
                       help="maximal chains against the bracket factorial")
    p.add_argument("--q", type=_field_size, required=True)
    p.add_argument("--n", type=_dimension, required=True, help=_N_HELP)
    p.add_argument("--budget", type=_natural, default=DEFAULT_POSET_BUDGET,
                   help=_POSET_BUDGET_HELP)
    p.set_defaults(handler=cmd_flags)

    p = sub.add_parser("verify", parents=[common],
                       help="reconcile closed forms against enumeration")
    p.add_argument("--q", type=_q_list, required=True,
                   help="comma-separated field sizes, e.g. 3,5,9")
    p.add_argument("--max-n", type=_natural, required=True)
    p.add_argument("--budget", type=_natural, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--compare-paper", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="include checks of formulas exactly as published")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DotAnalogueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
