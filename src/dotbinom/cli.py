"""Command line interface for exact dot-analogue computations.

The commands and their arguments live in ``COMMANDS``: one entry per
subcommand, holding its name, help, handler and argument specs.  Each
handler returns ``(columns, rows, payload, plain)``, and an exit status
after them when it can be nonzero; ``main`` renders it in the chosen format.

The closed-form commands run without numpy: the oracle, ``polyq`` and
``verify`` are imported only by the commands that use them.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, NamedTuple

from . import closed, symsets
from .closed import Flavor, Variant
from .errors import DotAnalogueError, MissingDependency
from .gf import MAX_Q, make_field
from .quadspace import (
    DEFAULT_BUDGET,
    DEFAULT_POSET_BUDGET,
    PosetKind,
    ambient_space,
    dot_space,
)
from .report import (
    VERIFY_COLUMNS,
    Status,
    _verify_payload,
    render_csv,
    render_json,
    verify_plain_lines,
)

# Caps on --rows and --n.  At q just below the --q cap, triangle row 30 and
# group-order or mobius at n = 22 hold integers beyond the 4300 digits that
# Python converts to text; inside the caps every command takes under 0.3 s.
MAX_TRIANGLE_ROWS = 29
MAX_N = 21
# Cap on verify --max-n: its closed-form and polynomial families have no
# price.  On 2 cores verify --q 3 took 0.25-0.34 s cold at --max-n 8, and
# run_verify([3], 9) 0.24-0.25 s with its import, which takes 0.16 s of it.
MAX_VERIFY_N = 8


def _field_for(q):
    p, e = closed.odd_prime_power(q)
    return make_field(p, e)


def _numpy_module(name: str):
    """Import the package module ``name``, which needs numpy; without numpy, a domain error."""
    try:
        return importlib.import_module(f"{__package__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise MissingDependency("this command needs numpy, which is not installed") from None


def _kv(row, *keys) -> list[str]:
    return [f"{key} {row[key]}" for key in keys]


def cmd_bracket(args):
    flavor = Flavor(args.flavor)
    value = closed.bracket(args.q, args.n, flavor)
    row = {"q": args.q, "n": args.n, "flavor": flavor.value, "value": value}
    plain = [str(value)]
    if args.compare_paper:
        published = closed.verbatim_flavor(args.q, args.n, flavor)
        row["published"] = published
        row["status"] = (Status.PASS if published == value else Status.PAPER_DISCREPANCY).value
        plain = _kv(row, "value", "published", "status")
    return list(row), [row], row, plain


def cmd_binom(args):
    variant = Variant(args.variant)
    value = closed.dot_binom_variant(args.q, args.n, args.k, variant)
    row = {"q": args.q, "n": args.n, "k": args.k,
           "variant": variant.value, "value": value}
    return list(row), [row], row, [str(value)]


def cmd_triangle(args):
    triangle = [closed.pascal_row(args.q, n) for n in range(args.rows + 1)]
    rows = [
        {"n": n, "k": k, "value": value}
        for n, row in enumerate(triangle)
        for k, value in enumerate(row)
    ]
    plain = [" ".join(str(v) for v in row) for row in triangle]
    return ["n", "k", "value"], rows, {"q": args.q, "rows": triangle}, plain


def cmd_poly(args):
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
            rep = polyq.coefficient_symmetry_report(key)
            x = 1 if args.q_class == 1 else -1
            row["sign"] = rep.computed.value if rep.computed else "neither"
            row["published_sign"] = rep.published.value
            row["limit"] = str(poly.evaluate(x))
            row["limit_expected"] = closed.limit_value(args.n, k)
            line += (f"  sign={row['sign']} published={row['published_sign']}"
                     f" limit={row['limit']} expected={row['limit_expected']}")
        rows.append(row)
        plain.append(line)
    return columns, rows, {"q_class": args.q_class, "n": args.n, "cells": rows}, plain


def cmd_group_order(args):
    value = closed.group_order(args.q, args.n)
    row = {"q": args.q, "n": args.n, "value": value}
    plain = [str(value)]
    if args.compare_paper:
        published, note = closed.verbatim_group_order(args.q, args.n)
        if published is None:
            row["published"] = "not evaluable"
            row["status"] = Status.SKIPPED.value
        else:
            row["published"] = str(published)
            row["status"] = (Status.PASS if published == value else Status.PAPER_DISCREPANCY).value
        row["note"] = note
        plain = _kv(row, "value", "published", "status")
        if note:
            plain += _kv(row, "note")
    return list(row), [row], row, plain


def cmd_mobius(args):
    seq = closed.mobius_sequence(args.q, args.n)
    rows = [{"m": m, "b": seq.b[m], "mu": seq.mu[m]}
            for m in range(args.n + 1)]
    plain = [f"m={r['m']} b={r['b']} mu={r['mu']}" for r in rows]
    return ["m", "b", "mu"], rows, {"q": args.q, "rows": rows}, plain


def cmd_limits(args):
    ks = range(args.n + 1) if args.k is None else [args.k]
    columns = ["n", "k", "limit", "symmetric_ksets"]
    rows = [dict(zip(columns, (args.n, k, closed.limit_value(args.n, k),
                               symsets.count_symmetric_ksets(args.n, k))))
            for k in ks]
    plain = [f"k={r['k']} limit={r['limit']} ksets={r['symmetric_ksets']}"
             for r in rows]
    return columns, rows, {"n": args.n, "rows": rows}, plain


def cmd_oracle_count(args):
    oracle = _numpy_module("oracle")

    ambient = ambient_space(_field_for(args.q), args.ambient, args.n)
    rep = oracle.full_count_report(ambient, budget=args.budget)
    space = {"ambient": rep.ambient_kind.value, "q": rep.q, "n": rep.n}
    subspaces = [{"k": k, "dot": d, "lambda_dot": l, "degenerate": z}
                 for k, d, l, z in rep.tallies]
    s, t, li = rep.lines
    payload = {
        **space,
        "subspaces": subspaces,
        "lines": {"spacelike": s, "timelike": t, "lightlike": li},
        "flag_count": rep.flag_count,
        "mobius_bottom_to_top": rep.mobius_bottom_to_top,
    }
    rows = [{**space, **cell} for cell in subspaces]
    return list(rows[0]), rows, payload, rep.to_kv_lines()


def _dot_poset(args, kind):
    """The oracle module and the ``kind`` poset of the dot ambient F_q^n."""
    oracle = _numpy_module("oracle")
    ambient = dot_space(_field_for(args.q), args.n)
    return oracle, oracle.build_poset(ambient, kind, budget=args.budget)


def cmd_oracle_poset(args):
    oracle, snap = _dot_poset(args, PosetKind(args.kind))
    ranks = snap.rank_sizes()
    graph_file = args.emit_graph or None
    if graph_file is not None:
        try:
            oracle.export_hasse(snap, graph_file)
        except OSError as exc:
            raise DotAnalogueError(f"cannot write {graph_file}: {exc.strerror}") from None
    rows = [{"rank": i, "size": size} for i, size in enumerate(ranks)]
    payload = {"q": args.q, "n": args.n, "kind": args.kind,
               "ranks": list(ranks), "nodes": sum(ranks),
               "edges": len(snap.hasse_edges), "graph_file": graph_file}
    plain = ["ranks " + " ".join(str(size) for size in ranks),
             *_kv(payload, "nodes", "edges")]
    if graph_file is not None:
        plain.append(f"graph {graph_file}")
    return ["rank", "size"], rows, payload, plain


def cmd_flags(args):
    oracle, snap = _dot_poset(args, PosetKind.EUCLIDEAN)
    flags = oracle.count_flags(snap)
    want = closed.bracket_factorial(args.q, args.n)
    status = Status.PASS if flags == want else Status.FAIL
    row = {"q": args.q, "n": args.n, "flags": flags,
           "bracket_factorial": want, "status": status.value}
    plain = _kv(row, "flags", "bracket_factorial", "status")
    return list(row), [row], row, plain, 0 if status is Status.PASS else 1


def cmd_verify(args):
    verify = _numpy_module("verify")

    report = verify.run_verify(args.q, args.max_n, budget=args.budget,
                               compare_paper=args.compare_paper)
    payload = _verify_payload(report)
    return (VERIFY_COLUMNS, payload["checks"], payload, verify_plain_lines(report),
            report.exit_status)


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
_field_size = _int_in(high=MAX_Q - 1)


def _q_list(text: str) -> list[int]:
    try:
        values = [_field_size(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("at least one field size is required")
    return list(dict.fromkeys(values))  # repeats dropped, first-seen order kept


def _arg(*flags, **kwargs):
    """One argument spec: the positional and keyword arguments of ``add_argument``."""
    return flags, kwargs


def _compare_paper(expression):
    return _arg("--compare-paper", action="store_true",
                help=f"also evaluate the published {expression}")


_Q = _arg("--q", type=_field_size, required=True)
_N = _arg("--n", type=_int_in(0, MAX_N), required=True, help=f"at most {MAX_N}")
_BUDGET = _arg("--budget", type=_natural, default=DEFAULT_BUDGET)
_POSET_BUDGET = _arg("--budget", type=_natural, default=DEFAULT_POSET_BUDGET,
                     help="cap on the subspaces scanned and on the 64-bit words "
                          "of the nodes' vector masks (default: %(default)s)")


class _Command(NamedTuple):
    name: str  # "oracle count" is the subcommand count of the group oracle
    help: str
    handler: Callable | None  # None for a group
    args: tuple = ()


COMMANDS = (
    _Command("bracket", "bracket value [n] for one flavor", cmd_bracket, (
        _Q, _N,
        _arg("--flavor", choices=[f.value for f in Flavor],
             default=Flavor.SPACELIKE_DOT.value),
        _compare_paper("line-count expression"))),
    _Command("binom", "dot-binomial coefficient for one variant", cmd_binom, (
        _Q, _N, _arg("--k", type=_natural, required=True),
        _arg("--variant", choices=[v.value for v in Variant],
             default=Variant.DD.value))),
    _Command("triangle", "triangle of dot-binomial coefficients", cmd_triangle, (
        _Q, _arg("--rows", type=_int_in(0, MAX_TRIANGLE_ROWS), required=True,
                 help=f"last row index, at most {MAX_TRIANGLE_ROWS}"))),
    _Command("poly", "polynomial forms of the dot-binomial coefficients", cmd_poly, (
        _arg("--q-class", type=int, choices=(1, 3), required=True,
             help="congruence class of q modulo 4"),
        _N, _arg("--k", type=_natural, help="single cell (default: the whole row)"),
        _arg("--checks", action="store_true",
             help="include sign, symmetry, and limit columns"))),
    _Command("group-order", "order of the orthogonal group of the dot form", cmd_group_order, (
        _Q, _N, _compare_paper("product expression"))),
    _Command("mobius", "Mobius sequence of the subspace poset", cmd_mobius, (
        _Q, _N)),
    _Command("limits", "limits of the normalized polynomials", cmd_limits, (
        _N, _arg("--k", type=_natural))),
    _Command("oracle", "brute-force enumeration", None),
    _Command("oracle count", "enumerate and classify all subspaces", cmd_oracle_count, (
        _Q, _N, _arg("--ambient", choices=("dot", "lambda_dot"), default="dot"),
        _BUDGET)),
    _Command("oracle poset", "build a rank poset over the dot ambient", cmd_oracle_poset, (
        _Q, _N,
        _arg("--kind", choices=[k.value for k in PosetKind],
             default=PosetKind.EUCLIDEAN.value),
        _arg("--emit-graph", metavar="FILE",
             help="write Hasse edges to FILE, one edge per line"),
        _POSET_BUDGET)),
    _Command("flags", "maximal chains against the bracket factorial", cmd_flags, (
        _Q, _N, _POSET_BUDGET)),
    _Command("verify", "reconcile closed forms against enumeration", cmd_verify, (
        _arg("--q", type=_q_list, required=True,
             help="comma-separated field sizes, e.g. 3,5,9"),
        _arg("--max-n", type=_int_in(0, MAX_VERIFY_N), required=True,
             help=f"largest dimension checked, at most {MAX_VERIFY_N}"),
        _BUDGET,
        _arg("--compare-paper", action=argparse.BooleanOptionalAction, default=True,
             help="include checks of formulas exactly as published"))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dotbinom",
        description="Exact dot-analogue counts over odd finite fields.",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for command in COMMANDS:
        group, _, leaf = command.name.rpartition(" ")
        p = subparsers[group].add_parser(leaf, help=command.help)
        if command.handler is None:
            subparsers[leaf] = p.add_subparsers(dest=f"{leaf}_command", required=True)
            continue
        p.add_argument("--format", choices=("plain", "csv", "json"),
                       default="plain", help="output format")
        for flags, kwargs in command.args:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(entry=command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        columns, rows, payload, plain, *status = args.entry.handler(args)
    except DotAnalogueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        sys.stdout.write(render_csv(columns, rows))
    elif args.format == "json":
        name = args.entry.name.replace(" ", "-")
        sys.stdout.write(render_json({"command": name, **payload}))
    else:
        sys.stdout.write("\n".join(plain) + "\n")
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
