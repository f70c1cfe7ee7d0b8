"""In-memory spans and counters around the package's module attributes.

The tracer replaces attributes such as ``oracle.count_subspaces_by_class``
with wrappers.  Callers that look the name up on the module at call time
(``verify``, ``cli``, the benchmark workloads, and calls inside the wrapped
module itself) then pass through the wrapper; names a module imported by
value are left alone.  Nothing is printed: spans stay in memory until the
worker writes them to a file.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from time import perf_counter

from dotbinom import cli, closed, oracle, polyq, report, verify
from dotbinom.errors import BudgetExceeded

COUNT = "oracle.count_subspaces_by_class"
POSET = "oracle.build_poset"
GROUP = "oracle.enumerate_orthogonal_group"
POLY_BUILD = "polyq.dot_binom_poly"
POLY_CHECKS = (
    "polyq.functional_equation_check",
    "polyq.published_functional_sign",
    "polyq.eval_consistency",
    "polyq.coefficient_symmetry_report",
    "polyq.row_symmetric",
)
# oracle calls whose BudgetExceeded is one skipped enumeration
BUDGETED = (COUNT, POSET, GROUP)
K_RANGE = range(1, 6)


class Tracer:
    """Spans as [name, start, end, parent index or -1, info] plus counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._originals = []

    def wrap(self, module, attr, name, describe=None):
        """Record a span per call; ``describe(arguments, result)`` adds info."""
        original = getattr(module, attr)
        signature = inspect.signature(original) if describe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = describe(bound.arguments, result)
            return result

        self._patch(module, attr, original, traced)

    def count(self, module, attr, name):
        """Count calls without a span, for calls too hot to time one by one."""
        original = getattr(module, attr)
        counters = self.counters
        counters[name] = 0

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[name] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, original, counted)

    def _patch(self, module, attr, original, replacement):
        self._originals.append((module, attr, original))
        setattr(module, attr, replacement)

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, covered)]

    def dump(self):
        """JSON-ready spans; info keys starting with '_' hold live objects."""
        out = []
        for name, start, end, parent, info in self.spans:
            row = {"name": name, "start": start, "end": end, "parent": parent}
            if info:
                row["info"] = {k: v for k, v in info.items() if not k.startswith("_")}
            out.append(row)
        return {"spans": out, "counters": dict(self.counters)}


def _count_info(arguments, tallies):
    ambient = arguments["ambient"]
    return {
        "q": ambient.field.q,
        "n": ambient.n,
        "k": arguments["k"],
        "ambient": ambient.kind.value,
        "jobs": arguments["jobs"],
        "subspaces": sum(tallies.values()),
        "tallies": [tallies[c] for c in sorted(tallies, key=lambda c: c.value)],
        "_ambient": ambient,
        "_budget": arguments["budget"],
    }


def _poset_info(arguments, snapshot):
    return {"nodes": len(snapshot.nodes), "edges": len(snapshot.hasse_edges)}


def _group_info(arguments, order):
    ambient = arguments["ambient"]
    return {"candidates": ambient.field.q ** (ambient.n * ambient.n)}


def _poly_info(arguments, poly):
    key = arguments["key"]
    return {"key": [key.q_class, key.n, key.k]}


def install(tracer: Tracer) -> None:
    """Wrap every package entry point the per-layer metrics read."""
    tracer.wrap(oracle, "count_subspaces_by_class", COUNT, _count_info)
    tracer.wrap(oracle, "count_lines", "oracle.count_lines")
    tracer.wrap(oracle, "build_poset", POSET, _poset_info)
    tracer.wrap(oracle, "count_flags", "oracle.count_flags")
    tracer.wrap(oracle, "mobius_bottom", "oracle.mobius_bottom")
    tracer.wrap(oracle, "enumerate_orthogonal_group", GROUP, _group_info)
    tracer.wrap(oracle, "full_count_report", "oracle.full_count_report")
    tracer.count(oracle, "contains", "quadspace.contains_calls")
    for attr, value in list(vars(closed).items()):
        if (callable(value) and not inspect.isclass(value)
                and not attr.startswith("_")
                and getattr(value, "__module__", None) == closed.__name__):
            tracer.wrap(closed, attr, f"closed.{attr}")
    tracer.wrap(polyq, "dot_binom_poly", POLY_BUILD, _poly_info)
    for name in POLY_CHECKS:
        tracer.wrap(polyq, name.split(".", 1)[1], name)
    for attr in ("verify_json", "verify_csv", "verify_plain_lines"):
        tracer.wrap(report, attr, f"report.{attr}")
    tracer.wrap(verify, "run_verify", "verify.run_verify")
    tracer.wrap(cli, "main", "cli.main")


def pooled_count_calls(tracer: Tracer):
    """(ambient, k, budget, tallies, seconds) of count calls run with jobs > 1."""
    return [
        (info["_ambient"], info["k"], info["_budget"], info["tallies"], end - start)
        for name, start, end, _, info in tracer.spans
        if name == COUNT and info and info.get("jobs", 1) > 1 and "tallies" in info
    ]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans and counters of one traced pass."""
    spans = tracer.spans
    self_s = tracer.self_times()

    def named(name):
        return [(end - start, info or {}) for n, start, end, _, info in spans if n == name]

    counts = named(COUNT)
    done = [(d, info) for d, info in counts if "subspaces" in info]
    subspaces = sum(info["subspaces"] for _, info in done)
    seen = set()
    repeats = 0
    for _, info in counts:
        key = (info.get("q"), info.get("n"), info.get("k"), info.get("ambient"))
        if "subspaces" in info:
            repeats += key in seen
            seen.add(key)

    def us_per(cells):
        total = sum(info["subspaces"] for _, info in cells)
        return sum(d for d, _ in cells) / total * 1e6 if total else 0.0

    posets = named(POSET)
    groups = named(GROUP)
    cli_ms = [d * 1e3 for d, _ in named("cli.main")]
    closed_spans = [i for i, s in enumerate(spans) if s[0].startswith("closed.")]
    metrics = {
        "cli.main_ms": statistics.median(cli_ms) if cli_ms else 0.0,
        "oracle.count.calls": len(counts),
        "oracle.count.subspaces": subspaces,
        "oracle.count.s": sum(d for d, _ in counts),
        "oracle.count.us_per_subspace": us_per(done),
        "oracle.count.repeat_calls": repeats,
        "oracle.poset.build_s": sum(d for d, _ in posets),
        "oracle.poset.nodes": sum(info.get("nodes", 0) for _, info in posets),
        "oracle.poset.edges": sum(info.get("edges", 0) for _, info in posets),
        "oracle.mobius_s": sum(d for d, _ in named("oracle.mobius_bottom")),
        "oracle.flags_s": sum(d for d, _ in named("oracle.count_flags")),
        "quadspace.contains_calls": tracer.counters.get("quadspace.contains_calls", 0),
        "oracle.group.s": sum(d for d, _ in groups),
        "oracle.group.candidates": sum(info.get("candidates", 0) for _, info in groups),
        "oracle.skipped": sum(
            1 for n, _, _, _, info in spans
            if n in BUDGETED and info and info.get("raised") == BudgetExceeded.__name__
        ),
        "polyq.cells": len({tuple(info["key"]) for _, info in named(POLY_BUILD) if "key" in info}),
        "polyq.build_s": sum(d for d, _ in named(POLY_BUILD)),
        "polyq.checks_s": sum(self_s[i] for i, s in enumerate(spans) if s[0] in POLY_CHECKS),
        "closed.calls": len(closed_spans),
        "closed.s": sum(
            spans[i][2] - spans[i][1] for i in closed_spans
            if spans[i][3] < 0 or not spans[spans[i][3]][0].startswith("closed.")
        ),
        "verify.self_s": sum(self_s[i] for i, s in enumerate(spans) if s[0] == "verify.run_verify"),
        "report.render_s": sum(
            spans[i][2] - spans[i][1] for i, s in enumerate(spans) if s[0].startswith("report.")
        ),
    }
    for k in K_RANGE:
        metrics[f"oracle.count.us_per_subspace.k{k}"] = us_per(
            [(d, info) for d, info in done if info["k"] == k]
        )
    return metrics
