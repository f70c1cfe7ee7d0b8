"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is a ``Workload`` whose ``inputs(seed)`` builds the pass's
inputs, ``run(inputs)`` does the timed work and returns the outputs with
per-operation latencies, and ``check(inputs, outputs)`` compares the
outputs against independent values.  The seed only reorders work and picks
arguments among options of equal cost, so every seed does the same amount
of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from dotbinom import cli, closed, oracle, report, verify
from dotbinom.closed import Variant
from dotbinom.gf import make_field
from dotbinom.quadspace import SubspaceClass, dot_space, lambda_dot_space

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def pool_jobs() -> int:
    """Two pool workers, or fewer on a machine with fewer cores."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Outputs:
    """What one pass produced, before checking."""

    values: list  # one entry per operation, as the check expects it
    # latency of each call a user waits for, when a pass holds several;
    # empty when the whole pass is the one call
    op_ms: list = field(default_factory=list)


@dataclass
class Verdict:
    attempted: int
    checks: int  # results that were computed and compared, not skipped
    errors: list  # one entry per failed operation or failed check


def _ambient(q, n, kind):
    field_ = make_field(*closed.odd_prime_power(q))
    return dot_space(field_, n) if kind == "dot" else lambda_dot_space(field_, n)


# -- verify-sweep -------------------------------------------------------------

VERIFY_QS = (3, 5, 7, 9)
VERIFY_MAX_N = 5


def verify_inputs(seed, qs=VERIFY_QS, max_n=VERIFY_MAX_N):
    order = list(qs)
    random.Random(seed).shuffle(order)
    return {"qs": order, "max_n": max_n, "jobs": pool_jobs()}


def verify_run(inputs):
    rep = verify.run_verify(inputs["qs"], inputs["max_n"], jobs=inputs["jobs"])
    return Outputs([rep, report.verify_json(rep)])


def record_key(rec):
    return rec["check"], rec["params"]


def reference_path(qs, max_n):
    return REFERENCE_DIR / "verify-q{}-n{}.json".format(
        "-".join(str(q) for q in sorted(qs)), max_n)


def compare_to_reference(records, reference):
    """Records (as dicts) that differ from the reference run.

    A reference record that was SKIPPED may now pass: it is then either
    unchanged or replaced by PASS records whose params extend its params.
    Every other difference, including a record that appears or vanishes,
    is reported.
    """
    current = {record_key(r): r for r in records}
    problems = []
    explained = set()
    for ref in reference:
        key = record_key(ref)
        got = current.get(key)
        if ref["status"] == "skipped":
            widened = [k for k in current
                       if k[0] == key[0] and k[1].startswith(key[1] + " ")]
            if got is not None and got["status"] in ("skipped", "pass"):
                explained.add(key)
            elif got is None and widened and all(
                    current[k]["status"] == "pass" for k in widened):
                explained.update(widened)
            else:
                problems.append(f"{key}: reference skipped, now {got or 'missing'}")
            continue
        explained.add(key)
        if got is None:
            problems.append(f"{key}: missing")
        elif any(got[f] != ref[f] for f in ("expected", "actual", "status")):
            problems.append(f"{key}: {got} differs from reference {ref}")
    problems.extend(f"{k}: not in the reference" for k in current if k not in explained)
    return problems


def verify_check(inputs, outputs):
    rep, text = outputs.values
    records = [r.as_dict() for r in rep.records]
    errors = [f"FAIL {r['check']} {r['params']}" for r in records if r["status"] == "fail"]
    payload = json.loads(text)
    if payload["checks"] != records or payload["summary"] != rep.summary():
        errors.append("verify_json does not render the report's records")
    path = reference_path(inputs["qs"], inputs["max_n"])
    if path.exists():
        errors += compare_to_reference(records, json.loads(path.read_text())["checks"])
    else:
        errors.append(f"no reference run at {path.name}")
    checks = sum(1 for r in records if r["status"] != "skipped")
    return Verdict(len(records), checks, errors)


# -- oracle-large -------------------------------------------------------------

ORACLE_CELLS = (
    (13, 5, 2, "dot"),
    (11, 5, 3, "lambda_dot"),
    (3, 7, 4, "lambda_dot"),
    (5, 6, 3, "dot"),
    (27, 4, 2, "lambda_dot"),
    (343, 2, 1, "dot"),
)

_VARIANTS = {
    "dot": (Variant.DD, Variant.DL),
    "lambda_dot": (Variant.LD, Variant.LL),
}


def oracle_inputs(seed, cells=ORACLE_CELLS):
    order = list(cells)
    random.Random(seed).shuffle(order)
    return {"cells": order,
            "subspaces": sum(closed.gaussian_binom(q, n, k) for q, n, k, _ in order)}


def oracle_run(inputs):
    return Outputs([
        oracle.count_subspaces_by_class(_ambient(q, n, kind), k, jobs=1)
        for q, n, k, kind in inputs["cells"]
    ])


def oracle_check(inputs, outputs):
    errors = []
    for (q, n, k, kind), tallies in zip(inputs["cells"], outputs.values):
        dot_v, lam_v = _VARIANTS[kind]
        want = (closed.dot_binom_variant(q, n, k, dot_v),
                closed.dot_binom_variant(q, n, k, lam_v))
        got = (tallies[SubspaceClass.DOT_TYPE], tallies[SubspaceClass.LAMBDA_DOT_TYPE])
        if got != want or sum(tallies.values()) != closed.gaussian_binom(q, n, k):
            errors.append(f"q={q} n={n} k={k} {kind}: tallies {got}, closed forms {want}")
    cells = len(inputs["cells"])
    return Verdict(cells, cells - len(errors), errors)


# -- cli-cold -----------------------------------------------------------------

PRIME_POWERS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27)
FORMATS = ("plain", "csv", "json")


def _closed_form_command(template, rng):
    q = rng.choice(PRIME_POWERS)
    fmt = ["--format", rng.choice(FORMATS)]
    if template == "bracket":
        flavor = rng.choice(("spacelike_dot", "timelike_dot",
                             "spacelike_lambda", "timelike_lambda"))
        extra = ["--compare-paper"] if rng.random() < 0.5 else []
        return ["bracket", "--q", str(q), "--n", str(rng.randint(1, 12)),
                "--flavor", flavor, *extra, *fmt]
    if template == "binom":
        n = rng.randint(1, 12)
        return ["binom", "--q", str(q), "--n", str(n), "--k", str(rng.randint(0, n)),
                "--variant", rng.choice(("dd", "dl", "ld", "ll")), *fmt]
    if template == "triangle":
        return ["triangle", "--q", str(q), "--rows", str(rng.randint(4, 10)), *fmt]
    if template == "group-order":
        extra = ["--compare-paper"] if rng.random() < 0.5 else []
        return ["group-order", "--q", str(q), "--n", str(rng.randint(1, 10)), *extra, *fmt]
    if template == "mobius":
        return ["mobius", "--q", str(q), "--n", str(rng.randint(1, 8)), *fmt]
    if template == "limits":
        return ["limits", "--n", str(rng.randint(1, 20)), *fmt]
    extra = ["--checks"] if rng.random() < 0.5 else []
    return ["poly", "--q-class", rng.choice(("1", "3")), "--n", str(rng.randint(1, 8)),
            *extra, *fmt]


CLOSED_FORM_TEMPLATES = ("bracket", "binom", "triangle", "group-order",
                         "mobius", "limits", "poly")
PER_TEMPLATE = 4


def cli_inputs(seed, per_template=PER_TEMPLATE):
    """28 closed-form commands and 4 small enumeration commands per pass."""
    rng = random.Random(seed)
    commands = [_closed_form_command(t, rng)
                for t in CLOSED_FORM_TEMPLATES for _ in range(per_template)]
    for _ in range(max(1, per_template // 2)):
        fmt = ["--format", rng.choice(FORMATS)]
        commands.append(["oracle", "count", "--q", "3", "--n", "3", "--ambient",
                         rng.choice(("dot", "lambda_dot")), *fmt])
        commands.append(["flags", "--q", "3", "--n", "3", *fmt])
    rng.shuffle(commands)
    return {"commands": commands}


def cli_run(inputs):
    values, op_ms = [], []
    for argv in inputs["commands"]:
        started = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "dotbinom", *argv],
                              capture_output=True, timeout=60)
        op_ms.append((perf_counter() - started) * 1e3)
        values.append((proc.returncode, proc.stdout))
    return Outputs(values, op_ms=op_ms)


def cli_check(inputs, outputs):
    errors = []
    for argv, (code, stdout) in zip(inputs["commands"], outputs.values):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            want_code = cli.main(argv)
        want = buf.getvalue().encode()
        if code != 0 or want_code != 0 or stdout != want:
            errors.append(f"{' '.join(argv)}: exit {code} (in-process {want_code}), "
                          f"stdout {'equals' if stdout == want else 'differs from'} "
                          "the in-process output")
    runs = len(inputs["commands"])
    return Verdict(runs, runs - len(errors), errors)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    run: object
    check: object


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-sweep", verify_inputs, verify_run, verify_check),
        Workload("oracle-large", oracle_inputs, oracle_run, oracle_check),
        Workload("cli-cold", cli_inputs, cli_run, cli_check),
    )
}
