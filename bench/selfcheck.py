"""Fast self-check of the benchmark harness at tiny sizes (about 10 s).

    python3 bench/selfcheck.py

Run from the root of a source checkout.  It checks that seeded inputs are
reproducible and do the same work for every seed, that each workload's
pass and checks run (traced and untraced), that the reference comparison
allows SKIPPED->PASS and nothing else, that self time and the tail
percentile are computed as documented, and that ``run.py`` refuses to run
without the package.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from dotbinom import cli, report, verify  # noqa: E402

# the cli-cold pass starts `python -m dotbinom` subprocesses
os.environ["PYTHONPATH"] = run.child_env()["PYTHONPATH"]

TINY = {
    "verify-sweep": lambda seed: workloads.verify_inputs(seed, qs=(3, 5), max_n=2),
    "oracle-large": lambda seed: workloads.oracle_inputs(
        seed, cells=((3, 3, 1, "dot"), (5, 2, 1, "lambda_dot"), (9, 2, 1, "dot"))),
    "cli-cold": lambda seed: workloads.cli_inputs(seed, per_template=1),
}


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def work_signature(name, inputs):
    """What a pass does, with the order and the seeded choices removed."""
    if name == "verify-sweep":
        return sorted(inputs["qs"]), inputs["max_n"]
    if name == "oracle-large":
        return sorted(inputs["cells"])
    return sorted(Counter(argv[0] for argv in inputs["commands"]).items())


def check_seeds():
    for name, workload in workloads.WORKLOADS.items():
        expect(workload.inputs(7) == workload.inputs(7), f"{name}: seed 7 not reproducible")
        a, b = workload.inputs(1), workload.inputs(2)
        expect(a != b, f"{name}: seeds 1 and 2 give identical inputs")
        expect(work_signature(name, a) == work_signature(name, b),
               f"{name}: seeds 1 and 2 do different work")


def check_cli_arguments():
    for seed in range(20):
        for argv in workloads.cli_inputs(seed)["commands"]:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            expect(code == 0, f"cli-cold command {argv} exits {code}")


def check_passes(reference_dir):
    rep = verify.run_verify([3, 5], 2)
    path = workloads.reference_path([3, 5], 2).name
    (reference_dir / path).write_text(report.verify_json(rep))
    workloads.REFERENCE_DIR = reference_dir
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    run_level = {"cli.import_s", "cli.numpy_loaded", "trace.overhead_s"}
    for name, tiny in TINY.items():
        for trace in (0, 1):
            result = worker.run_pass(name, tiny(3), trace)
            expect(not result["errors"] and result["failed"] == 0,
                   f"{name} trace={trace}: {result['errors']}")
            expect(result["attempted"] >= 1 and result["checks"] >= 1,
                   f"{name}: nothing attempted")
            expect(result["pass_s"] > 0 and bool(result["op_ms"]) == (name == "cli-cold"),
                   f"{name}: calls timed wrongly")
            if trace:
                expect(set(result["layers"]) == per_layer - run_level,
                       f"{name}: layer metrics {sorted(set(result['layers']) ^ (per_layer - run_level))}")


def check_reference_rules():
    ref = [
        {"check": "a", "params": "q=3", "expected": "1", "actual": "1", "status": "pass"},
        {"check": "b", "params": "q=3 k=2", "expected": "", "actual": "", "status": "skipped"},
        {"check": "c", "params": "q=3", "expected": "5", "actual": "", "status": "skipped"},
    ]
    widened = [ref[0],
               {"check": "b", "params": "q=3 k=2 v=dd", "expected": "4", "actual": "4", "status": "pass"},
               {"check": "b", "params": "q=3 k=2 v=dl", "expected": "2", "actual": "2", "status": "pass"},
               {"check": "c", "params": "q=3", "expected": "5", "actual": "5", "status": "pass"}]
    expect(workloads.compare_to_reference(ref, ref) == [], "reference differs from itself")
    expect(workloads.compare_to_reference(widened, ref) == [], "SKIPPED->PASS refused")
    failed = [dict(ref[0], actual="2", status="fail")] + ref[1:]
    expect(len(workloads.compare_to_reference(failed, ref)) == 1, "PASS->FAIL accepted")
    expect(workloads.compare_to_reference(ref[1:], ref) != [], "missing record accepted")
    extra = ref + [dict(ref[0], check="d")]
    expect(workloads.compare_to_reference(extra, ref) != [], "extra record accepted")
    bad_widen = widened[:2] + [dict(widened[2], status="fail")] + widened[3:]
    expect(workloads.compare_to_reference(bad_widen, ref) != [], "SKIPPED->FAIL accepted")


def check_tracer():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    original = Box.outer
    tracer = tracing.Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    expect(Box.outer(3) == 7, "wrapped call changed its result")
    (_, s0, e0, p0, _), (_, s1, e1, p1, _) = tracer.spans
    expect((p0, p1) == (-1, 0), "span parents wrong")
    own = tracer.self_times()
    expect(abs(own[0] - ((e0 - s0) - (e1 - s1))) < 1e-12, "self time is not duration minus child")
    tracer.restore()
    expect(Box.outer is original, "restore left a wrapper in place")


def check_tail():
    expect(run.tail([3.0, 1.0, 2.0, 9.0]) == (50.0, 2.5), "tail of 4 samples is not the median")
    pct, value = run.tail([float(i) for i in range(100)])
    expect((pct, value) == (90.0, 89.0), f"tail of 100 samples is p{pct}={value}")


def check_refuses_without_package(scratch):
    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout,
           f"run.py without the package exited {proc.returncode}: {proc.stdout!r}")


def main() -> int:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        steps = (check_seeds, check_cli_arguments, check_reference_rules, check_tracer,
                 check_tail, lambda: check_passes(Path(tmp)),
                 lambda: check_refuses_without_package(Path(tmp)))
        for step in steps:
            try:
                step()
            except CheckFailed as exc:
                print(f"FAIL: {exc}")
                return 1
    print("selfcheck: all harness checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
