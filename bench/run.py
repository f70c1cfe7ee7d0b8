"""dotbinom benchmark: one workload, measured for a fixed time, checked.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Every pass runs in a fresh
interpreter (``worker.py``), because users pay the cold imports and caches
on every ``dotbinom`` invocation.  Passes repeat while the next one still
fits in ``--seconds``; at least one always runs.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate and
it holds the per-layer metrics, including the tracing overhead.  The line
before it is a detail record (environment, sample counts, the per-workload
names of the metrics), also written with the spans under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 120  # a run must end within 180 s
SETUP_PROBES = 15
PROBES_PER_PASS = 3
IMPORT_PROBES = 3

SETUP_PROBE = "import dotbinom, time; print(repr(time.monotonic()))"
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import dotbinom.cli; "
    "print(repr(time.perf_counter() - t), int('numpy' in sys.modules))"
)


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv):
    """Start one interpreter; return (monotonic start, stdout)."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return started, proc.stdout


def setup_probe():
    started, out = run_child(["-c", SETUP_PROBE])
    return float(out) - started


def import_probe():
    _, out = run_child(["-c", IMPORT_PROBE])
    seconds, numpy_loaded = out.split()
    return float(seconds), int(numpy_loaded)


def run_worker(workload, seed, trace, spans=None):
    argv = [str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    started, out = run_child(argv)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result.pop("imported") - started
    return result


def tail(samples):
    """(percentile, value): the highest percentile with ten samples beyond it.

    With fewer than 21 samples (a batch workload times one call per pass)
    no percentile above the median has ten samples beyond it, and the
    median (percentile 50) is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def git_commit():
    """The checkout's commit, read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(passes, setups):
    # cli-cold times each invocation; a batch workload's pass is one call
    calls = ([ms for p in passes for ms in p["op_ms"]]
             or [p["pass_s"] * 1e3 for p in passes])
    percentile, tail_ms = tail(calls)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(calls),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "checks": statistics.median(p["checks"] for p in passes),
    }
    samples = {"passes": len(passes), "setups": len(setups), "calls": len(calls),
               "tail_percentile": percentile}
    return metrics, samples


def workload_names(workload, metrics, subspaces):
    """The end-to-end metrics under the names the workload's users know."""
    p50_s = metrics["latency_p50_ms"] / 1e3
    if workload == "verify-sweep":
        return {"verify_s": p50_s, "verify_checks": metrics["checks"]}
    if workload == "oracle-large":
        return {"oracle_subspaces_per_s": subspaces / p50_s}
    return {"cli_p50_ms": metrics["latency_p50_ms"],
            "cli_tail_ms": metrics["latency_tail_ms"]}


def measure(args, spec):
    setups, plain, traced = [], [], []
    started = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    while True:
        # spread the set-up probes over the run, not in one burst
        setups += [setup_probe()
                   for _ in range(min(PROBES_PER_PASS, SETUP_PROBES - len(setups)))]
        plain.append(run_worker(args.workload, args.seed, 0))
        if args.trace:
            spans = OUT / "spans" / f"{tag}-pass{len(traced)}.json"
            traced.append(run_worker(args.workload, args.seed, 1, spans))
        elapsed = time.monotonic() - started
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break
    setups += [setup_probe() for _ in range(SETUP_PROBES - len(setups))]
    runs = plain + traced
    setups += [p["setup_s"] for p in runs]
    metrics, samples = end_to_end(plain, setups)
    errors = [e for p in runs for e in p["errors"]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "commit": git_commit(),
        "samples": samples,
        "metrics": metrics,
        "errors": errors,
    }
    detail["names"] = workload_names(args.workload, metrics, plain[0].get("subspaces"))
    if args.trace:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        probes = [import_probe() for _ in range(IMPORT_PROBES)]
        layers["cli.import_s"] = statistics.median(s for s, _ in probes)
        layers["cli.numpy_loaded"] = max(n for _, n in probes)
        layers["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                      - statistics.median(p["pass_s"] for p in plain))
        detail["layers"] = layers
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = metrics, spec["end_to_end"]
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in runs),
        "failed": sum(p["failed"] for p in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    return detail, result


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dotbinom" / "__init__.py").exists() or not spec_path.exists():
        print("error: run from the root of a dotbinom source checkout "
              "(src/dotbinom and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = measure(args, spec)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
