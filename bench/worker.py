"""One pass of one workload in a fresh interpreter; prints one JSON line.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 bench/worker.py --workload oracle-large --seed 1 --trace 0

The package is imported first so that the line's ``imported`` field, read
from the system-wide monotonic clock, marks the end of set-up.
"""

import time

import dotbinom  # noqa: F401  (imported first: set-up ends here)

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from dotbinom import oracle  # noqa: E402
from dotbinom.gf import make_field  # noqa: E402
from dotbinom.quadspace import dot_space  # noqa: E402

MAX_ERRORS = 5
# a field no workload uses, so its tables are built cold
TABLES_FIELD = (17, 2)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def tables_seconds() -> float:
    """A one-subspace count on a fresh field: almost all of it is table build."""
    ambient = dot_space(make_field(*TABLES_FIELD), 1)
    started = perf_counter()
    oracle.count_subspaces_by_class(ambient, 1)
    return perf_counter() - started


def pool_net_seconds(tracer, errors) -> float:
    """Pooled count calls of the traced pass, minus the same calls at jobs=1."""
    pooled = tracing.pooled_count_calls(tracer)
    serial = 0.0
    for ambient, k, budget, tallies, _ in pooled:
        started = perf_counter()
        again = oracle.count_subspaces_by_class(ambient, k, budget=budget, jobs=1)
        serial += perf_counter() - started
        if [again[c] for c in sorted(again, key=lambda c: c.value)] != tallies:
            errors.append(f"jobs=1 tallies differ at q={ambient.field.q} "
                          f"n={ambient.n} k={k}")
    return sum(row[-1] for row in pooled) - serial


def run_pass(name, inputs, trace):
    """Run, time and check one pass; the dict is what the worker prints."""
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracing.install(tracer)
    started = perf_counter()
    outputs = workload.run(inputs)
    pass_s = perf_counter() - started
    verdict = workload.check(inputs, outputs)
    result = {
        "pass_s": pass_s,
        "op_ms": outputs.op_ms,
        "attempted": verdict.attempted,
        "failed": len(verdict.errors),
        "checks": verdict.checks,
        "errors": verdict.errors[:MAX_ERRORS],
    }
    if tracer:
        tracer.restore()
        layers = tracing.layer_metrics(tracer)
        layers["oracle.tables_s"] = tables_seconds()
        layers["oracle.pool_net_s"] = pool_net_seconds(tracer, result["errors"])
        result["layers"] = layers
        result["trace"] = tracer.dump()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="file that receives the traced pass's spans")
    args = parser.parse_args(argv)
    inputs = workloads.WORKLOADS[args.workload].inputs(args.seed)
    result = run_pass(args.workload, inputs, args.trace)
    trace = result.pop("trace", None)
    if trace is not None and args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps(trace))
    if "subspaces" in inputs:
        result["subspaces"] = inputs["subspaces"]
    result["imported"] = IMPORTED
    result["peak_rss_mb"] = peak_rss_mb()
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
