"""The repo's benchmark: seeded workloads, correctness checks, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-repro --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 1

Workloads: ``paper-repro`` (all 31 experiments plus the shape checks),
``spec-sweep`` (a design-space batch through ``engine.run_jobs`` with
two workers, into an empty result store and again warm) and
``serve-mix`` (open-loop advise traffic against ``repro-serve``).  See
``BENCHMARK.json`` and ``perfbench/README.md``.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's public functions with span recorders
and reports per-layer metrics instead.  Either way the last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Named failures go to standard error.  The program runs from ``src/`` of
the checkout; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = {
    "paper-repro": "paper_repro",
    "spec-sweep": "spec_sweep",
    "serve-mix": "serve_mix",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"perfbench: no program to measure: {common.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    import importlib

    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
        if args.trace:
            import tracer

            path = os.path.join(common.WORK, "spans", f"{args.workload}-seed{args.seed}.json.gz")
            tracer.TRACER.dump(path)
            outcome.report.append(f"spans written to {os.path.relpath(path, common.ROOT)}")
    finally:
        common.remove_work_dir()
    for line in outcome.report:
        print(line)
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(outcome.failures)
    attempted = max(outcome.attempted, failed, 1)
    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    print(f"ops_failed_share = {failed / attempted:.6g} share  ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
