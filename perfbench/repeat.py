"""Run the benchmark over several seeds and summarize each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/repeat.py --workload paper-repro --seeds 1-10 [--trace 1]
        [--seconds N] [--out summary.json]

Runs the ``BENCHMARK.json`` command once per seed and
prints per metric the median, the quartiles and the spread — the
inter-quartile range as a share of the median, from
``statistics.quantiles(values, n=4)`` — next to the metric's bound from
``BENCHMARK.json``.  ``--out`` appends the summary to a JSON file keyed
by workload and trace mode; ``perfbench/baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/repeat.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    runs = []
    for seed in parse_seeds(args.seeds):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        started = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall_s = time.monotonic() - started
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        result = json.loads(last) if done.returncode == 0 else {}
        # Report lines ("name = value unit  (detail)") such as the host
        # times and calibration behind each rescaled metric.
        report = {}
        for line in done.stdout.splitlines()[:-1]:
            name, sep, rest = line.partition(" = ")
            try:
                report[name] = float(rest.split()[0]) if sep else None
            except (ValueError, IndexError):
                pass
        runs.append({"seed": seed, "exit": done.returncode, "correct": result.get("correct"),
                     "attempted": result.get("attempted"), "failed": result.get("failed"),
                     "wall_s": round(wall_s, 1),
                     "report": {k: v for k, v in report.items() if v is not None}})
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: exit {done.returncode} correct {result.get('correct')} "
              f"failed {result.get('failed')} wall {wall_s:.1f} s", file=sys.stderr, flush=True)
    summary = {}
    for name, series in values.items():
        entry = {"median": statistics.median(series), "n": len(series), "values": series}
        if len(series) >= 4:
            q1, q2, q3 = statistics.quantiles(series, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / q2 if q2 else None)
        summary[name] = entry
        if args.trace == 0 or name.startswith("trace."):
            bound = bounds.get(name)
            spread = entry.get("spread")
            print(f"{name:32s} median {entry['median']:.6g}  spread "
                  f"{'n/a' if spread is None else f'{spread:.3f}'}  bound {bound}")
    if args.out:
        existing = {}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                existing = json.load(handle)
        key = f"{args.workload}/trace{args.trace}"
        existing[key] = {"seeds": args.seeds, "seconds": seconds, "runs": runs,
                         "metrics": summary}
        with open(args.out, "w") as handle:
            json.dump(existing, handle, indent=1, sort_keys=True)
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
