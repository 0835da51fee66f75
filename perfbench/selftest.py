"""Small-scale self-test of the benchmark harness.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs every workload briefly (one set-up, one or two passes), untraced
and traced, in this process and checks that

* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  emitted, with its unit, and nothing else;
* a clean run has no failed operation;
* a deliberately corrupted output — an experiment row, a stored sweep
  result — a dropped experiment or shape claim, and a wrong HTTP status
  each raise ``ops_failed_share`` above 0;
* ``run.py`` exits non-zero without printing a result when the
  program's sources are absent.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

sys.path.insert(0, common.SRC)

import paper_repro  # noqa: E402
import serve_mix  # noqa: E402
import spec_sweep  # noqa: E402
import tracer as tracing  # noqa: E402

PROBLEMS = []


def benchmark_metrics(section: str) -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@contextmanager
def patched(owner, **values):
    saved = {name: getattr(owner, name) for name in values}
    for name, value in values.items():
        setattr(owner, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(owner, name, value)


def expect(condition: bool, message: str) -> None:
    print(("ok     " if condition else "FAILED ") + message, flush=True)
    if not condition:
        PROBLEMS.append(message)


def check_metrics(label: str, got: dict, section: str) -> None:
    want = benchmark_metrics(section)
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(n for n in want if n in got and got[n][1] != want[n])
    bad = sorted(n for n, (v, _u) in got.items()
                 if not isinstance(v, (int, float)) or not math.isfinite(v))
    expect(not (missing or extra or wrong or bad),
           f"{label}: all {len(want)} {section} metrics emitted with units"
           + (f" (missing {missing[:3]}, extra {extra[:3]}, wrong unit {wrong[:3]}, "
              f"not finite {bad[:3]})" if missing or extra or wrong or bad else ""))


def run_once(label: str, module, seed: int, seconds: float, traced: bool):
    try:
        outcome = module.run(seed, seconds, traced)
    finally:
        if traced:
            tracing.TRACER.uninstall()
            tracing.TRACER.spans.clear()
            tracing.TRACER.missing.clear()
            tracing.TRACER.enabled = False
            tracing.TRACER.outdir = None
        common.remove_work_dir()
    return outcome


def clean_runs() -> None:
    cases = (
        ("paper-repro", paper_repro, 1, 0.0, dict(SETUPS=1, MIN_PASSES=2)),
        ("spec-sweep", spec_sweep, 1, 0.0, dict(SETUPS=1, MIN_PASSES=2)),
        ("serve-mix", serve_mix, 1, 4.0, dict(SETUPS=1)),
    )
    for label, module, seed, seconds, constants in cases:
        with patched(module, **constants):
            for traced in (False, True):
                name = f"{label} {'traced' if traced else 'untraced'}"
                outcome = run_once(name, module, seed, seconds, traced)
                expect(not outcome.failures,
                       f"{name}: no failed operations ({outcome.failures[:2]})")
                expect(outcome.attempted > 0, f"{name}: operations attempted")
                if traced:
                    check_metrics(name, outcome.per_layer, "per_layer")
                else:
                    check_metrics(name, outcome.end_to_end, "end_to_end")


def corrupted_runs() -> None:
    from dataclasses import replace

    import repro.experiments as experiments
    from repro.store.core import ResultStore

    original = experiments.ALL_EXPERIMENTS["table_2_2"]

    def corrupt_table(**kwargs):
        result = original(**kwargs)
        row = result.rows[0]
        index = next(i for i, v in enumerate(row) if isinstance(v, (int, float)))
        row[index] = row[index] + 1
        return result

    with patched(paper_repro, SETUPS=1, MIN_PASSES=1):
        experiments.ALL_EXPERIMENTS["table_2_2"] = corrupt_table
        try:
            outcome = run_once("paper-repro corrupt", paper_repro, 1, 0.0, False)
        finally:
            experiments.ALL_EXPERIMENTS["table_2_2"] = original
    expect(any("table_2_2: row 0" in f for f in outcome.failures),
           f"paper-repro: a corrupted experiment row is a named failure "
           f"({len(outcome.failures)}/{outcome.attempted} failed)")

    stock_checks = experiments.run_checks
    stock_experiments = dict(experiments.ALL_EXPERIMENTS)

    def short_checks(**kwargs):
        return stock_checks(**kwargs)[:-1]

    with patched(paper_repro, SETUPS=1, MIN_PASSES=1), \
            patched(experiments, run_checks=short_checks):
        del experiments.ALL_EXPERIMENTS["ext_os"]
        try:
            outcome = run_once("paper-repro dropped", paper_repro, 1, 0.0, False)
        finally:
            experiments.ALL_EXPERIMENTS.clear()
            experiments.ALL_EXPERIMENTS.update(stock_experiments)
    expect(any("run_checks returned 8 outcomes" in f for f in outcome.failures),
           "paper-repro: a dropped shape claim is a named failure")
    expect(any("ext_os was not run" in f for f in outcome.failures),
           "paper-repro: a dropped experiment is a named failure")

    stock_get = ResultStore.get

    def corrupt_get(self, key):
        result, size = stock_get(self, key)
        if result is not None and hasattr(result, "demand_misses"):
            result = replace(result, demand_misses=result.demand_misses + 1)
        return result, size

    with patched(spec_sweep, SETUPS=1, MIN_PASSES=1), patched(ResultStore, get=corrupt_get):
        outcome = run_once("spec-sweep corrupt", spec_sweep, 1, 0.0, False)
    expect(any("warm != cold" in f for f in outcome.failures),
           f"spec-sweep: a corrupted stored result is a named failure "
           f"({len(outcome.failures)}/{outcome.attempted} failed)")

    def valid_instead(_rng, rid):
        return serve_mix.query_body(("ccom", "d", 4096, 16, "vc4"), 1, rid)

    with patched(serve_mix, SETUPS=1, malformed_body=valid_instead):
        outcome = run_once("serve-mix wrong status", serve_mix, 1, 3.0, False)
    expect(any("expected 400" in f for f in outcome.failures),
           f"serve-mix: a wrong HTTP status is a named failure "
           f"({len(outcome.failures)}/{outcome.attempted} failed)")


def missing_program() -> None:
    bare = common.work_dir("bare")
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-repro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    common.remove_work_dir()
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"run.py without src/ exits {done.returncode} and prints no result")


def main() -> int:
    clean_runs()
    corrupted_runs()
    missing_program()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
