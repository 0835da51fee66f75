"""Workload ``paper-repro``: the user's reproduction run, repeated.

One pass runs all 31 experiments serially in this process (``jobs=1``,
default backend, no result store) at :data:`SCALE` over the six suite
traces built from the workload seed, then ``run_checks`` (the paper's
shape claims).  Set-up is a fresh interpreter importing
``repro.experiments`` plus a from-scratch suite build.

Correctness: at a seed with a committed reference
(``reference/paper-repro-seed<N>.json.gz``) every experiment's headers,
rows and notes must match within 1e-9 relative; at any seed every pass
must produce all 31 experiments, agree with the first pass, and return
all :data:`SHAPE_CHECKS` shape checks, each passing.  Each pass is
checked as soon as it ends and only its timings are kept, so the
harness's memory does not grow with the number of passes.
"""

from __future__ import annotations

import gzip
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from common import (CALIBRATION_NOMINAL_S, HERE, Outcome, at_nominal_speed, calibrate,
                    calibration_sample, diff_tables, keep_going, median, now, peak_rss_mb,
                    table_of, time_import_probe)
from layers import EXPERIMENTS

#: Instructions per unit of Table 2-1 relative length.  Large enough
#: that the shape checks hold at every seed tried (0-99), small enough
#: for several passes per run.
SCALE = 6000
SETUPS = 5
MIN_PASSES = 3
#: Shape claims ``run_checks`` evaluates.
SHAPE_CHECKS = 9


def reference_path(seed: int) -> str:
    return os.path.join(HERE, "reference", f"paper-repro-seed{seed}.json.gz")


def load_reference(seed: int) -> Optional[dict]:
    path = reference_path(seed)
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


def build_suite(seed: int):
    """Materialize the six suite traces from scratch and install them in
    the trace memo, as ``repro-experiments`` does at start-up."""
    from repro.experiments.workloads import seed_materialized_workload
    from repro.specs import NamedWorkloadSpec
    from repro.traces.registry import BENCHMARK_NAMES

    traces = []
    for name in BENCHMARK_NAMES:
        spec = NamedWorkloadSpec(name=name, scale=SCALE, seed=seed)
        trace = spec.build().materialize()
        seed_materialized_workload(spec, trace)
        traces.append(trace)
    return traces


@dataclass
class Pass:
    """One reproduction's outputs and timings."""

    traced: bool
    #: Experiment id -> result table, or None when the experiment raised.
    results: Dict[str, Optional[dict]] = field(default_factory=dict)
    outcomes: list = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    repro_s: float = 0.0
    check_s: float = 0.0
    #: Host time rescaled step by step (see :func:`run_pass`).
    nominal_s: float = 0.0
    calibration_s: float = 0.0


def run_pass(traces, seed: int, tracer=None) -> Pass:
    """One reproduction: every experiment, then ``run_checks``.

    A calibration sample is taken before the first step and after each
    one, and each step's time is rescaled by the mean of the samples on
    either side: machine speed changes within a pass, and rescaling
    step by step halved the pass-to-pass spread against rescaling the
    whole pass (3.5% against 7.8% coefficient of variation, 14 passes).
    """
    from repro.experiments import ALL_EXPERIMENTS, run_checks

    steps = [(f"experiments.{name}", name, fn) for name, fn in ALL_EXPERIMENTS.items()]
    steps.append(("checks.run_checks", None, run_checks))
    record = Pass(traced=tracer is not None)

    def calibration() -> float:
        with tracer.span("calibration") if tracer is not None else nullcontext():
            return calibration_sample()

    samples = [calibration()]
    for span_name, name, fn in steps:
        started = now()
        try:
            with tracer.span(span_name) if tracer is not None else nullcontext():
                value = fn(traces=traces, scale=SCALE, seed=seed)
        except Exception as exc:  # a broken step is a failed operation, not a crash
            record.errors.append(
                f"paper-repro: {name or 'run_checks'} raised {type(exc).__name__}: {exc}"
            )
            value = None
        elapsed = now() - started
        samples.append(calibration())
        record.nominal_s += at_nominal_speed(elapsed, (samples[-2] + samples[-1]) / 2)
        if name is None:
            record.check_s = elapsed
            record.outcomes = value or []
        else:
            record.repro_s += elapsed
            record.results[name] = table_of(value) if value is not None else None
    record.calibration_s = median(samples)
    return record


def check_pass(record: Pass, expected: Dict[str, dict]) -> List[str]:
    """Named problems with one pass against the *expected* tables."""
    problems = list(record.errors)
    if len(record.outcomes) != SHAPE_CHECKS:
        problems.append(f"paper-repro: run_checks returned {len(record.outcomes)} "
                        f"outcomes, expected {SHAPE_CHECKS}")
    for outcome in record.outcomes:
        if not outcome.passed:
            problems.append(
                f"paper-repro: shape check {outcome.check.check_id} failed: {outcome.detail}"
            )
    for name in EXPERIMENTS:
        if name not in record.results:
            problems.append(f"paper-repro: {name} was not run")
        elif record.results[name] is None:
            continue  # its exception is already among the errors
        elif name not in expected:
            problems.append(f"paper-repro: {name} has no reference entry")
        elif expected[name] is not None:  # else pass 0 raised, already counted
            problems.extend(f"paper-repro: {problem}"
                            for problem in diff_tables(name, expected[name], record.results[name]))
    problems.extend(f"paper-repro: unexpected experiment {name}"
                    for name in record.results if name not in EXPERIMENTS)
    return problems


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    import repro.experiments  # noqa: F401  (import cost is measured by the probe)

    out = Outcome()
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.install()
    setups = []
    for _ in range(SETUPS):
        before = calibrate()
        if tracer is not None:
            tracer.enabled = True
        with tracer.span("setup") if tracer is not None else nullcontext():
            started = now()
            probe = time_import_probe("repro.experiments")
            traces = build_suite(seed)
        setups.append((now() - started, probe, (before + calibrate()) / 2))
    reference = load_reference(seed)

    expected = reference["experiments"] if reference is not None else None
    if reference is not None and reference.get("scale") != SCALE:
        out.fail(f"paper-repro: reference scale {reference.get('scale')} != {SCALE}")
    passes: List[Pass] = []
    started = now()
    while keep_going(started, seconds, len(passes), MIN_PASSES):
        # Traced runs alternate untraced and traced passes; the gap
        # between the two medians is the tracing overhead.
        on = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.enabled = on
        with tracer.span("pass") if on else nullcontext():
            record = run_pass(traces, seed, tracer if on else None)
        # -- correctness (outside the pass's timings) -------------------------
        if expected is None:
            expected = record.results  # without a reference, pass 0 is the yardstick
        out.attempted += len(EXPERIMENTS) + SHAPE_CHECKS
        out.failures.extend(f"pass {len(passes)}: {problem}"
                            for problem in check_pass(record, expected))
        record.results, record.outcomes = {}, []
        passes.append(record)
    if tracer is not None:
        tracer.enabled = False

    untraced = [p for p in passes if not p.traced]
    repro_s = median([p.repro_s for p in untraced])
    check_s = median([p.check_s for p in untraced])
    latency = median([p.repro_s + p.check_s for p in untraced])
    nominal = median([p.nominal_s for p in untraced])
    setup_s = median([at_nominal_speed(s, cal) for s, _, cal in setups])
    out.note("reference", 1 if reference is not None else 0, "flag",
             f"seed {seed}" + ("" if reference is not None else ": shape checks and "
                               "pass-to-pass agreement only"))
    out.note("repro_s", repro_s, "s", f"median of {len(untraced)} passes, scale {SCALE}")
    out.note("check_s", check_s, "s", f"median of {len(untraced)} passes")
    out.note("latency_host_ms", latency * 1000.0, "ms", "median pass, not rescaled")
    out.note("setup_host_s", median([s for s, _, _ in setups]), "s", "not rescaled")
    out.note("calibration_s", median([p.calibration_s for p in passes]), "s",
             f"nominal {CALIBRATION_NOMINAL_S}")
    out.note("setup.import_s", median([p for _, p, _ in setups]), "s",
             f"median of {SETUPS} fresh interpreters")
    if not traced:
        out.end_to_end["latency_ms"] = (nominal * 1000.0, "ms")
        out.end_to_end["setup_s"] = (setup_s, "s")
        out.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        import layers

        traced_nominal = median([p.nominal_s for p in passes if p.traced])
        layers.summarize(out, tracer, overhead=traced_nominal / nominal - 1.0)
    return out
