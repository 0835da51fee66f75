"""Workload ``spec-sweep``: a design-space batch through the engine.

One pass sends the batch built by :func:`batch` through
``engine.run_jobs`` with two workers into an empty result store (the
cold pass: kernels, pool start-up and IPC, store writes), then sends it
again unchanged (the warm pass: store reads only).  The batch covers the
six suite traces plus three pattern workloads, both sides, three cache
sizes, helper structures from both kernel modes — VECTOR (none, mc*,
vc*, sb4) and MISS_REPLAY (sb4x4, stride) — and entry and run-length
sweep jobs.  Set-up is a fresh interpreter importing the engine plus a
from-scratch build of the nine traces.

Correctness: every warm pass must equal its cold pass exactly, every
pass must equal the first, and one sampled job per structure kind is
re-run on the python backend outside the timed region and must match
counter for counter.  Each pass is compared as soon as it ends and only
the first pass's results are kept, so the harness's memory does not
grow with the number of passes.
"""

from __future__ import annotations

import os
import random
import shutil
from contextlib import nullcontext
from typing import List

from common import (CALIBRATION_NOMINAL_S, Outcome, at_nominal_speed, calibrate, keep_going,
                    median, now, peak_rss_mb, time_import_probe, tree_bytes, work_dir)

SCALE = 15000
PATTERN_LENGTH = 30000
WORKERS = 2
SETUPS = 5
MIN_PASSES = 3
CACHE_SIZES = (1024, 4096, 16384)
LINE = 16


def workloads(seed: int):
    from repro.specs import NamedWorkloadSpec, PointerChaseSpec, SequentialSpec, ZipfianSpec
    from repro.traces.registry import BENCHMARK_NAMES

    specs = [NamedWorkloadSpec(name=name, scale=SCALE, seed=seed) for name in BENCHMARK_NAMES]
    specs += [
        ZipfianSpec(length=PATTERN_LENGTH, seed=seed),
        PointerChaseSpec(length=PATTERN_LENGTH, seed=seed),
        SequentialSpec(length=PATTERN_LENGTH, seed=seed),
    ]
    return specs


def structures():
    """``(kind label, structure spec)`` for the LevelJob structures."""
    from repro.specs import parse_structure_code
    from repro.specs.structures import StrideBufferSpec

    coded = [(code, parse_structure_code(code)) for code in
             ("none", "mc2", "mc4", "vc1", "vc4", "sb4", "sb4x4")]
    return coded + [("stride4", StrideBufferSpec(entries=4))]


def batch(seed: int) -> List[tuple]:
    """``[(kind label, job)]`` for every point of the sweep."""
    from repro.common.config import CacheConfig
    from repro.experiments.engine import EntrySweepJob, LevelJob, RunSweepJob
    from repro.specs import SystemSpec

    jobs = []
    for workload in workloads(seed):
        for side in ("i", "d"):
            for size in CACHE_SIZES:
                config = CacheConfig(size, LINE)
                for label, structure in structures():
                    spec = SystemSpec.for_level(workload, config, side=side, structure=structure)
                    jobs.append((label, LevelJob(spec)))
                plain = SystemSpec.for_level(workload, config, side=side)
                jobs.append(("entry-miss", EntrySweepJob(plain, "miss", 15)))
                jobs.append(("entry-victim", EntrySweepJob(plain, "victim", 15)))
                jobs.append(("run-1way", RunSweepJob(plain, 1, 4, 16)))
                jobs.append(("run-4way", RunSweepJob(plain, 4, 4, 16)))
    return jobs


def build_traces(seed: int) -> int:
    """Materialize every trace the batch references; returns references."""
    from repro.experiments.workloads import seed_materialized_workload

    refs = 0
    for spec in workloads(seed):
        trace = spec.resolve().build().materialize()
        seed_materialized_workload(spec, trace)
        refs += len(trace)
    return refs


def python_backend(job):
    """Execute *job* on the reference interpreter."""
    from repro.experiments.engine import execute_job
    from repro.kernels import ENV_BACKEND

    saved = os.environ.get(ENV_BACKEND)
    os.environ[ENV_BACKEND] = "python"
    try:
        return execute_job(job)
    finally:
        if saved is None:
            os.environ.pop(ENV_BACKEND, None)
        else:
            os.environ[ENV_BACKEND] = saved


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    import repro.experiments.engine  # noqa: F401
    from repro.store import set_store

    out = Outcome()
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.install()
        tracer.outdir = work_dir("spans")
    setups = []
    for _ in range(SETUPS):
        before = calibrate()
        if tracer is not None:
            tracer.enabled = True
        with tracer.span("setup") if tracer is not None else nullcontext():
            started = now()
            time_import_probe("repro.experiments.engine")
            refs = build_traces(seed)
        setups.append((now() - started, (before + calibrate()) / 2))
    labelled = batch(seed)
    jobs = [job for _label, job in labelled]
    from repro.experiments.engine import run_jobs

    passes = []
    written = []
    first = None
    started = now()
    while keep_going(started, seconds, len(passes), MIN_PASSES):
        store_dir = work_dir(f"store-{len(passes)}")
        set_store(store_dir)
        on = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.enabled = on
        # Each half is rescaled by the calibration on either side of it.
        before = calibrate()
        try:
            with tracer.span("pass") if on else nullcontext():
                started_cold = now()
                cold = run_jobs(jobs, jobs=WORKERS)
                cold_s = now() - started_cold
                with tracer.span("calibration") if on else nullcontext():
                    middle = calibrate()
                started_warm = now()
                warm = run_jobs(jobs, jobs=WORKERS)
                warm_s = now() - started_warm
        finally:
            set_store(None)
        after = calibrate()
        written.append(tree_bytes(store_dir))
        shutil.rmtree(store_dir, ignore_errors=True)
        nominal_s = (at_nominal_speed(cold_s, (before + middle) / 2)
                     + at_nominal_speed(warm_s, (middle + after) / 2))
        # -- correctness (outside the halves' timings) ------------------------
        if first is None:
            first = cold
        out.attempted += 2 * len(jobs)
        for slot, (label, _job) in enumerate(labelled):
            if warm[slot] != cold[slot]:
                out.fail(f"spec-sweep: pass {len(passes)} job {slot} ({label}): warm != cold")
            if cold[slot] != first[slot]:
                out.fail(f"spec-sweep: pass {len(passes)} job {slot} ({label}): "
                         "differs from pass 0")
        del cold, warm
        passes.append((on, cold_s, warm_s, nominal_s, median([before, middle, after])))
    if tracer is not None:
        tracer.enabled = False

    # -- correctness (outside the timed region) --------------------------------
    rng = random.Random(seed)
    by_kind = {}
    for slot, (label, _job) in enumerate(labelled):
        by_kind.setdefault(label, []).append(slot)
    for label, slots in sorted(by_kind.items()):
        slot = rng.choice(slots)
        out.attempted += 1
        try:
            reference = python_backend(labelled[slot][1])
        except Exception as exc:
            out.fail(f"spec-sweep: python re-run of job {slot} ({label}) raised {exc!r}")
            continue
        if reference != first[slot]:
            out.fail(
                f"spec-sweep: job {slot} ({label}) python backend {reference!r} "
                f"!= engine {first[slot]!r}"
            )

    untraced = [p for p in passes if not p[0]]
    cold_s = median([p[1] for p in untraced])
    warm_s = median([p[2] for p in untraced])
    latency = median([p[1] + p[2] for p in untraced])
    nominal = median([p[3] for p in untraced])
    out.note("sweep_cold_s", cold_s, "s",
             f"median of {len(untraced)} passes; {len(jobs)} points, {refs} trace references")
    out.note("sweep_warm_s", warm_s, "s", f"median of {len(untraced)} passes")
    out.note("store.bytes_written", median(written), "bytes", "per cold pass")
    out.note("latency_host_ms", latency * 1000.0, "ms", "median pass, not rescaled")
    out.note("setup_host_s", median([s for s, _ in setups]), "s", "not rescaled")
    out.note("calibration_s", median([p[4] for p in passes]), "s",
             f"nominal {CALIBRATION_NOMINAL_S}")
    if not traced:
        out.end_to_end["latency_ms"] = (nominal * 1000.0, "ms")
        out.end_to_end["setup_s"] = (median([at_nominal_speed(s, c) for s, c in setups]), "s")
        out.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        import layers

        traced_nominal = median([p[3] for p in passes if p[0]])
        layers.summarize(
            out, tracer, overhead=traced_nominal / nominal - 1.0,
            extra={"store.bytes_written": median(written)},
        )
    return out
