"""Per-layer metrics of a traced run, computed from its spans.

Every traced workload reports the same metric names (a layer a workload
bypasses reads 0).  Time-valued metrics are shares of the traced wall
time ``W`` — the summed duration of the traced passes (for
``serve-mix``, the traced schedule blocks) less the calibration samples
taken inside them — so they compare across workloads and machines; busy
time from engine pool workers adds across processes, so a share can
exceed 1.  Counts are per traced pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tracer import SpanIndex

#: The 31 experiment ids, in presentation order.
EXPERIMENTS = (
    "table_1_1", "table_2_1", "table_2_2", "figure_2_2", "figure_3_1",
    "figure_3_3", "figure_3_5", "figure_3_6", "figure_3_7", "figure_4_1",
    "figure_4_3", "figure_4_5", "figure_4_6", "figure_4_7", "figure_5_1",
    "overlap_5", "ext_l2_victim", "ext_bandwidth", "ext_associativity",
    "ext_marginal_utility", "ext_cold_start", "ext_penalty_sweep",
    "ext_prefetch_traffic", "ext_timing_fidelity", "ext_inclusion",
    "ext_stride", "ext_multiprog", "ext_modern_workloads", "ext_os",
    "ext_write_policy", "ablations",
)

KERNELS = (
    "simulate_level_summary",
    "simulate_assist_summary",
    "extract_miss_stream",
    "entry_sweep_summary",
    "run_length_sweep_summary",
)


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names: List[Tuple[str, str]] = [
        ("trace.unattributed_share", "share"),
        ("trace.overhead_share", "share"),
        ("traces.build_setup_share", "share"),
        ("traces.build_share", "share"),
        ("traces.refs", "count"),
    ]
    for fn in ("run_level", "run_system"):
        names += [
            (f"runner.{fn}.calls", "count"),
            (f"runner.{fn}.busy_share", "share"),
            (f"runner.{fn}.refs", "count"),
        ]
    names += [(f"kernels.{k}.busy_share", "share") for k in KERNELS]
    names += [
        ("kernels.assist_pass2.busy_share", "share"),
        ("kernels.jobs.numpy", "count"),
        ("kernels.jobs.miss_replay", "count"),
        ("kernels.jobs.python", "count"),
        ("engine.run_jobs.calls", "count"),
        ("engine.run_jobs.busy_share", "share"),
        ("engine.jobs", "count"),
        ("engine.execute_job.busy_share", "share"),
        ("engine.self_share", "share"),
        ("store.get.calls", "count"),
        ("store.get.busy_share", "share"),
        ("store.get.hit_ratio", "ratio"),
        ("store.put.calls", "count"),
        ("store.put.busy_share", "share"),
        ("store.bytes_written", "bytes"),
        ("experiments.self_share", "share"),
        ("checks.run_checks.busy_share", "share"),
    ]
    for name in EXPERIMENTS:
        names += [
            (f"experiments.{name}.wall_share", "share"),
            (f"experiments.{name}.unattributed_share", "share"),
        ]
    names += [
        ("serve.handle.calls", "count"),
        ("serve.handle.busy_share", "share"),
        ("serve.advise.busy_share", "share"),
        ("serve.parse_query.busy_share", "share"),
        ("serve.store_get.busy_share", "share"),
        ("serve.simulate.busy_share", "share"),
        ("serve.store_put.busy_share", "share"),
        ("serve.transport_share", "share"),
        ("serve.served_from.store", "count"),
        ("serve.served_from.simulated", "count"),
        ("serve.served_from.coalesced", "count"),
        ("serve.rejected_429", "count"),
    ]
    return names


def _children(spans) -> Dict[Optional[int], list]:
    children: Dict[Optional[int], list] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    return children


def _descendants(children, root) -> list:
    found, stack = [], [root[0]]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child[0])
    return found


def summarize(out, tracer, overhead: float, extra: Optional[Dict[str, float]] = None,
              unattributed: Optional[float] = None) -> None:
    """Fill ``out.per_layer`` (and report lines) from the tracer's spans.

    *extra* supplies metrics only the workload can measure (bytes
    written, serve request outcomes); *unattributed* overrides the
    span-coverage estimate (``serve-mix`` measures it per request).
    """
    tracer.collect_workers()
    every = SpanIndex(tracer.spans)
    windows = [(s[3], s[4]) for s in every.named("pass")]
    setups = [(s[3], s[4]) for s in every.named("setup")]

    def within(span, spans_windows) -> bool:
        return any(lo <= span[3] < hi for lo, hi in spans_windows)

    idx = SpanIndex([s for s in tracer.spans if within(s, windows) or s[2] == "pass"])
    setup_idx = SpanIndex([s for s in tracer.spans if within(s, setups)])
    # Calibration samples taken inside traced passes are harness time.
    calibration = [(s[3], s[4]) for s in idx.named("calibration")]
    wall = (sum(hi - lo for lo, hi in windows) - idx.busy("calibration")) or 1.0
    passes = max(1, len(windows))
    children = _children(idx.spans)
    values: Dict[str, float] = {name: 0.0 for name, _ in metric_units()}

    def share(name: str) -> float:
        return idx.busy(name) / wall

    setup_wall = sum(hi - lo for lo, hi in setups)
    if setup_wall:
        values["traces.build_setup_share"] = setup_idx.busy("traces.materialize") / setup_wall
        values["traces.refs"] = sum(
            s[7] or 0 for s in setup_idx.named("traces.materialize")
        ) / max(1, len(setups))
    values["traces.build_share"] = share("traces.materialize")
    for fn in ("run_level", "run_system"):
        spans = idx.named(f"runner.{fn}")
        values[f"runner.{fn}.calls"] = len(spans) / passes
        values[f"runner.{fn}.busy_share"] = share(f"runner.{fn}")
        values[f"runner.{fn}.refs"] = sum(s[7] or 0 for s in spans) / passes
    for kernel in KERNELS:
        values[f"kernels.{kernel}.busy_share"] = share(f"kernels.{kernel}")
    pass2 = 0.0
    for span in idx.named("kernels.simulate_assist_summary"):
        inner = [c for c in children.get(span[0], ()) if c[2] == "kernels.extract_miss_stream"]
        pass2 += idx.self_time(span, inner)
    values["kernels.assist_pass2.busy_share"] = pass2 / wall
    for span in idx.named("engine.execute_job"):
        kernel = any(c[2].startswith("kernels.") for c in children.get(span[0], ()))
        if not kernel:
            values["kernels.jobs.python"] += 1 / passes
        elif span[7] == "miss-replay":
            values["kernels.jobs.miss_replay"] += 1 / passes
        else:
            values["kernels.jobs.numpy"] += 1 / passes

    values["engine.run_jobs.calls"] = len(idx.named("engine.run_jobs")) / passes
    values["engine.run_jobs.busy_share"] = share("engine.run_jobs")
    values["engine.jobs"] = sum(s[7] or 0 for s in idx.named("engine.run_jobs")) / passes
    values["engine.execute_job.busy_share"] = share("engine.execute_job")
    engine_self = 0.0
    for span in idx.outermost("engine.run_jobs"):
        inner = [
            d for d in _descendants(children, span)
            if d[2] in ("engine.execute_job", "store.get", "store.put")
        ]
        engine_self += idx.self_time(span, inner)
    values["engine.self_share"] = engine_self / wall

    gets = idx.named("store.get")
    values["store.get.calls"] = len(gets) / passes
    values["store.get.busy_share"] = share("store.get")
    values["store.get.hit_ratio"] = sum(s[7] or 0 for s in gets) / len(gets) if gets else 0.0
    values["store.put.calls"] = len(idx.named("store.put")) / passes
    values["store.put.busy_share"] = share("store.put")

    # Experiment self time: what no layer span below the experiment covers.
    layer_names = {s[2] for s in idx.layer_spans()} - {"checks.run_checks"}
    self_total = 0.0
    for name in EXPERIMENTS:
        spans = idx.named(f"experiments.{name}")
        duration = sum(s[4] - s[3] for s in spans)
        own = sum(
            idx.self_time(s, [d for d in _descendants(children, s) if d[2] in layer_names])
            for s in spans
        )
        self_total += own
        values[f"experiments.{name}.wall_share"] = duration / wall
        values[f"experiments.{name}.unattributed_share"] = own / duration if duration else 0.0
        if spans:
            out.report.append(
                f"experiments.{name}: wall {duration / len(spans):.4f} s/pass, "
                f"unattributed {own / duration:.3f}"
            )
    values["experiments.self_share"] = self_total / wall
    values["checks.run_checks.busy_share"] = share("checks.run_checks")

    values["serve.handle.calls"] = len(idx.named("serve.handle")) / passes
    for part in ("handle", "advise", "parse_query", "store_get", "simulate", "store_put"):
        values[f"serve.{part}.busy_share"] = share(f"serve.{part}")

    if unattributed is None:
        covering = calibration + [
            (s[3], s[4]) for s in idx.layer_spans() if not s[2].startswith("checks.")
        ]
        uncovered = sum(
            (hi - lo) - SpanIndex.covered(covering, lo, hi) for lo, hi in windows
        )
        unattributed = uncovered / wall
    values["trace.unattributed_share"] = unattributed
    values["trace.overhead_share"] = overhead
    for name, value in (extra or {}).items():
        values[name] = value

    for name, unit in metric_units():
        out.per_layer[name] = (values[name], unit)
    out.note("trace.passes", len(windows), "count", "traced passes or blocks")
    out.note("trace.wall_s", wall, "s", "summed traced wall time W")
    out.note("trace.spans", len(tracer.spans), "count")
    for target in tracer.missing:
        out.report.append(f"warning: trace target {target} not found; its metrics read 0")
