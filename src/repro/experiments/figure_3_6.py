"""Figure 3-6: victim cache performance vs. direct-mapped cache size.

Average percent of data-cache conflict misses removed by 1/2/4/15-entry
victim caches, as the data cache grows from 1KB to 128KB (16-byte lines
throughout), plus the percent of misses that are conflicts at each size
for reference.  Paper landmark: smaller direct-mapped caches benefit
most — the victim cache shrinks relative to the cache, and tight mapping
conflicts become rarer as sets multiply.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from ..common.config import CacheConfig
from ..common.stats import safe_div
from ..specs import SystemSpec
from .base import FigureResult, Series, run_points
from .engine import EntrySweepJob
from .workloads import suite

__all__ = ["run", "victim_curves", "CACHE_SIZES_KB", "VC_ENTRIES"]

CACHE_SIZES_KB = [1, 2, 4, 8, 16, 32, 64, 128]
VC_ENTRIES = [1, 2, 4, 15]


def victim_curves(
    traces, configs: Sequence[CacheConfig]
) -> Tuple[List[List[float]], List[float]]:
    """Per :data:`VC_ENTRIES` size, the benchmark-average percent of data
    conflict misses removed at each config, plus the average conflict
    share of misses; benchmarks without conflicts are left out."""
    traces = list(traces)
    victim_sweep = partial(EntrySweepJob, kind="victim", max_entries=max(VC_ENTRIES))
    points = [
        (trace, SystemSpec.for_level(None, config), victim_sweep)
        for config in configs
        for trace in traces
    ]
    sweeps = iter(run_points(points))
    removal_curves: List[List[float]] = [[] for _ in VC_ENTRIES]
    conflict_percent: List[float] = []
    for _ in configs:
        per_entry: List[List[float]] = [[] for _ in VC_ENTRIES]
        conflict_shares: List[float] = []
        for sweep in islice(sweeps, len(traces)):
            if sweep.conflict_misses == 0:
                continue
            for slot, entries in enumerate(VC_ENTRIES):
                per_entry[slot].append(sweep.percent_of_conflicts_removed(entries))
            conflict_shares.append(100.0 * safe_div(sweep.conflict_misses, sweep.total_misses))
        for slot, values in enumerate(per_entry):
            removal_curves[slot].append(sum(values) / len(values) if values else 0.0)
        conflict_percent.append(
            sum(conflict_shares) / len(conflict_shares) if conflict_shares else 0.0
        )
    return removal_curves, conflict_percent


def run(traces=None, scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    traces = traces if traces is not None else suite(scale, seed)
    removal_curves, conflict_percent = victim_curves(
        traces, [CacheConfig(size_kb * 1024, 16) for size_kb in CACHE_SIZES_KB]
    )
    series = [
        Series(f"{entries}-entry victim cache", CACHE_SIZES_KB, removal_curves[slot])
        for slot, entries in enumerate(VC_ENTRIES)
    ]
    series.append(Series("percent conflict misses", CACHE_SIZES_KB, conflict_percent))
    return FigureResult(
        experiment_id="figure_3_6",
        title="Victim cache performance vs. direct-mapped data cache size",
        xlabel="cache size (KB)",
        ylabel="percent of conflict misses removed (avg over benchmarks)",
        series=series,
        notes=["paper: smaller direct-mapped caches benefit the most from victim caching"],
    )
