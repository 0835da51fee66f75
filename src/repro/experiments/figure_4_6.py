"""Figure 4-6: stream buffer performance vs. cache size.

Average percent of misses removed by single and four-way stream buffers
(16-byte lines) as the backing cache grows from 1KB to 128KB, for both
sides.  Paper landmarks: instruction-side removal is remarkably flat
across cache sizes; single-buffer data-side removal *improves* with
cache size (from ~15% at 1KB to ~35% at 128KB) because bigger caches
absorb the scattered traffic, leaving the long sequential streams as the
surviving misses.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Sequence

from ..common.config import CacheConfig
from ..specs import MultiWayStreamBufferSpec, StreamBufferSpec, SystemSpec
from .base import FigureResult, Series, run_points
from .engine import LevelJob
from .workloads import suite

__all__ = ["run", "removal_curves", "CACHE_SIZES_KB"]

CACHE_SIZES_KB = [1, 2, 4, 8, 16, 32, 64, 128]

#: ``(label, side, buffer)`` per curve, in plotting order.
CURVES = [
    ("single, I-cache", "i", StreamBufferSpec(4)),
    ("single, D-cache", "d", StreamBufferSpec(4)),
    ("4-way, I-cache", "i", MultiWayStreamBufferSpec(4, 4)),
    ("4-way, D-cache", "d", MultiWayStreamBufferSpec(4, 4)),
]


def removal_curves(traces, configs: Sequence[CacheConfig]) -> Dict[str, List[float]]:
    """Per curve, the benchmark-average percent of misses removed at each
    config; benchmarks without misses on a side are left out."""
    traces = list(traces)
    points = [
        (trace, SystemSpec.for_level(None, config, side=side, structure=buffer), LevelJob)
        for config in configs
        for _, side, buffer in CURVES
        for trace in traces
    ]
    summaries = iter(run_points(points))
    curves: Dict[str, List[float]] = {label: [] for label, _, _ in CURVES}
    for _ in configs:
        for label, _, _ in CURVES:
            percents = [
                100.0 * s.removed_misses / s.demand_misses
                for s in islice(summaries, len(traces))
                if s.demand_misses
            ]
            curves[label].append(sum(percents) / len(percents) if percents else 0.0)
    return curves


def run(traces=None, scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    traces = traces if traces is not None else suite(scale, seed)
    curves = removal_curves(traces, [CacheConfig(size_kb * 1024, 16) for size_kb in CACHE_SIZES_KB])
    return FigureResult(
        experiment_id="figure_4_6",
        title="Stream buffer performance vs. cache size (16B lines)",
        xlabel="cache size (KB)",
        ylabel="percent of misses removed (avg over benchmarks)",
        series=[Series(label, CACHE_SIZES_KB, values) for label, values in curves.items()],
        notes=[
            "paper: I-side flat across sizes; single-buffer D-side improves with size",
            "(15% at 1KB to 35% at 128KB)",
        ],
    )
