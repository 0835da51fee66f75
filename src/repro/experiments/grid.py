"""Design-space grid sweeps.

The paper explores its design space one axis at a time (entries in
Figures 3-3/3-5, cache size in 3-6/4-6, line size in 3-7/4-7).  This
module generalises that: a cartesian sweep over cache sizes, line
sizes, and helper structures, returning a long-format table — the tool
a designer points at their own workload after reading the paper.

::

    from repro.experiments.grid import GridSpec, sweep_grid
    from repro.specs import VictimCacheSpec

    spec = GridSpec(
        cache_sizes_kb=[4, 8, 16],
        line_sizes=[16, 32],
        structures={"none": None, "vc4": VictimCacheSpec(4)},
    )
    table = sweep_grid(traces, spec, side="d")

Structure axis values are None (the bare baseline) or declarative
:class:`~repro.specs.StructureSpec` instances — any registered
structure, any options, always parallelizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..common.config import CacheConfig
from ..common.errors import ConfigurationError
from ..specs import (
    MultiWayStreamBufferSpec,
    StreamBufferSpec,
    StructureSpec,
    VictimCacheSpec,
)
from .base import TableResult

__all__ = ["GridSpec", "sweep_grid", "default_structures"]

#: A structure axis value: None (bare baseline) or a declarative
#: :class:`~repro.specs.StructureSpec`.
StructureFactory = Optional[StructureSpec]


def default_structures() -> Dict[str, StructureFactory]:
    """The paper's §5 shortlist as a ready-made structure axis."""
    return {
        "none": None,
        "vc4": VictimCacheSpec(4),
        "sb1x4": StreamBufferSpec(4),
        "sb4x4": MultiWayStreamBufferSpec(4, 4),
    }


@dataclass
class GridSpec:
    """Axes of a design-space sweep."""

    cache_sizes_kb: Sequence[int] = (4,)
    line_sizes: Sequence[int] = (16,)
    structures: Dict[str, StructureFactory] = field(default_factory=default_structures)
    #: Optional warm-up prefix (references) for steady-state numbers.
    warmup: int = 0

    def __post_init__(self) -> None:
        if not self.cache_sizes_kb or not self.line_sizes or not self.structures:
            raise ConfigurationError("every grid axis needs at least one point")
        for label, value in self.structures.items():
            if value is not None and not isinstance(value, StructureSpec):
                raise ConfigurationError(
                    f"structure {label!r} must be None or a StructureSpec, "
                    f"got {type(value).__name__}"
                )

    @property
    def num_points(self) -> int:
        return len(self.cache_sizes_kb) * len(self.line_sizes) * len(self.structures)


def sweep_grid(
    traces,
    spec: GridSpec,
    side: str = "d",
    experiment_id: str = "grid",
    jobs: Optional[int] = None,
    resilience=None,
) -> TableResult:
    """Run every grid point for every trace; long-format results.

    Columns: trace, cache KB, line B, structure, miss rate, % removed,
    % reaching the next level.  Suitable for pivoting/plotting by the
    caller; each row is one independent simulation.

    Every point is a :class:`~repro.experiments.engine.LevelJob` run
    through :func:`~repro.experiments.base.run_points`: backend-
    dispatched, memoized point by point in an active result store, and
    fanned out over workers with ``jobs > 1`` (or ``REPRO_JOBS``), with
    row order and values identical at any worker count.  Hand-made
    traces replay inline.
    """
    from ..specs import SystemSpec
    from .base import run_points
    from .engine import LevelJob

    points = [
        (trace, size_kb, line_size, label)
        for trace in traces
        for size_kb in spec.cache_sizes_kb
        for line_size in spec.line_sizes
        for label in spec.structures
    ]
    level_points = [
        (
            trace,
            SystemSpec.for_level(
                None,
                CacheConfig(size_kb * 1024, line_size),
                side=side,
                structure=spec.structures[label],
                warmup=spec.warmup,
            ),
            LevelJob,
        )
        for trace, size_kb, line_size, label in points
    ]
    summaries = run_points(
        level_points, jobs=jobs, resilience=resilience, component="sweep_grid"
    )
    rows = [
        [
            trace.name,
            size_kb,
            line_size,
            label,
            round(summary.miss_rate, 4),
            round(summary.percent_removed, 1),
            round(summary.effective_miss_rate, 4),
        ]
        for (trace, size_kb, line_size, label), summary in zip(points, summaries)
    ]
    return TableResult(
        experiment_id=experiment_id,
        title=f"design-space grid sweep ({side}-side, {spec.num_points} points/trace)",
        headers=[
            "trace",
            "cache KB",
            "line B",
            "structure",
            "miss rate",
            "% removed",
            "effective rate",
        ],
        rows=rows,
        notes=["long format: one row per (trace, geometry, structure) simulation"],
    )
