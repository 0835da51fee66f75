"""Shared result types and rendering for the experiment modules.

Every experiment module exposes ``run(traces=None, scale=None, seed=0)``
returning either a :class:`TableResult` (for the paper's tables) or a
:class:`FigureResult` (for its figures — rendered as the numeric series
behind the plot, since this is a terminal harness).  Both render to
fixed-width text in the shape of the paper's artifact so measured and
published values can be compared side by side.

Experiments that replay single-level points — one trace side through
one cache geometry, with or without a helper structure — declare each
point as a trace plus a trace-less :class:`~repro.specs.SystemSpec` and
evaluate the whole list through the engine with :func:`run_points`, as
the grid and batch sweeps do: every point is backend-dispatched,
memoized in an active result store, and fans out over workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

__all__ = [
    "Series",
    "FigureResult",
    "TableResult",
    "format_value",
    "run_points",
]


def run_points(points, jobs: Optional[int] = None, resilience=None,
               component: str = "run_points") -> List:
    """Results for ``(trace, system, make_job)`` points, in order.

    *system* is a trace-less ``SystemSpec.for_level(None, config, ...)``;
    *make_job* (``LevelJob``, ``partial(EntrySweepJob, kind="victim")``,
    ...) builds the job once *trace*'s workload spec is bound in.  Keyed
    traces run as one engine batch on the caller's trace objects.
    Hand-made traces have no spec and replay inline on the interpreter —
    the one inline path, its jobs naming the trace by label only — and
    overriding a ``jobs > 1`` request is reported under *component*.
    """
    from dataclasses import replace

    from ..kernels import PYTHON
    from ..specs import NamedWorkloadSpec, unkeyed_reason, workload_spec_of
    from ..telemetry.core import current, record_fallback
    from .engine import execute_job, resolve_jobs, run_jobs
    from .workloads import lent_workloads

    points = list(points)
    traces = {id(trace): trace for trace, _, _ in points}
    refs = {key: workload_spec_of(trace) for key, trace in traces.items()}
    keyed = [i for i, (trace, _, _) in enumerate(points) if refs[id(trace)] is not None]
    inline = [i for i, (trace, _, _) in enumerate(points) if refs[id(trace)] is None]
    results: List = [None] * len(points)
    if keyed:
        bound = [
            make_job(replace(system, trace=refs[id(trace)]))
            for trace, system, make_job in (points[i] for i in keyed)
        ]
        lent = [(refs[key], trace) for key, trace in traces.items() if refs[key] is not None]
        with lent_workloads(lent):
            for i, result in zip(keyed, run_jobs(bound, jobs=jobs, resilience=resilience)):
                results[i] = result
    if inline:
        if resolve_jobs(jobs) > 1:
            reasons = dict.fromkeys(unkeyed_reason(points[i][0]) for i in inline)
            record_fallback(
                component,
                f"trace(s) without a workload spec: {'; '.join(reasons)}",
                stacklevel=4,
            )
        for i in inline:
            trace, system, make_job = points[i]
            label = NamedWorkloadSpec(name=trace.name)
            results[i] = execute_job(make_job(replace(system, trace=label)), trace=trace)
        scope = current()
        if scope is not None:
            scope.record_backends({PYTHON: len(inline)})
    return results


Value = Union[int, float, str]


def format_value(value: Value, width: int = 0) -> str:
    """Format a cell: floats to 3 significant places, right-aligned."""
    if isinstance(value, float):
        text = f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    else:
        text = str(value)
    return text.rjust(width) if width else text


@dataclass
class Series:
    """One line on a figure: a label plus aligned x/y vectors."""

    label: str
    x: Sequence[Value]
    y: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: x has {len(self.x)} points, y has {len(self.y)}"
            )

    def point(self, x_value: Value) -> float:
        """The y value at a given x (KeyError if absent)."""
        for xv, yv in zip(self.x, self.y):
            if xv == x_value:
                return yv
        raise KeyError(f"series {self.label!r} has no point at x={x_value!r}")


@dataclass
class TableResult:
    """A reproduced table: headers, rows, and free-form notes."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Value]]
    notes: List[str] = field(default_factory=list)

    def column(self, header: str) -> List[Value]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_by_key(self, key: Value) -> List[Value]:
        """Row whose first cell equals *key* (KeyError if absent)."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"{self.experiment_id}: no row keyed {key!r}")

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        formatted_rows = []
        for row in self.rows:
            cells = [format_value(cell) for cell in row]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            formatted_rows.append(cells)
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.rjust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in formatted_rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclass
class FigureResult:
    """A reproduced figure: named series over a shared x axis."""

    experiment_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series]
    notes: List[str] = field(default_factory=list)

    def get(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"{self.experiment_id}: no series {label!r}")

    @property
    def labels(self) -> List[str]:
        return [series.label for series in self.series]

    def as_table(self) -> TableResult:
        """Transpose the series into one column per series."""
        x_values = list(self.series[0].x) if self.series else []
        rows: List[List[Value]] = []
        for i, x_value in enumerate(x_values):
            row: List[Value] = [x_value]
            for series in self.series:
                row.append(series.y[i] if i < len(series.y) else "")
            rows.append(row)
        return TableResult(
            experiment_id=self.experiment_id,
            title=self.title,
            headers=[self.xlabel] + [s.label for s in self.series],
            rows=rows,
            notes=list(self.notes) + [f"ylabel: {self.ylabel}"],
        )

    def render(self) -> str:
        return self.as_table().render()
