"""Shared, cached trace materialization for the experiment modules.

Building and materializing traces takes seconds, so all experiments
share one process-level memoization keyed by *resolved workload spec*:
running "all experiments" (or a grid of engine jobs) builds each trace
exactly once per process, no matter how many experiments or jobs replay
it.  The engine's worker processes use the same cache, so each worker
also materializes each trace at most once and reuses it across every
job it executes.  Any :class:`~repro.specs.workloads.WorkloadSpec` —
registry benchmarks, parameterized patterns, tenant mixes — memoizes
the same way; the historical ``(name, scale, seed)`` entry points
remain as thin wrappers over :class:`NamedWorkloadSpec`.

The registry scale can be overridden globally with the ``REPRO_SCALE``
environment variable (instructions per unit of Table 2-1 relative
length; the default keeps a full figure reproduction in the tens of
seconds).  A malformed or non-positive ``REPRO_SCALE`` raises
:class:`~repro.common.errors.ConfigurationError` — the CLI reports it
with exit code 2 like ``REPRO_JOBS``.

Sharing semantics: the cached :class:`MaterializedTrace` objects are
immutable replay buffers, shared by reference between experiments in the
same process (and, on fork-based platforms, inherited copy-on-write by
engine workers).  A different resolved spec is a different cache entry,
so changing scale, seed, or any pattern parameter always rebuilds.

The memo is a bounded LRU: long heterogeneous sweeps (many scales or
seeds per worker) evict the least recently used trace instead of growing
worker memory without limit.  The cap (:data:`TRACE_CACHE_CAP`) holds
one full benchmark suite plus an extension.

Next to the LRU sits a weak-value index of every trace the memo has
seen, so a lookup still finds a trace that someone else holds — a
caller's suite, an engine worker's warm set — instead of rebuilding it.
The index holds no strong references, and a trace found only through it
takes no LRU slot: memory stays bounded by the LRU plus what callers
keep alive.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

from ..common.errors import ConfigurationError
from ..specs.workloads import NamedWorkloadSpec, WorkloadSpec
from ..traces.registry import BENCHMARK_NAMES
from ..traces.trace import MaterializedTrace

__all__ = [
    "suite",
    "materialized_workload",
    "materialized_workloads",
    "seed_materialized_workload",
    "lent_workloads",
    "materialized_trace",
    "default_scale",
    "validate_scale",
    "BENCHMARK_NAMES",
]

#: Memo LRU capacity: the six benchmarks plus extension traces at one scale.
TRACE_CACHE_CAP = 8

_TRACE_CACHE: "OrderedDict[WorkloadSpec, MaterializedTrace]" = OrderedDict()
#: Every trace the memo has seen that is still referenced somewhere.
_LIVE: "weakref.WeakValueDictionary[WorkloadSpec, MaterializedTrace]" = (
    weakref.WeakValueDictionary()
)


def default_scale() -> Optional[int]:
    """Scale override from ``REPRO_SCALE`` (None = registry default).

    Raises :class:`ConfigurationError` for malformed or non-positive
    values instead of leaking a ``ValueError`` traceback from deep
    inside a run.
    """
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return None
    try:
        scale = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_SCALE must be a positive integer, got {raw!r}"
        ) from None
    if scale < 1:
        raise ConfigurationError(f"REPRO_SCALE must be positive, got {scale}")
    return scale


def validate_scale(value: Optional[int]) -> Optional[int]:
    """Validated trace scale from ``--scale`` or ``REPRO_SCALE``.

    ``None`` falls through to :func:`default_scale` (which itself
    validates the environment); explicit non-positive values are
    rejected so the CLI can exit with code 2 like ``--jobs``.
    """
    if value is None:
        return default_scale()
    if value < 1:
        raise ConfigurationError(f"scale must be positive, got {value}")
    return value


def _cached(key: WorkloadSpec) -> Optional[MaterializedTrace]:
    """The memoized trace for a resolved key, or None; never builds."""
    if key in _TRACE_CACHE:
        _TRACE_CACHE.move_to_end(key)
    return _LIVE.get(key)


def seed_materialized_workload(spec: WorkloadSpec, trace: MaterializedTrace) -> None:
    """Make *trace* the memo's most recent entry for *spec*, evicting to the cap."""
    key = spec.resolve()
    if key not in _TRACE_CACHE:
        while len(_TRACE_CACHE) >= TRACE_CACHE_CAP:
            _TRACE_CACHE.popitem(last=False)
    _TRACE_CACHE[key] = _LIVE[key] = trace
    _TRACE_CACHE.move_to_end(key)


def materialized_workload(spec: WorkloadSpec) -> MaterializedTrace:
    """One materialized trace, memoized per resolved workload spec."""
    key = spec.resolve()
    trace = _cached(key)
    if trace is None:
        trace = key.build().materialize()
        seed_materialized_workload(key, trace)
    return trace


def materialized_workloads(specs: Sequence[WorkloadSpec]) -> List[MaterializedTrace]:
    """Materialize *specs*, holding every cached one before building any,
    so a build cannot evict (and force a rebuild of) another of them."""
    found = [_cached(spec.resolve()) for spec in specs]
    return [
        materialized_workload(spec) if trace is None else trace
        for spec, trace in zip(specs, found)
    ]


@contextmanager
def lent_workloads(pairs: Sequence[Tuple[WorkloadSpec, MaterializedTrace]]):
    """Index caller-held ``(spec, trace)`` pairs for the span of a batch.

    Engine jobs naming a spec then replay the caller's trace instead of
    rebuilding it.  On exit, any of them in the LRU moves to its cold
    end: the caller keeps it alive, so its slot goes first.
    """
    held = [(spec.resolve(), trace) for spec, trace in pairs]
    for key, trace in held:
        _LIVE.setdefault(key, trace)
    try:
        yield
    finally:
        for key, trace in held:
            if _TRACE_CACHE.get(key) is trace:
                _TRACE_CACHE.move_to_end(key, last=False)


def materialized_trace(
    name: str, scale: Optional[int] = None, seed: int = 0
) -> MaterializedTrace:
    """One materialized benchmark trace by registry name (compat wrapper)."""
    return materialized_workload(NamedWorkloadSpec(name=name, scale=scale, seed=seed))


def suite(scale: Optional[int] = None, seed: int = 0) -> List[MaterializedTrace]:
    """The six materialized benchmark traces, memoized per trace."""
    return [materialized_trace(name, scale, seed) for name in BENCHMARK_NAMES]
