"""In-memory span tracer that wraps the repo's public layer functions.

The traced run installs wrappers around the calls into each layer —
``run_level``/``run_system`` (runner), the numpy kernels, the engine's
``run_jobs``/``execute_job``, ``ResultStore.get``/``put``, trace
materialization and the serve request path — without touching ``src/``.
Where a caller bound a name with ``from … import``, every such binding
in a loaded ``repro`` module is replaced too (for example
``repro.experiments.figure_4_6.run_level`` and
``repro.serve.service.run_jobs``).

A span is ``(id, parent, name, start, end, request_id, pid, extra)``.
The parent and request id travel in a :mod:`contextvars` variable, so
asyncio tasks and (with :class:`ContextThreadPool`) executor threads
inherit them.  Engine pool workers are forked from a traced parent: a
multiprocessing after-fork hook empties the inherited buffer, and the
worker writes its own
spans to ``<outdir>/spans-<pid>.json`` when it exits.  Times are
``time.perf_counter`` (the system-wide monotonic clock on Linux), so
spans from every process share one time axis.

Wrappers cost one attribute read when tracing is disabled, so the
untraced passes of a traced run measure the tracing overhead.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
from multiprocessing import util as _mp_util
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float, Optional[int], int, object]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self.outdir: Optional[str] = None
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _new_id(self) -> int:
        return (self.pid << 32) | next(self._ids)

    def _after_fork(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        if self.outdir is not None:
            # Pool workers leave through multiprocessing's finalizers.
            _mp_util.Finalize(None, self.flush_worker, exitpriority=10)

    def flush_worker(self) -> None:
        if self.outdir is None or not self.spans:
            return
        path = os.path.join(self.outdir, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(self.spans, handle)
        self.spans = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a top-level span measured by the caller."""
        self.spans.append((self._new_id(), None, name, start, end, None, self.pid, None))

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (used for harness-level spans)."""
        if not self.enabled:
            yield
            return
        parent, rid = _CURRENT.get()
        sid = self._new_id()
        token = _CURRENT.set((sid, rid))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            _CURRENT.reset(token)
            self.spans.append((sid, parent, name, start, end, rid, self.pid, None))

    def wrap(self, fn: Callable, name: str, extra: Optional[Callable] = None,
             rid_of: Optional[Callable] = None) -> Callable:
        """A span-recording wrapper for *fn* (sync or async).

        ``extra(args, kwargs, result)`` returns a small annotation stored
        with the span; ``rid_of(args)`` extracts a request id that the
        span and its descendants carry.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_inner(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                parent, rid = _CURRENT.get()
                if rid_of is not None:
                    rid = rid_of(args)
                sid = tracer._new_id()
                token = _CURRENT.set((sid, rid))
                start = perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter()
                    _CURRENT.reset(token)
                    note = extra(args, kwargs, result) if extra is not None else None
                    tracer.spans.append((sid, parent, name, start, end, rid, tracer.pid, note))

            return async_inner

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent, rid = _CURRENT.get()
            sid = tracer._new_id()
            token = _CURRENT.set((sid, rid))
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                note = extra(args, kwargs, result) if extra is not None else None
                tracer.spans.append((sid, parent, name, start, end, rid, tracer.pid, note))

        return inner

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: str, extra=None) -> None:
        """Wrap ``module.attr`` and every ``from … import`` binding of it."""
        try:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self.wrap(original, name, extra)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def patch_binding(self, module: str, attr: str, name: str) -> None:
        """Wrap one module's binding only (a layer boundary seen from a caller)."""
        try:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        self._set(owner, attr, self.wrap(original, name))

    def patch_method(self, module: str, cls: str, method: str, name: str,
                     extra=None, rid_of=None) -> None:
        try:
            owner = getattr(importlib.import_module(module), cls)
            original = owner.__dict__[method]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{cls}.{method}")
            return
        self._set(owner, method, self.wrap(original, name, extra, rid_of))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- collection -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON: one list per span, fields as
        in :data:`Span`."""
        import gzip

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump(self.spans, handle)

    def collect_workers(self) -> None:
        """Merge span files written by exited worker processes."""
        if self.outdir is None:
            return
        for entry in sorted(os.listdir(self.outdir)):
            if entry.startswith("spans-") and entry.endswith(".json"):
                path = os.path.join(self.outdir, entry)
                with open(path) as handle:
                    self.spans.extend(tuple(span) for span in json.load(handle))
                os.remove(path)


TRACER = Tracer()
# multiprocessing clears its finalizer registry in a new worker before
# running its after-fork hooks, so the flush is registered from there.
_mp_util.register_after_fork(TRACER, Tracer._after_fork)


class ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context.

    ``loop.run_in_executor`` does not carry :mod:`contextvars` into the
    worker thread; swapping the serve service's pools for these lets a
    request's spans on lookup and simulation threads keep its id.
    """

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


# -- the layer boundaries -------------------------------------------------------


def _len_first_arg(args, kwargs, result):
    """References replayed: the length of the stream or trace passed in."""
    return len(args[0]) if args else 0


def _len_result(args, kwargs, result):
    return len(result) if result is not None else 0


def _store_hit(args, kwargs, result):
    return 1 if result is not None and result[0] is not None else 0


def _job_mode(args, kwargs, result):
    """``"miss-replay"`` or ``"vector"``: the kernel mode this job would use."""
    job = args[0]
    kind = type(job).__name__
    if kind == "LevelJob":
        from repro.kernels import MISS_REPLAY, kernel_mode

        return "miss-replay" if kernel_mode(job.system) == MISS_REPLAY else "vector"
    if kind == "RunSweepJob" and job.ways > 1:
        return "miss-replay"
    return "vector"


def _request_id(args) -> Optional[int]:
    """The ``rid`` field the load generator puts in every request body."""
    request = args[1] if len(args) > 1 else None
    body = getattr(request, "body", b"") or b""
    marker = body.find(b'"rid": ')
    if marker < 0:
        return None
    digits = body[marker + 7: marker + 27].split(b",")[0].split(b"}")[0]
    try:
        return int(digits)
    except ValueError:
        return None


KERNEL_FUNCTIONS = (
    ("repro.kernels.numpy_backend", "simulate_level_summary"),
    ("repro.kernels.assist", "simulate_assist_summary"),
    ("repro.kernels.assist", "extract_miss_stream"),
    ("repro.kernels.assist", "entry_sweep_summary"),
    ("repro.kernels.assist", "run_length_sweep_summary"),
)


def install(serve: bool = False) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are built from."""
    tracer = TRACER
    # Import everything first so ``from … import`` bindings exist to patch.
    import repro.experiments  # noqa: F401
    import repro.experiments.checks  # noqa: F401

    for module, _attr in KERNEL_FUNCTIONS:
        try:
            importlib.import_module(module)
        except ImportError:
            pass
    if serve:
        import repro.serve.daemon  # noqa: F401
        import repro.serve.service  # noqa: F401

    tracer.patch_method("repro.traces.trace", "Trace", "materialize",
                        "traces.materialize", extra=_len_result)
    tracer.patch_function("repro.experiments.runner", "run_level",
                          "runner.run_level", extra=_len_first_arg)
    tracer.patch_function("repro.experiments.runner", "run_system",
                          "runner.run_system", extra=_len_first_arg)
    for module, attr in KERNEL_FUNCTIONS:
        tracer.patch_function(module, attr, f"kernels.{attr}")
    tracer.patch_function("repro.experiments.engine", "run_jobs", "engine.run_jobs",
                          extra=_len_result)
    tracer.patch_function("repro.experiments.engine", "execute_job",
                          "engine.execute_job", extra=_job_mode)
    tracer.patch_method("repro.store.core", "ResultStore", "get", "store.get",
                        extra=_store_hit)
    tracer.patch_method("repro.store.core", "ResultStore", "put", "store.put")
    if serve:
        # The daemon's request handler carries the request id; the
        # service-level boundaries nest inside it.
        tracer.patch_method("repro.serve.daemon", "CacheAdvisorDaemon", "_advise",
                            "serve.handle", rid_of=_request_id)
        tracer.patch_binding("repro.serve.daemon", "parse_query", "serve.parse_query")
        tracer.patch_method("repro.serve.service", "AdvisorService", "advise",
                            "serve.advise")
        tracer.patch_binding("repro.serve.service", "run_jobs", "serve.simulate")
        tracer.patch_method("repro.serve.service", "_GuardedStore", "get",
                            "serve.store_get")
        tracer.patch_method("repro.serve.service", "_GuardedStore", "put",
                            "serve.store_put")
    return tracer


# -- analysis -------------------------------------------------------------------


class SpanIndex:
    """Queries over recorded spans: busy time, coverage, self time."""

    #: Harness spans that are not layer work.
    CONTAINERS = ("pass", "setup", "calibration")

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.by_id: Dict[int, Span] = {span[0]: span for span in spans}
        self.by_name: Dict[str, List[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span[2], []).append(span)

    def named(self, name: str) -> List[Span]:
        return self.by_name.get(name, [])

    def outermost(self, name: str) -> List[Span]:
        """Spans of *name* with no ancestor of the same name."""
        result = []
        for span in self.named(name):
            parent = self.by_id.get(span[1])
            while parent is not None and parent[2] != name:
                parent = self.by_id.get(parent[1])
            if parent is None:
                result.append(span)
        return result

    def busy(self, name: str) -> float:
        return sum(span[4] - span[3] for span in self.outermost(name))

    def layer_spans(self) -> List[Span]:
        return [
            span for span in self.spans
            if span[2] not in self.CONTAINERS and not span[2].startswith("experiments.")
        ]

    @staticmethod
    def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
        """Length of ``[lo, hi]`` covered by the union of *intervals*."""
        clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
        total = 0.0
        cursor = lo
        for a, b in clipped:
            if b <= cursor:
                continue
            total += b - max(a, cursor)
            cursor = b
        return total

    def self_time(self, outer: Span, inner: List[Span]) -> float:
        """*outer*'s duration minus the part the *inner* spans cover."""
        intervals = [(s[3], s[4]) for s in inner]
        return (outer[4] - outer[3]) - self.covered(intervals, outer[3], outer[4])
