"""Simulation kernel backends: whole-trace array passes vs. the interpreter.

The reference simulator walks traces one reference at a time through
live cache objects — exact, fully general, and bounded by the Python
interpreter.  This package adds a second implementation of that work: a
numpy backend (:mod:`repro.kernels.numpy_backend`) that simulates a
direct-mapped cache level — and the bare split-L1/L2 system — over an
entire packed trace in vectorized array passes, including 3C miss
classification, and an assist-structure layer
(:mod:`repro.kernels.assist`) that extends the same treatment to the
paper's helper structures.  Because every structure is consulted only on
an L1 miss and updated only on a refill, the direct-mapped pass first
emits the *ordered miss stream* (positions, lines, victims) and the
structure is then resolved over that much shorter stream, in one of two
modes (:func:`kernel_mode`):

* :data:`VECTOR` — the structure's hit condition closes over the miss
  stream in array form: LRU miss/victim caches reduce to one
  reuse-distance rank pass (which yields hits for *every* capacity at
  once, collapsing entry sweeps to a single pass), and the single-way
  sequential stream buffer reduces to a consecutive-chain scan.
* :data:`MISS_REPLAY` — the live interpreter structure replays only the
  compressed miss stream (multi-way buffers, stride prefetchers,
  non-LRU policies, availability modelling, composites).

Both backends produce **identical statistics**, pinned by the
equivalence suite in ``tests/test_kernels.py``; which one runs is a pure
performance decision.

Backend selection
-----------------

:func:`select_backend` is the single dispatch point.  It combines three
inputs:

* the **request** — ``REPRO_BACKEND`` (``auto`` | ``python`` | ``numpy``,
  default ``auto``) or the CLI's ``--backend`` flag, validated by
  :func:`validate_backend`;
* the **spec** — :func:`kernel_mode` gives the point's mode; a value
  with no mode runs the interpreter;
* **availability** — numpy is an optional dependency (the ``fast``
  extra).  When it is missing the python backend runs instead; an
  explicit ``REPRO_BACKEND=numpy`` request additionally records a
  one-time :class:`KernelFallbackWarning` so the degradation is never
  silent.

Selection **never raises** — a point with no kernel mode runs the
interpreter even under ``REPRO_BACKEND=numpy``.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

from ..common.errors import ConfigurationError

__all__ = [
    "AUTO",
    "PYTHON",
    "NUMPY",
    "BACKENDS",
    "VECTOR",
    "MISS_REPLAY",
    "ENV_BACKEND",
    "KernelFallbackWarning",
    "numpy_available",
    "validate_backend",
    "default_backend",
    "structure_mode",
    "kernel_mode",
    "select_backend",
]

AUTO = "auto"
PYTHON = "python"
NUMPY = "numpy"
BACKENDS = (AUTO, PYTHON, NUMPY)

#: Assist-structure execution modes on the numpy backend.
VECTOR = "vector"
MISS_REPLAY = "miss-replay"

#: Environment knob mirrored by the CLI's ``--backend`` flag.
ENV_BACKEND = "REPRO_BACKEND"


class KernelFallbackWarning(UserWarning):
    """A requested vectorized backend was unavailable; python ran instead."""


# -- availability -------------------------------------------------------------

#: ``None`` until probed, then ``(available, reason_if_not)``.
_NUMPY_PROBE: Optional[Tuple[bool, str]] = None
_WARNED_UNAVAILABLE = False


def _probe_numpy() -> Tuple[bool, str]:
    global _NUMPY_PROBE
    if _NUMPY_PROBE is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_PROBE = (True, "")
        except Exception as exc:  # pragma: no cover - depends on environment
            _NUMPY_PROBE = (False, f"numpy is not importable ({exc!r})")
    return _NUMPY_PROBE


def numpy_available() -> bool:
    """Whether the numpy backend can run (probed once per process)."""
    return _probe_numpy()[0]


def _reset_probe_for_tests(
    probe: Optional[Tuple[bool, str]] = None, warned: bool = False
) -> None:
    """Test hook: override (or clear) the availability probe state."""
    global _NUMPY_PROBE, _WARNED_UNAVAILABLE
    _NUMPY_PROBE = probe
    _WARNED_UNAVAILABLE = warned


def _warn_unavailable_once(reason: str) -> None:
    """One recorded warning per process for an unsatisfiable numpy request.

    The warning always fires (so an ignored ``REPRO_BACKEND=numpy`` is
    visible without telemetry); when a
    :class:`~repro.telemetry.core.MetricsScope` is active the event is
    additionally recorded for the run record, next to the engine's
    serial-fallback reasons.
    """
    global _WARNED_UNAVAILABLE
    if _WARNED_UNAVAILABLE:
        return
    _WARNED_UNAVAILABLE = True
    message = f"REPRO_BACKEND=numpy requested but {reason}; using the python backend"
    warnings.warn(message, KernelFallbackWarning, stacklevel=3)
    from ..telemetry.core import current as _telemetry_scope

    scope = _telemetry_scope()
    if scope is not None:
        scope.record_fallback("kernels", message)


# -- request validation -------------------------------------------------------


def validate_backend(value: str) -> str:
    """Validate a user-supplied backend name (CLI boundary: reject loudly)."""
    if value not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {', '.join(BACKENDS)}; got {value!r}"
        )
    return value


def default_backend() -> str:
    """The requested backend from ``REPRO_BACKEND`` (default ``auto``)."""
    raw = os.environ.get(ENV_BACKEND, "")
    if not raw:
        return AUTO
    if raw not in BACKENDS:
        raise ConfigurationError(
            f"{ENV_BACKEND} must be one of {', '.join(BACKENDS)}; got {raw!r}"
        )
    return raw


# -- kernel modes -------------------------------------------------------------


def structure_mode(spec) -> Optional[str]:
    """Execution mode of one structure spec on the numpy backend.

    ``VECTOR`` when the structure's hit condition is expressible as
    array passes over the miss stream, ``MISS_REPLAY`` when the live
    interpreter structure must replay the (compressed) miss stream, and
    ``None`` for ``spec`` values that are not registered structure
    specs.  The vector conditions mirror
    :mod:`repro.kernels.assist` exactly:

    * miss cache — LRU replacement (the reuse-distance rank pass *is*
      LRU stack depth);
    * victim cache — LRU replacement with ``swap_on_hit`` (a hit must
      invalidate, which is what keeps the finite cache a prefix of the
      unbounded stack);
    * stream buffer (single way) — head-only matching without
      availability modelling or the allocation filter (the hit
      condition then closes over consecutive-miss chains alone).
    """
    from ..specs.structures import StructureSpec

    if spec is None:
        return VECTOR
    if not isinstance(spec, StructureSpec):
        return None
    kind = spec.kind
    if kind == "miss_cache":
        return VECTOR if spec.policy == "lru" else MISS_REPLAY
    if kind == "victim_cache":
        return VECTOR if spec.policy == "lru" and spec.swap_on_hit else MISS_REPLAY
    if kind == "stream_buffer":
        vector = (
            spec.head_only
            and not spec.model_availability
            and not spec.allocation_filter
        )
        return VECTOR if vector else MISS_REPLAY
    if kind == "composite":
        if any(structure_mode(member) is None for member in spec.members):
            return None
        return MISS_REPLAY
    if kind in (
        "multi_way_stream_buffer",
        "stride_buffer",
        "multi_way_stride_buffer",
    ):
        return MISS_REPLAY
    return None


def kernel_mode(system) -> Optional[str]:
    """How *system* would execute on the numpy backend, or None.

    ``VECTOR`` for structure-free points and vectorizable structures,
    ``MISS_REPLAY`` for structures that replay the compressed miss
    stream, ``None`` for anything that is not a
    :class:`~repro.specs.SystemSpec` with a registered structure.  This
    is a property of the spec alone — combine with
    :func:`select_backend` to learn what actually runs.
    """
    from ..specs import SystemSpec

    if not isinstance(system, SystemSpec):
        return None
    return structure_mode(system.structure)


def select_backend(system, requested: Optional[str] = None) -> str:
    """The backend one spec point will execute on: ``"numpy"`` | ``"python"``.

    *requested* overrides the environment (it must already be a valid
    backend name; CLI input goes through :func:`validate_backend`
    first).  A point with no :func:`kernel_mode` always falls back to
    python — never an error — and an explicit numpy request on a
    machine without numpy records a one-time
    :class:`KernelFallbackWarning`.
    """
    request = default_backend() if requested is None else requested
    if request == PYTHON:
        return PYTHON
    if kernel_mode(system) is None:
        return PYTHON
    available, reason = _probe_numpy()
    if not available:
        if request == NUMPY:
            _warn_unavailable_once(reason)
        return PYTHON
    return NUMPY
