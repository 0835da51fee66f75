"""Shared plumbing for the benchmark workloads: paths, stats, outcomes.

Every workload module exposes ``run(seed, seconds, traced) -> Outcome``.
An :class:`Outcome` carries the operation counts, the named failures,
the end-to-end metrics (untraced runs), the per-layer metrics (traced
runs) and free-form report lines printed above the final JSON line.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for result stores, daemon logs and span dumps.  Lives
#: inside the checkout (and is git-ignored); per-process subdirectories
#: are removed when a run ends, traced runs' spans are kept in ``spans/``.
WORK = os.path.join(ROOT, ".perfbench-work")

now = time.perf_counter


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[min(rank, len(ordered)) - 1])


#: Iterations of the calibration loop, and its nominal duration: the
#: median sample on the reference machine (2-vCPU x86-64 VM, CPython
#: 3.11) when no neighbour competes for the core.
CALIBRATION_LOOP = 250_000
CALIBRATION_NOMINAL_S = 0.020


def calibration_sample() -> float:
    """Seconds for a fixed pure-Python integer loop (no repo code)."""
    started = now()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value * value
    return now() - started


def calibrate(samples: int = 5) -> float:
    """Median of *samples* calibration samples."""
    return median([calibration_sample() for _ in range(samples)])


def at_nominal_speed(seconds: float, calibration: float) -> float:
    """Rescale a host time to the reference machine's nominal speed.

    The benchmark shares its cores with other tenants, whose load slows
    everything by tens of percent for minutes at a time.  The same
    slowdown stretches the calibration loop measured next to the timed
    work, so ``seconds * nominal / calibration`` removes most of it.
    """
    return seconds * CALIBRATION_NOMINAL_S / calibration


def keep_going(started: float, seconds: float, done: int, minimum: int) -> bool:
    """Whether a timed loop runs another pass.

    Passes run until *seconds* have elapsed, and at least *minimum* of
    them unless that would take past ``max(3 * seconds, 60)`` seconds (so
    a much slower program still ends well inside the run's time limit).
    """
    elapsed = now() - started
    return elapsed < seconds or (done < minimum and elapsed < max(3 * seconds, 60.0))


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the checkout's ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_import_probe(module: str) -> float:
    """Seconds to start a fresh interpreter that imports *module*.

    This is the process-start share of set-up: what a user pays before
    ``repro-experiments`` (or any entry point) can do work.
    """
    started = now()
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return now() - started


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, str(os.getpid()), *parts)
    os.makedirs(path, exist_ok=True)
    return path


def remove_work_dir() -> None:
    shutil.rmtree(os.path.join(WORK, str(os.getpid())), ignore_errors=True)


def tree_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child.

    ``VmHWM`` is this process's high-water mark; ``RUSAGE_CHILDREN``
    reports the largest peak among terminated children (engine pool
    workers, the serve daemon, the load generator).
    """
    own_kb = 0
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
                    break
    except OSError:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + child_kb) / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: name -> (value, unit); end-to-end metrics from an untraced run.
    end_to_end: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: name -> (value, unit); per-layer metrics from a traced run.
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Report lines printed before the result line.
    report: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, name: str, value: float, unit: str, detail: str = "") -> None:
        suffix = f"  ({detail})" if detail else ""
        self.report.append(f"{name} = {value:.6g} {unit}{suffix}")


def compare_values(expected, actual, rel: float = 1e-9) -> bool:
    """Numbers equal within *rel* relative (exact for non-numbers)."""
    numeric = (int, float)
    if (
        isinstance(expected, numeric)
        and isinstance(actual, numeric)
        and not isinstance(expected, bool)
        and not isinstance(actual, bool)
    ):
        if expected == actual:
            return True
        scale = max(abs(expected), abs(actual))
        return abs(expected - actual) <= rel * scale
    return expected == actual


def table_of(result) -> dict:
    """A Table/Figure result as plain ``{headers, rows, notes}`` data."""
    table = result.as_table() if hasattr(result, "as_table") else result
    return {"headers": list(table.headers), "rows": [list(r) for r in table.rows],
            "notes": list(table.notes)}


def diff_tables(name: str, expected: dict, actual: dict, limit: int = 3) -> List[str]:
    """Named mismatches between two result tables (at most *limit*)."""
    problems: List[str] = []
    if expected["headers"] != actual["headers"]:
        problems.append(f"{name}: headers differ")
    if len(expected["rows"]) != len(actual["rows"]):
        problems.append(
            f"{name}: {len(actual['rows'])} rows, expected {len(expected['rows'])}"
        )
    for index, (want, got) in enumerate(zip(expected["rows"], actual["rows"])):
        if len(want) != len(got) or not all(map(compare_values, want, got)):
            key = want[0] if want else index
            problems.append(f"{name}: row {index} ({key!r}): {got!r} != expected {want!r}")
        if len(problems) >= limit:
            break
    if expected["notes"] != actual["notes"] and len(problems) < limit:
        problems.append(f"{name}: notes differ")
    return problems
