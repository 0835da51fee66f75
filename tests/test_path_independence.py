"""Path independence for the experiments whose points run as engine jobs.

Every experiment that declares its single-level points through
:func:`repro.experiments.base.run_points` must produce the same table
whichever way those points execute: python or numpy backend, one worker
or two, no result store or a cold or a warm one.  A hand-made trace with
no workload spec takes the one inline fallback and must give the same
rows as its keyed twin gives through the engine.  Every such experiment
also names the backend it ran in its ``--emit-metrics`` run record.
"""

from __future__ import annotations

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.specs import NamedWorkloadSpec
from repro.telemetry import activate, deactivate, read_records
from repro.traces.registry import BENCHMARK_NAMES, build_trace
from repro.traces.trace import MaterializedTrace, TraceMeta

SCALE = 1_500

#: Experiments whose single-level points run as engine jobs.
ENGINE_EXPERIMENTS = [
    "figure_3_1",
    "figure_3_3",
    "figure_3_5",
    "figure_3_6",
    "figure_3_7",
    "figure_4_3",
    "figure_4_5",
    "figure_4_6",
    "figure_4_7",
    "ext_associativity",
    "ext_marginal_utility",
    "ext_cold_start",
    "ext_stride",
    "ablations",
]

_PATH_ENV = ("REPRO_BACKEND", "REPRO_JOBS", "REPRO_RESULT_STORE")


def tables(traces):
    """``{experiment: (headers, rows, notes)}`` for every engine experiment."""
    out = {}
    for name in ENGINE_EXPERIMENTS:
        result = ALL_EXPERIMENTS[name](traces=traces, scale=SCALE, seed=0)
        table = result.as_table() if hasattr(result, "as_table") else result
        out[name] = (table.headers, table.rows, table.notes)
    return out


@pytest.fixture(scope="module")
def suite():
    return [build_trace(name, SCALE).materialize() for name in BENCHMARK_NAMES]


@pytest.fixture(scope="module")
def reference(suite):
    """Tables on the interpreter, one worker, no result store."""
    with pytest.MonkeyPatch.context() as patch:
        for name in _PATH_ENV:
            patch.delenv(name, raising=False)
        patch.setenv("REPRO_BACKEND", "python")
        return tables(suite)


@pytest.fixture
def path_env(monkeypatch):
    for name in _PATH_ENV[1:]:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_numpy_backend_matches_python(suite, reference, path_env):
    pytest.importorskip("numpy")
    path_env.setenv("REPRO_BACKEND", "numpy")
    assert tables(suite) == reference


def test_two_workers_match_one(suite, reference, path_env):
    path_env.setenv("REPRO_JOBS", "2")
    assert tables(suite) == reference


def test_cold_then_warm_store_match_no_store(suite, reference, path_env, tmp_path):
    path_env.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
    assert tables(suite) == reference
    scope = activate()
    try:
        warm = tables(suite)
    finally:
        deactivate()
    assert warm == reference
    assert scope.store_hits > 0
    assert scope.store_misses == 0  # the warm pass simulates no engine point


def test_hand_made_traces_replay_inline_identically(suite, reference, path_env):
    hand_made = [MaterializedTrace(TraceMeta(name=t.name), list(t.pairs)) for t in suite]
    assert all(NamedWorkloadSpec.of(trace) is None for trace in hand_made)
    scope = activate()
    try:
        ALL_EXPERIMENTS["figure_4_6"](traces=hand_made, scale=SCALE, seed=0)
    finally:
        deactivate()
    assert not scope.job_batches  # no engine batch: every point replayed inline
    assert set(scope.backend_jobs) == {"python"}
    assert tables(hand_made) == reference


def test_run_records_name_the_backend(tmp_path, capsys, path_env):
    from repro.experiments.cli import main

    path = str(tmp_path / "metrics.jsonl")
    assert main(ENGINE_EXPERIMENTS + ["--scale", str(SCALE), "--emit-metrics", path]) == 0
    capsys.readouterr()
    records = {record.run: record for record in read_records(path)}
    assert sorted(records) == sorted(ENGINE_EXPERIMENTS)
    empty = [name for name, record in records.items() if not record.backends]
    assert not empty, f"run records without a backends section: {empty}"
