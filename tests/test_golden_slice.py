"""Golden slice: the engine-run experiments reproduce the committed numbers.

``perfbench/reference/paper-repro-seed0.json.gz`` holds every
experiment's table at scale 6000, seed 0, as the benchmark checks them.
Each experiment whose single-level points run as engine jobs must match
it within 1e-9 relative on both backends, and the paper's shape checks
must all pass on that suite.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS, run_checks
from repro.specs import NamedWorkloadSpec
from repro.traces.registry import BENCHMARK_NAMES
from tests.test_path_independence import ENGINE_EXPERIMENTS

REFERENCE = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference"
    / "paper-repro-seed0.json.gz"
)
SCALE = 6_000
REL = 1e-9


def _close(want, got) -> bool:
    numeric = (int, float)
    if isinstance(want, numeric) and isinstance(got, numeric):
        return want == got or abs(want - got) <= REL * max(abs(want), abs(got))
    return want == got


@pytest.fixture(scope="module")
def reference():
    if not REFERENCE.exists():
        pytest.skip("reference tables are not part of this checkout")
    with gzip.open(REFERENCE, "rt") as handle:
        data = json.load(handle)
    assert (data["scale"], data["seed"]) == (SCALE, 0)
    return data["experiments"]


@pytest.fixture(scope="module")
def suite():
    return [NamedWorkloadSpec(name=name, scale=SCALE, seed=0).trace() for name in BENCHMARK_NAMES]


@pytest.fixture(params=["python", "numpy"])
def backend(request, monkeypatch):
    if request.param == "numpy":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_BACKEND", request.param)
    return request.param


@pytest.mark.parametrize("name", ENGINE_EXPERIMENTS)
def test_table_matches_reference(name, backend, suite, reference):
    result = ALL_EXPERIMENTS[name](traces=suite, scale=SCALE, seed=0)
    table = result.as_table() if hasattr(result, "as_table") else result
    expected = reference[name]
    assert table.headers == expected["headers"]
    assert table.notes == expected["notes"]
    assert len(table.rows) == len(expected["rows"])
    for got, want in zip(table.rows, expected["rows"]):
        assert len(got) == len(want) and all(map(_close, want, got)), (
            f"{name} row {want[0]!r} on {backend}: {got} != {want}"
        )


def test_shape_checks_hold(backend, suite):
    outcomes = run_checks(traces=suite)
    assert len(outcomes) == 9
    assert [o.check.check_id for o in outcomes if not o.passed] == []
