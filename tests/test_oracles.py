"""Closed-form oracles: the simulator checked against arithmetic.

Every other equivalence test compares the simulator with itself (one
backend against the other, one path against another).  These compare
it with numbers derived on paper for streams simple enough to reason
about, in the analytic style of Majumdar & Radhakrishnan:

* a sequential sweep larger than the cache misses on every reference,
  and a stream buffer removes all but a handful of those misses;
* uniform-random references over M lines into a direct-mapped cache of
  C lines miss with probability 1 - C/M, within a tolerance derived
  from the sample size (4 binomial standard deviations);
* a k-line ping-pong conflict in one set leaves only the k cold misses
  once a victim cache of k entries (k - 1 suffice) sits behind the
  cache.

Each point is a :class:`~repro.experiments.engine.LevelJob` run through
:func:`~repro.experiments.engine.execute_job`: spec-built points on both
backends, the hand-made trace inline on the interpreter.
"""

from __future__ import annotations

import math

import pytest

from repro.common.config import CacheConfig
from repro.common.types import LOAD, STORE
from repro.experiments.engine import LevelJob, execute_job
from repro.kernels import select_backend
from repro.specs import (
    NamedWorkloadSpec,
    SequentialSpec,
    StreamBufferSpec,
    SystemSpec,
    UniformRandomSpec,
    VictimCacheSpec,
)
from repro.traces.trace import trace_from_pairs

CACHE = CacheConfig(4 * 1024, 16)
LINES = CACHE.size_bytes // CACHE.line_size


@pytest.fixture(params=["python", "numpy"])
def backend(request, monkeypatch):
    if request.param == "numpy":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_BACKEND", request.param)
    return request.param


def run(workload, structure=None):
    """``(job, summary)`` for one data-side point of *workload*."""
    job = LevelJob(SystemSpec.for_level(workload, CACHE, side="d", structure=structure))
    return job, execute_job(job)


class TestSequentialSweep:
    WORKLOAD = SequentialSpec(length=20_000, extent=64 * 1024, stride=16)

    def test_every_reference_misses(self, backend):
        job, summary = run(self.WORKLOAD)
        assert select_backend(job.system) == backend
        # One new 16 B line per reference, and a 64 KB extent wraps
        # long after a 4 KB cache has evicted the first pass.
        assert summary.accesses == 20_000
        assert summary.demand_misses == 20_000

    def test_stream_buffer_removes_nearly_every_miss(self, backend):
        job, summary = run(self.WORKLOAD, StreamBufferSpec(4))
        assert select_backend(job.system) == backend
        assert summary.demand_misses == 20_000
        # Only the restarts (the first miss, and each wrap of the
        # extent) reach the next level.
        assert summary.removed_misses >= 0.999 * summary.demand_misses


class TestUniformRandom:
    def test_miss_rate_is_one_minus_capacity_ratio(self, backend):
        workload = UniformRandomSpec(working_set=64 * 1024, length=50_000)
        job, summary = run(workload)
        assert select_backend(job.system) == backend
        lines = workload.working_set // workload.granule
        expected = 1 - LINES / lines  # 0.9375
        sigma = math.sqrt(expected * (1 - expected) / summary.accesses)
        assert abs(summary.miss_rate - expected) <= 4 * sigma


class TestVictimCachePingPong:
    K = 4
    ROUNDS = 500

    def test_spec_built_ping_pong(self, backend):
        # A stride of one cache size maps every line of the extent to the
        # same set: a k-line conflict cycle.
        workload = SequentialSpec(
            length=self.K * self.ROUNDS, extent=self.K * CACHE.size_bytes,
            stride=CACHE.size_bytes,
        )
        job, summary = run(workload, VictimCacheSpec(self.K))
        assert select_backend(job.system) == backend
        assert summary.demand_misses == self.K * self.ROUNDS
        assert summary.misses_to_next_level == self.K

    def test_hand_made_ping_pong(self):
        # Alternating loads and stores to k lines two cache sizes apart,
        # replayed inline on the interpreter.  The direct-mapped line
        # plus k - 1 victim entries hold the whole cycle; with k - 2 the
        # LRU victim cache always evicts the next line wanted.
        lines = [0x4_0000 + i * 2 * CACHE.size_bytes for i in range(self.K)]
        pairs = [
            (LOAD if n % 2 else STORE, lines[n % self.K] + 4 * (n % 4))
            for n in range(self.K * self.ROUNDS)
        ]
        trace = trace_from_pairs("ping-pong", pairs)
        refs = self.K * self.ROUNDS
        for entries, leaked in ((self.K, self.K), (self.K - 1, self.K), (self.K - 2, refs)):
            system = SystemSpec.for_level(
                NamedWorkloadSpec(name=trace.name), CACHE, side="d",
                structure=VictimCacheSpec(entries),
            )
            summary = execute_job(LevelJob(system), trace=trace)
            assert summary.demand_misses == refs
            assert summary.misses_to_next_level == leaked, entries
