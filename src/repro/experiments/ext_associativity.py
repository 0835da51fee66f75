"""§3 quantified: direct-mapped + victim cache vs. real associativity.

The paper's framing: direct-mapped caches win on hit time (§2, citing
Hill), so the goal is to "have our cake and eat it too by somehow
providing additional associativity without adding to the critical
access path".  This experiment measures how much of set-associativity's
miss-rate benefit the victim cache actually recovers, per benchmark:

* misses of the 4KB direct-mapped cache (baseline);
* misses avoided by 2-way / 4-way / fully-associative organisations of
  the same capacity (the hit-time-expensive alternatives);
* misses removed by 1/2/4-entry victim caches behind the direct-mapped
  array (the paper's alternative);
* the *recovery ratio*: VC4 removal as a share of the DM→2-way gap.

A recovery ratio near (or above) 1.0 is the paper's argument in one
number: a few fully-associative lines beside the cache buy what a whole
extra way would, without touching the hit path.  Ratios above 1.0 are
possible because a victim cache is more flexible than one extra way —
it lends its entries to whichever sets are conflicting right now.
"""

from __future__ import annotations

from typing import List, Optional

from ..caches.fully_associative import FullyAssociativeCache
from ..caches.set_associative import SetAssociativeCache
from ..common.config import CacheConfig
from ..common.stats import safe_div
from ..specs import SystemSpec, VictimCacheSpec
from .base import TableResult, run_points
from .engine import LevelJob
from .workloads import suite

__all__ = ["run"]

CONFIG = CacheConfig(4096, 16)
VC_ENTRIES = (1, 2, 4)


def _misses(cache, addresses: List[int]) -> int:
    shift = CONFIG.offset_bits
    misses = 0
    for address in addresses:
        if not cache.access_and_fill(address >> shift):
            misses += 1
    return misses


def run(traces=None, scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = list(traces) if traces is not None else suite(scale, seed)
    structures = [None] + [VictimCacheSpec(entries) for entries in VC_ENTRIES]
    specs = [SystemSpec.for_level(None, CONFIG, structure=s) for s in structures]
    results = iter(run_points([(trace, spec, LevelJob) for trace in traces for spec in specs]))
    rows = []
    for trace in traces:
        addresses = trace.data_addresses
        direct, *helped = [next(results) for _ in specs]
        dm_misses = direct.demand_misses
        two_way = _misses(SetAssociativeCache(CONFIG, 2), addresses)
        four_way = _misses(SetAssociativeCache(CONFIG, 4), addresses)
        fully = _misses(FullyAssociativeCache(CONFIG.num_lines), addresses)
        vc_removed = {
            entries: run.removed_misses for entries, run in zip(VC_ENTRIES, helped)
        }
        two_way_gain = dm_misses - two_way
        recovery = safe_div(vc_removed[4], two_way_gain) if two_way_gain > 0 else float("inf")
        rows.append(
            [
                trace.name,
                dm_misses,
                dm_misses - two_way,
                dm_misses - four_way,
                dm_misses - fully,
                vc_removed[1],
                vc_removed[2],
                vc_removed[4],
                round(recovery, 2) if two_way_gain > 0 else "n/a",
            ]
        )
    return TableResult(
        experiment_id="ext_associativity",
        title="SS3 quantified: victim caching vs. real associativity (4KB data cache)",
        headers=[
            "program",
            "DM misses",
            "2-way gain",
            "4-way gain",
            "full-assoc gain",
            "VC1 removed",
            "VC2 removed",
            "VC4 removed",
            "VC4 / 2-way",
        ],
        rows=rows,
        notes=[
            "'gain' = misses the associative organisation avoids vs direct-mapped;",
            "VC4 / 2-way near or above 1.0 is the paper's case: a 4-line victim",
            "cache recovers an extra way's benefit without the hit-time cost",
        ],
    )
