"""CPU-side cache hierarchy (Table 3: L1 / L2 / shared LLC).

The hierarchy is a tag-only timing filter: the functional data path
lives behind the memory controller, so the hierarchy's only job is to
decide which requests reach memory and to charge hit latencies.  The
batch engine (:mod:`repro.sim.engine`) drives it.  A reference probes
the levels in order until one hits; every level it missed allocates
the line (write-allocate) and evicts that set's LRU victim.  A write
marks the line dirty in every level it probed.

Two simplifications shape the traffic the controller sees:

* the levels are neither inclusive nor exclusive: no eviction
  invalidates a copy in another level;
* only the last level writes back.  Its dirty victims become controller
  writes.  A dirty victim of an upper level is counted in that level's
  ``dirty_evictions``/``writebacks`` and then dropped, so a store that
  hits above the last level reaches memory only if the last level's
  copy is, or later becomes, dirty.  This is a known defect; fixing it
  changes every pinned simulation output, so it waits for Figure 10's
  re-record (ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import SetAssociativeCache
from repro.constants import CACHELINE_BYTES


@dataclass(frozen=True)
class LevelConfig:
    """Size/associativity/latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency_cycles: int


#: Table 3 configuration.
TABLE3_LEVELS = (
    LevelConfig("L1", 32 * 1024, 2, 2),
    LevelConfig("L2", 512 * 1024, 8, 20),
    LevelConfig("LLC", 8 * 1024 * 1024, 64, 32),
)


class CacheHierarchy:
    """The CPU cache levels in front of the memory controller."""

    def __init__(
        self,
        levels=TABLE3_LEVELS,
        line_size: int = CACHELINE_BYTES,
        registry=None,
    ):
        if not levels:
            raise ValueError("at least one cache level required")
        self.configs = list(levels)
        self.caches = [
            SetAssociativeCache(
                c.size_bytes, c.ways, line_size, name=c.name, registry=registry
            )
            for c in self.configs
        ]
        self.line_size = line_size

    @property
    def llc(self) -> SetAssociativeCache:
        return self.caches[-1]
