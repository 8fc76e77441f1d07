"""Set-associative LRU cache of line tags and dirty bits: the CPU caches.

A :class:`SetAssociativeCache` holds exactly the state the batch engine
(:mod:`repro.sim.engine`) runs on: ``sets``, one ``{tag: dirty}`` dict
per set whose key order is LRU order, oldest first.  The engine probes,
fills and evicts in those dicts in place and folds its counts into
``stats``.  Lines carry no data — the functional data path lives behind
the memory controller.  The security-metadata cache, which holds live
payloads in fixed slots, is the separate
:class:`~repro.cache.metadata_cache.MetadataCache`.
"""

from __future__ import annotations

from repro.constants import CACHELINE_BYTES
from repro.telemetry import CounterMetric, counter_field


class CacheCounters:
    """Hit/miss/eviction counters of one cache, backed by registry
    instruments.

    Each name in ``FIELDS`` is a :class:`~repro.telemetry.CounterMetric`
    named ``<prefix>.<field>``, readable and writable as a plain-int
    property, so registry-wide ``snapshot()``/``reset()`` cover the
    cache by construction.  Subclasses give ``FIELDS``, the help
    strings and the default prefix.
    """

    FIELDS = ("hits", "misses", "evictions", "dirty_evictions")
    PREFIX: str
    _HELP: dict

    hits = counter_field("_hits")
    misses = counter_field("_misses")
    evictions = counter_field("_evictions")
    dirty_evictions = counter_field("_dirty_evictions")

    def __init__(self, registry=None, prefix: str = None):
        prefix = self.PREFIX if prefix is None else prefix
        for name in self.FIELDS:
            metric = CounterMetric(f"{prefix}.{name}", help=self._HELP[name])
            if registry is not None:
                registry.register(metric)
            setattr(self, f"_{name}", metric)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def metrics(self) -> tuple:
        """The instruments backing this view (adoption / iteration)."""
        return tuple(getattr(self, f"_{name}") for name in self.FIELDS)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value}" for name, value in zip(self.FIELDS, self._values())
        )
        return f"{type(self).__name__}({inner})"


class CacheStats(CacheCounters):
    """Per-level CPU-cache counters (``cache.<level>.*``)."""

    FIELDS = CacheCounters.FIELDS + ("writebacks",)
    PREFIX = "cache"

    _HELP = {
        "hits": "accesses served by a resident line",
        "misses": "accesses that required a fill",
        "evictions": "victims pushed out by fills",
        "dirty_evictions": "evicted victims carrying unwritten state",
        # The engine counts every dirty victim here, in lockstep with
        # dirty_evictions, so the two always agree.  Only the last
        # level's dirty victims reach the controller (see hierarchy).
        "writebacks": "dirty victims pushed out toward memory",
    }

    writebacks = counter_field("_writebacks")


class SetAssociativeCache:
    """LRU set-associative cache of line tags with dirty bits.

    The line at byte address ``a`` lives in set
    ``(a // line_size) % num_sets`` under tag
    ``a // (line_size * num_sets)``.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_size: int = CACHELINE_BYTES,
        name: str = "cache",
        registry=None,
    ):
        if size_bytes <= 0 or ways <= 0 or line_size <= 0:
            raise ValueError("size, ways and line size must be positive")
        if size_bytes % (ways * line_size) != 0:
            raise ValueError("size must be a multiple of ways * line_size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        self.name = name
        #: One ``{tag: dirty}`` dict per set, in LRU order (oldest first).
        self.sets = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats(registry=registry, prefix=f"cache.{name}")

    def resident_addresses(self) -> list:
        """Byte address of every resident line, sorted."""
        return sorted(
            (tag * self.num_sets + set_index) * self.line_size
            for set_index, lines in enumerate(self.sets)
            for tag in lines
        )

    def __len__(self) -> int:
        return sum(len(lines) for lines in self.sets)
