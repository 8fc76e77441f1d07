"""The volatile security-metadata cache (Table 3: 512kB, 8-way).

Unlike the CPU hierarchy this cache stores *live payloads* — counter
blocks and ToC nodes — because the lazy-update scheme mutates nodes in
the cache and only persists them on eviction.  It also exposes stable
(set, way) slots: Anubis' shadow table mirrors the cache organization,
one shadow entry per cache slot, so the controller needs to know
exactly which slot a metadata block occupies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import CacheCounters
from repro.constants import CACHELINE_BYTES


@dataclass(slots=True)
class MetadataEviction:
    """A metadata block pushed out of the cache."""

    address: int
    payload: object
    dirty: bool
    set_index: int
    way: int


class MetadataCacheStats(CacheCounters):
    """Metadata-cache counters (``metadata_cache.*``) as a thin view
    over registry instruments.

    Field names match the historical dataclass so consumers (and the
    linear-scan reference implementation in the tests) are unchanged.
    """

    PREFIX = "metadata_cache"

    _HELP = {
        "hits": "metadata lookups served from the cache",
        "misses": "metadata lookups that required an NVM fetch",
        "evictions": "metadata blocks displaced by fills",
        "dirty_evictions": "displaced blocks needing lazy-update writeback",
    }


class _Slot:
    __slots__ = ("address", "payload", "dirty", "way")

    def __init__(self, way: int = 0):
        self.address = None
        self.payload = None
        self.dirty = False
        self.way = way


class MetadataCache:
    """Set-associative LRU cache of metadata payloads with fixed ways.

    Lookup is dict-backed (one address->slot map per set) so the hot
    ``get``/``fill`` path is O(1) instead of an O(ways) tag scan, while
    the slot objects themselves stay fixed: a block's (set, way) — and
    hence its ``slot_id`` for the shadow table — is identical to the
    linear-scan implementation on any access sequence.  Each set's map
    is kept in recency order (a touch moves the entry to the end), so
    the LRU victim is simply its first key.
    """

    def __init__(
        self,
        size_bytes: int = 512 * 1024,
        ways: int = 8,
        line_size: int = CACHELINE_BYTES,
        registry=None,
    ):
        if size_bytes % (ways * line_size) != 0:
            raise ValueError("size must be a multiple of ways * line_size")
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        self._sets = [
            [_Slot(way) for way in range(ways)] for _ in range(self.num_sets)
        ]
        # Per-set tag index: address -> occupied _Slot, least recently
        # used first.
        self._index = [{} for _ in range(self.num_sets)]
        self.stats = MetadataCacheStats(registry=registry)
        # Hot-loop hoists: direct instrument references keep get/fill at
        # plain-attribute-store cost.
        self._st_hits = self.stats._hits
        self._st_misses = self.stats._misses
        self._st_evictions = self.stats._evictions
        self._st_dirty_evictions = self.stats._dirty_evictions

    @property
    def num_slots(self) -> int:
        return self.num_sets * self.ways

    def set_index(self, address: int) -> int:
        return (address // self.line_size) % self.num_sets

    def slot_id(self, set_index: int, way: int) -> int:
        """Flat slot index used to address the shadow table."""
        return set_index * self.ways + way

    def _find(self, address: int):
        set_idx = (address // self.line_size) % self.num_sets
        slot = self._index[set_idx].get(address)
        if slot is None:
            return set_idx, None, None
        return set_idx, slot.way, slot

    def contains(self, address: int) -> bool:
        return self._find(address)[2] is not None

    def get(self, address: int):
        """Payload for a resident block (LRU-touch), or None on miss.

        Hit/miss statistics are recorded here: every metadata lookup
        goes through ``get`` before the controller decides to fill.
        """
        index = self._index[(address // self.line_size) % self.num_sets]
        slot = index.pop(address, None)
        if slot is None:
            self._st_misses.n += 1
            return None
        index[address] = slot
        self._st_hits.n += 1
        return slot.payload

    def peek(self, address: int):
        """Payload without LRU-touch or stats; None when absent."""
        return getattr(self._find(address)[2], "payload", None)

    def location_of(self, address: int):
        """(set, way) of a resident block, or None."""
        set_idx, way, slot = self._find(address)
        return (set_idx, way) if slot is not None else None

    def fill(self, address: int, payload: object, dirty: bool = False):
        """Insert a block, evicting the set's LRU victim if needed.

        Returns the :class:`MetadataEviction` (or None).  Filling an
        already-resident address updates it in place.
        """
        if address % self.line_size != 0:
            raise ValueError(f"address {address:#x} not line-aligned")
        set_idx = (address // self.line_size) % self.num_sets
        index = self._index[set_idx]
        slot = index.pop(address, None)
        if slot is not None:
            index[address] = slot
            slot.payload = payload
            slot.dirty = slot.dirty or dirty
            return None

        eviction = None
        if len(index) < self.ways:
            # The lowest free way, as the linear-scan cache picks it.
            victim = next(s for s in self._sets[set_idx] if s.address is None)
        else:
            victim = index.pop(next(iter(index)))
            self._st_evictions.n += 1
            if victim.dirty:
                self._st_dirty_evictions.n += 1
            eviction = MetadataEviction(
                address=victim.address,
                payload=victim.payload,
                dirty=victim.dirty,
                set_index=set_idx,
                way=victim.way,
            )
        victim.address = address
        victim.payload = payload
        victim.dirty = dirty
        index[address] = victim
        return eviction

    def mark_dirty(self, address: int) -> int:
        """Set a resident block's dirty bit; returns its
        :meth:`slot_id`, the shadow-table slot the caller updates next."""
        set_idx = (address // self.line_size) % self.num_sets
        slot = self._index[set_idx].get(address)
        if slot is None:
            raise KeyError(f"address {address:#x} not resident")
        slot.dirty = True
        return set_idx * self.ways + slot.way

    def mark_clean(self, address: int) -> None:
        """Clear the dirty bit after an in-place persist (no eviction)."""
        __, __, slot = self._find(address)
        if slot is None:
            raise KeyError(f"address {address:#x} not resident")
        slot.dirty = False

    def is_dirty(self, address: int) -> bool:
        slot = self._find(address)[2]
        return slot is not None and slot.dirty

    def invalidate(self, address: int):
        """Drop a block (no writeback); returns its eviction record."""
        set_idx, way, slot = self._find(address)
        if slot is None:
            return None
        record = MetadataEviction(
            address=slot.address,
            payload=slot.payload,
            dirty=slot.dirty,
            set_index=set_idx,
            way=way,
        )
        del self._index[set_idx][slot.address]
        slot.address = None
        slot.payload = None
        slot.dirty = False
        return record

    def flush_all(self):
        """Evict everything; returns records for all resident blocks."""
        records = []
        for set_idx, slots in enumerate(self._sets):
            for way, slot in enumerate(slots):
                if slot.address is None:
                    continue
                records.append(
                    MetadataEviction(
                        address=slot.address,
                        payload=slot.payload,
                        dirty=slot.dirty,
                        set_index=set_idx,
                        way=way,
                    )
                )
                slot.address = None
                slot.payload = None
                slot.dirty = False
            self._index[set_idx].clear()
        return records

    def resident(self):
        """All resident (address, payload, dirty) triples."""
        out = []
        for slots in self._sets:
            out.extend(
                (s.address, s.payload, s.dirty)
                for s in slots
                if s.address is not None
            )
        return sorted(out, key=lambda t: t[0])

    def __len__(self) -> int:
        return sum(
            1 for slots in self._sets for s in slots if s.address is not None
        )
