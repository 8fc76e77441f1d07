"""Tests for the generic cache, CPU hierarchy, and metadata cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheHierarchy,
    LevelConfig,
    MetadataCache,
    SetAssociativeCache,
)
from repro.cache.metadata_cache import MetadataCacheStats, MetadataEviction


class TestSetAssociativeCache:
    @pytest.fixture
    def cache(self):
        # 4 sets x 2 ways x 64B = 512B
        return SetAssociativeCache(size_bytes=512, ways=2)

    def test_miss_then_hit(self, cache):
        hit, ev = cache.access(0)
        assert not hit and ev is None
        hit, ev = cache.access(0)
        assert hit

    def test_unaligned_access_maps_to_line(self, cache):
        cache.access(0)
        hit, _ = cache.access(63)
        assert hit

    def test_lru_eviction(self, cache):
        # Addresses 0, 256, 512 share set 0 (4 sets * 64B stride = 256B).
        cache.access(0)
        cache.access(256)
        cache.access(0)      # make 256 the LRU
        hit, ev = cache.access(512)
        assert not hit
        assert ev is not None and ev.address == 256

    def test_dirty_eviction_flagged(self, cache):
        cache.access(0, is_write=True)
        cache.access(256)
        _, ev = cache.access(512)
        assert ev.address == 0 and ev.dirty

    def test_write_hit_sets_dirty(self, cache):
        cache.access(0)
        cache.access(0, is_write=True)
        ev = cache.invalidate(0)
        assert ev.dirty

    def test_payload_stored_and_updated(self, cache):
        cache.access(0, payload="v1")
        assert cache.peek(0) == "v1"
        cache.update_payload(0, "v2")
        assert cache.peek(0) == "v2"
        with pytest.raises(KeyError):
            cache.update_payload(64, "x")

    def test_flush_all(self, cache):
        cache.access(0, is_write=True)
        cache.access(64)
        evs = cache.flush_all()
        assert len(evs) == 2
        assert len(cache) == 0

    def test_stats(self, cache):
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert 0 < cache.stats.miss_rate < 1

    def test_address_roundtrip(self, cache):
        for addr in (0, 64, 256, 1024, 4096):
            s, t = cache.set_index(addr), cache.tag_of(addr)
            assert cache.address_of(s, t) == addr

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=100, ways=2)
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=0, ways=2)

    def test_writebacks_track_dirty_evictions(self, cache):
        """Pinned semantics: ``writebacks`` counts dirty victims pushed
        out on the access path, in lockstep with ``dirty_evictions``
        (regression: the counter used to be dead, never incremented)."""
        cache.access(0, is_write=True)
        cache.access(256)
        cache.access(512)            # evicts dirty 0 -> writeback
        assert cache.stats.writebacks == 1
        assert cache.stats.dirty_evictions == 1
        cache.access(768)            # evicts clean 256 -> no writeback
        assert cache.stats.writebacks == 1
        # Explicit drops (invalidate/flush) hand the dirty line to the
        # caller; they are not counted as this cache's writebacks.
        cache.access(0, is_write=True)
        cache.invalidate(0)
        cache.access(64, is_write=True)
        cache.flush_all()
        assert cache.stats.writebacks == cache.stats.dirty_evictions

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
        max_size=300,
    ))
    def test_property_writebacks_equal_dirty_evictions(self, ops):
        cache = SetAssociativeCache(size_bytes=512, ways=2)
        for block, is_write in ops:
            cache.access(block * 64, is_write=is_write)
        assert cache.stats.writebacks == cache.stats.dirty_evictions

    @settings(max_examples=30, deadline=None)
    @given(addrs=st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    def test_property_occupancy_bounded(self, addrs):
        cache = SetAssociativeCache(size_bytes=512, ways=2)
        for a in addrs:
            cache.access(a * 64)
        assert len(cache) <= 8  # 4 sets x 2 ways

    @settings(max_examples=30, deadline=None)
    @given(addrs=st.lists(st.integers(min_value=0, max_value=31), max_size=100))
    def test_property_recent_line_always_resident(self, addrs):
        cache = SetAssociativeCache(size_bytes=512, ways=2)
        for a in addrs:
            cache.access(a * 64)
            assert cache.contains(a * 64)


class TestCacheHierarchy:
    @pytest.fixture
    def hierarchy(self):
        levels = (
            LevelConfig("L1", 256, 2, 2),
            LevelConfig("L2", 1024, 4, 10),
        )
        return CacheHierarchy(levels=levels)

    def test_first_access_misses_to_memory(self, hierarchy):
        res = hierarchy.access(0, is_write=False)
        assert res.hit_level == "memory"
        assert res.memory_read
        assert res.latency_cycles == 12

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.access(0, is_write=False)
        res = hierarchy.access(0, is_write=False)
        assert res.hit_level == "L1"
        assert res.latency_cycles == 2
        assert not res.memory_read

    def test_l2_hit_promotes_to_l1(self, hierarchy):
        hierarchy.access(0, is_write=False)
        # Evict 0 from tiny L1 (2 sets x 2 ways) with conflicting lines.
        for addr in (128, 256, 384):
            hierarchy.access(addr, is_write=False)
        res = hierarchy.access(0, is_write=False)
        assert res.hit_level in ("L1", "L2")
        res2 = hierarchy.access(0, is_write=False)
        assert res2.hit_level == "L1"

    def test_dirty_llc_eviction_produces_writeback(self):
        levels = (LevelConfig("LLC", 128, 1, 5),)  # 2 sets x 1 way
        h = CacheHierarchy(levels=levels)
        h.access(0, is_write=True)
        res = h.access(128, is_write=False)  # same set, evicts dirty 0
        assert 0 in res.writebacks

    def test_flush_dirty(self, hierarchy):
        hierarchy.access(0, is_write=True)
        dirty = hierarchy.flush_dirty()
        assert 0 in dirty

    def test_requires_levels(self):
        with pytest.raises(ValueError):
            CacheHierarchy(levels=())


class TestMetadataCache:
    @pytest.fixture
    def mcache(self):
        # 2 sets x 2 ways
        return MetadataCache(size_bytes=256, ways=2)

    def test_miss_returns_none_and_counts(self, mcache):
        assert mcache.get(0) is None
        assert mcache.stats.misses == 1

    def test_fill_then_get(self, mcache):
        assert mcache.fill(0, "counter-block") is None
        assert mcache.get(0) == "counter-block"
        assert mcache.stats.hits == 1

    def test_fill_existing_updates_in_place(self, mcache):
        mcache.fill(0, "v1")
        assert mcache.fill(0, "v2", dirty=True) is None
        assert mcache.peek(0) == "v2"
        assert len(mcache) == 1

    def test_eviction_on_conflict(self, mcache):
        # Set stride: 2 sets -> addresses 0 and 128 share set 0.
        mcache.fill(0, "a")
        mcache.fill(128, "b")
        ev = mcache.fill(256, "c")
        assert ev is not None
        assert ev.address == 0  # LRU
        assert ev.payload == "a"
        assert ev.set_index == 0

    def test_lru_respects_get_touch(self, mcache):
        mcache.fill(0, "a")
        mcache.fill(128, "b")
        mcache.get(0)  # touch
        ev = mcache.fill(256, "c")
        assert ev.address == 128

    def test_dirty_tracking(self, mcache):
        mcache.fill(0, "a")
        mcache.mark_dirty(0)
        mcache.fill(128, "b")
        ev = mcache.fill(256, "c")
        assert ev.dirty
        assert mcache.stats.dirty_evictions == 1
        with pytest.raises(KeyError):
            mcache.mark_dirty(999 * 64)

    def test_slot_identity_stable(self, mcache):
        mcache.fill(0, "a")
        loc1 = mcache.location_of(0)
        mcache.get(0)
        mcache.fill(128, "b")
        assert mcache.location_of(0) == loc1
        assert mcache.slot_id(*loc1) == loc1[0] * 2 + loc1[1]

    def test_invalidate(self, mcache):
        mcache.fill(0, "a", dirty=True)
        rec = mcache.invalidate(0)
        assert rec.dirty and rec.payload == "a"
        assert mcache.invalidate(0) is None
        assert len(mcache) == 0

    def test_flush_all_returns_everything(self, mcache):
        mcache.fill(0, "a", dirty=True)
        mcache.fill(64, "b")
        records = mcache.flush_all()
        assert len(records) == 2
        assert len(mcache) == 0

    def test_resident_listing(self, mcache):
        mcache.fill(64, "b")
        mcache.fill(0, "a", dirty=True)
        assert mcache.resident() == [(0, "a", True), (64, "b", False)]

    def test_alignment_enforced(self, mcache):
        with pytest.raises(ValueError):
            mcache.fill(3, "x")

    def test_num_slots(self, mcache):
        assert mcache.num_slots == 4

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
        max_size=200,
    ))
    def test_property_fill_makes_resident(self, ops):
        mcache = MetadataCache(size_bytes=256, ways=2)
        for block, dirty in ops:
            addr = block * 64
            mcache.fill(addr, block, dirty=dirty)
            assert mcache.contains(addr)
            assert len(mcache) <= 4


class _LinearScanMetadataCache:
    """Reference implementation: the pre-dict-index linear-scan cache,
    with a global access clock, per-slot stamps, and a ``min(stamp)``
    victim scan.

    Anubis' shadow table mirrors the metadata cache's (set, way) slots
    one-to-one, so the dict-backed, recency-ordered rewrite must assign
    slots, choose LRU victims, and emit eviction records *identically*
    to this code on any access sequence.
    """

    class _Slot:
        __slots__ = ("address", "payload", "dirty", "stamp")

        def __init__(self):
            self.address = None
            self.payload = None
            self.dirty = False
            self.stamp = 0

    def __init__(self, size_bytes, ways, line_size=64):
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        self._sets = [
            [self._Slot() for _ in range(ways)] for _ in range(self.num_sets)
        ]
        self._clock = 0
        self.stats = MetadataCacheStats()

    def set_index(self, address):
        return (address // self.line_size) % self.num_sets

    def _find(self, address):
        set_idx = self.set_index(address)
        for way, slot in enumerate(self._sets[set_idx]):
            if slot.address == address:
                return set_idx, way, slot
        return set_idx, None, None

    def get(self, address):
        self._clock += 1
        __, __, slot = self._find(address)
        if slot is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        slot.stamp = self._clock
        return slot.payload

    def location_of(self, address):
        set_idx, way, slot = self._find(address)
        return (set_idx, way) if slot is not None else None

    def fill(self, address, payload, dirty=False):
        self._clock += 1
        set_idx, way, slot = self._find(address)
        if slot is not None:
            slot.payload = payload
            slot.dirty = slot.dirty or dirty
            slot.stamp = self._clock
            return None
        slots = self._sets[set_idx]
        victim_way, victim = None, None
        for w, s in enumerate(slots):
            if s.address is None:
                victim_way, victim = w, s
                break
        eviction = None
        if victim is None:
            victim_way, victim = min(
                enumerate(slots), key=lambda pair: pair[1].stamp
            )
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            eviction = MetadataEviction(
                address=victim.address,
                payload=victim.payload,
                dirty=victim.dirty,
                set_index=set_idx,
                way=victim_way,
            )
        victim.address = address
        victim.payload = payload
        victim.dirty = dirty
        victim.stamp = self._clock
        return eviction

    def mark_dirty(self, address):
        self._find(address)[2].dirty = True

    def mark_clean(self, address):
        self._find(address)[2].dirty = False

    def invalidate(self, address):
        set_idx, way, slot = self._find(address)
        if slot is None:
            return None
        record = MetadataEviction(
            address=slot.address, payload=slot.payload, dirty=slot.dirty,
            set_index=set_idx, way=way,
        )
        slot.address = None
        slot.payload = None
        slot.dirty = False
        slot.stamp = 0
        return record

    def flush_all(self):
        records = []
        for set_idx, slots in enumerate(self._sets):
            for way, slot in enumerate(slots):
                if slot.address is None:
                    continue
                records.append(MetadataEviction(
                    address=slot.address, payload=slot.payload,
                    dirty=slot.dirty, set_index=set_idx, way=way,
                ))
                slot.address = None
                slot.payload = None
                slot.dirty = False
                slot.stamp = 0
        return records

    def resident(self):
        out = []
        for slots in self._sets:
            out.extend(
                (s.address, s.payload, s.dirty)
                for s in slots if s.address is not None
            )
        return sorted(out, key=lambda t: t[0])


class TestMetadataCacheSlotStability:
    """Property: the dict-backed cache is observationally identical to
    the linear-scan reference on randomized traces — (set, way)/slot_id
    assignments, LRU victim choice, eviction records, and stats — across
    gets, fills, refills of resident blocks, invalidations and whole-
    cache flushes."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("ways,size", [(2, 256), (4, 1024), (8, 4096)])
    def test_randomized_trace_equivalence(self, seed, ways, size):
        rng = np.random.default_rng(seed)
        fast = MetadataCache(size_bytes=size, ways=ways)
        reference = _LinearScanMetadataCache(size, ways)
        # More distinct blocks than slots so evictions are frequent.
        num_blocks = 4 * fast.num_slots
        resident = set()
        for step in range(3000):
            address = int(rng.integers(0, num_blocks)) * 64
            op = rng.random()
            if op < 0.4:
                assert fast.get(address) == reference.get(address)
            elif op < 0.75:
                dirty = bool(rng.random() < 0.5)
                got = fast.fill(address, step, dirty=dirty)
                want = reference.fill(address, step, dirty=dirty)
                assert got == want  # same victim slot, payload, dirty bit
                if want is not None:
                    assert (got.set_index, got.way) == (
                        want.set_index, want.way)
                    resident.discard(want.address)
                resident.add(address)
            elif op < 0.82 and resident:
                # Refill of a resident block: updated in place, made
                # most recently used, nothing evicted.
                target = sorted(resident)[int(rng.integers(0, len(resident)))]
                dirty = bool(rng.random() < 0.5)
                assert fast.fill(target, step, dirty=dirty) is None
                assert reference.fill(target, step, dirty=dirty) is None
            elif op < 0.86 and resident:
                target = min(resident)
                fast.mark_dirty(target)
                reference.mark_dirty(target)
            elif op < 0.93:
                got = fast.invalidate(address)
                want = reference.invalidate(address)
                assert got == want
                resident.discard(address)
            elif op < 0.94:
                assert fast.flush_all() == reference.flush_all()
                resident.clear()
            else:
                assert fast.location_of(address) == reference.location_of(
                    address
                )
            # The shadow table's view: every resident block occupies the
            # exact same (set, way) slot in both implementations.
            for target in resident:
                location = fast.location_of(target)
                assert location == reference.location_of(target)
                assert fast.slot_id(*location) == (
                    location[0] * ways + location[1]
                )
        assert fast.resident() == reference.resident()
        assert fast.stats == reference.stats
        assert len(fast) == len(resident)
