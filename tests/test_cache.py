"""Tests for the CPU caches, their hierarchy, and the metadata cache.

The CPU caches have one driver, the batch engine, so their tests run
hand-written reference traces through ``SecureSystem.run`` on tiny
hierarchies and read the caches' counters and residency afterwards.
"""

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
from repro.sim import SecureSystem, SystemConfig
from repro.workloads.trace import Trace


def _trace(refs):
    """Hand-written ``(byte address, is_write)`` references as a
    workload, with no instructions between them."""
    return Trace(
        "hand-written", [(address, write, 0) for address, write in refs]
    ).as_workload()


def _reads(*addresses):
    return [(address, False) for address in addresses]


def _system(levels):
    """A 1 MB baseline system whose CPU caches are ``levels``."""
    return SecureSystem(
        "baseline",
        config=SystemConfig(cache_levels=levels, memory_bytes=1 << 20),
        rng=np.random.default_rng(0),
    )


def _run(levels, refs):
    """Run ``_trace(refs)`` through ``_system(levels)``; returns the
    system and its ``SimResult``."""
    system = _system(levels)
    return system, system.run(_trace(refs))


class TestSetAssociativeCache:
    """One cache level, which is also the last: 4 sets x 2 ways x 64 B.
    Addresses 0, 256, 512 and 768 share set 0."""

    LEVELS = (LevelConfig("LLC", 512, 2, 5),)

    def _llc_after(self, refs):
        """The controller's stats and the cache after running ``refs``."""
        system, _ = _run(self.LEVELS, refs)
        return system.controller.stats, system.hierarchy.llc

    def test_miss_then_hit(self):
        controller, cache = self._llc_after(_reads(0, 0))
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        assert cache.stats.evictions == 0
        assert controller.data_reads == 1

    def test_unaligned_access_maps_to_line(self):
        _, cache = self._llc_after(_reads(0, 63))
        assert cache.stats.hits == 1
        assert cache.resident_addresses() == [0]

    def test_lru_eviction(self):
        _, cache = self._llc_after(_reads(0, 256, 0, 512))  # 256 is the LRU
        assert cache.stats.evictions == 1
        assert cache.resident_addresses() == [0, 512]

    def test_dirty_eviction_flagged(self):
        controller, cache = self._llc_after([(0, True)] + _reads(256, 512))
        assert cache.stats.dirty_evictions == 1
        assert cache.resident_addresses() == [256, 512]
        assert controller.data_writes == 1

    def test_write_hit_sets_dirty(self):
        controller, cache = self._llc_after(
            _reads(0) + [(0, True)] + _reads(256, 512)
        )
        assert cache.stats.hits == 1
        assert cache.stats.dirty_evictions == 1
        assert controller.data_writes == 1

    def test_stats(self):
        _, cache = self._llc_after(_reads(0, 0, 64))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert 0 < cache.stats.miss_rate < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=100, ways=2)
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=0, ways=2)

    def test_writebacks_track_dirty_evictions(self):
        """Pinned semantics: ``writebacks`` counts dirty victims, in
        lockstep with ``dirty_evictions`` (regression: the counter used
        to be dead, never incremented)."""
        controller, cache = self._llc_after(
            [(0, True)] + _reads(256, 512)   # evicts dirty 0
            + _reads(768)                    # evicts clean 256
        )
        assert cache.stats.evictions == 2
        assert cache.stats.writebacks == cache.stats.dirty_evictions == 1
        assert controller.data_writes == 1

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
        min_size=20, max_size=300,
    ))
    def test_property_writebacks_equal_dirty_evictions(self, ops):
        controller, cache = self._llc_after(
            [(block * 64, write) for block, write in ops]
        )
        assert cache.stats.writebacks == cache.stats.dirty_evictions
        assert controller.data_writes == cache.stats.dirty_evictions

    @settings(max_examples=30, deadline=None)
    @given(blocks=st.lists(
        st.integers(min_value=0, max_value=63), min_size=20, max_size=200,
    ))
    def test_property_occupancy_bounded(self, blocks):
        _, cache = self._llc_after(_reads(*(block * 64 for block in blocks)))
        assert all(len(lines) <= cache.ways for lines in cache.sets)
        assert len(cache) <= 8  # 4 sets x 2 ways
        assert len(cache) == len(cache.resident_addresses())

    @settings(max_examples=30, deadline=None)
    @given(blocks=st.lists(
        st.integers(min_value=0, max_value=31), min_size=1, max_size=100,
    ))
    def test_property_recent_line_always_resident(self, blocks):
        _, cache = self._llc_after(_reads(*(block * 64 for block in blocks)))
        assert blocks[-1] * 64 in cache.resident_addresses()


class TestCacheHierarchy:
    """L1: 2 sets x 2 ways; L2: 4 sets x 4 ways.  Addresses 0, 128, 256
    and 384 share L1's set 0 and fall in L2's sets 0 and 2."""

    LEVELS = (
        LevelConfig("L1", 256, 2, 2),
        LevelConfig("L2", 1024, 4, 10),
    )

    def test_first_access_misses_to_memory(self):
        system, _ = _run(self.LEVELS, _reads(0))
        l1, l2 = system.hierarchy.caches
        assert l1.stats.misses == l2.stats.misses == 1
        assert system.controller.stats.data_reads == 1

    def test_second_access_hits_l1(self):
        _, once = _run(self.LEVELS, _reads(0))
        system, twice = _run(self.LEVELS, _reads(0, 0))
        l1, l2 = system.hierarchy.caches
        assert l1.stats.hits == 1
        assert l2.stats.accesses == 1
        assert system.controller.stats.data_reads == 1
        # The repeat is charged L1's 2 cycles and nothing else.
        assert twice.cpu_cycles - once.cpu_cycles == 2

    def test_l2_hit_promotes_to_l1(self):
        # 128, 256 and 384 push 0 out of L1's set 0; L2 keeps it.
        system, _ = _run(self.LEVELS, _reads(0, 128, 256, 384, 0, 0))
        l1, l2 = system.hierarchy.caches
        assert l2.stats.hits == 1
        assert l1.stats.hits == 1
        assert 0 in l1.resident_addresses()
        assert system.controller.stats.data_reads == 4

    def test_dirty_llc_eviction_produces_writeback(self):
        system = _system((LevelConfig("LLC", 128, 1, 5),))  # 2 sets x 1 way
        written = []
        system.tracer.subscribe("data_write", lambda e: written.append(e.block))
        system.run(_trace([(0, True)] + _reads(128)))  # 128 evicts dirty 0
        assert written == [0]
        assert system.controller.stats.data_writes == 1
        assert system.hierarchy.llc.resident_addresses() == [128]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: dirty L1/L2 victims are dropped, not written "
        "into the next level"
    ))
    def test_dirty_l1_victim_is_written_back(self):
        """A store reaches memory whether it missed or hit L1.  L1 is
        one line and L2 one set of 4 ways, so 7 conflicting reads push
        block 0 out of both levels."""
        levels = (LevelConfig("L1", 64, 1, 2), LevelConfig("L2", 256, 4, 10))
        conflicting = _reads(*range(64, 8 * 64, 64))
        write_miss, _ = _run(levels, [(0, True)] + conflicting)
        assert write_miss.controller.stats.data_writes == 1
        write_hit, _ = _run(levels, _reads(0) + [(0, True)] + conflicting)
        assert write_hit.controller.stats.data_writes == 1

    @settings(max_examples=50, deadline=None)
    @given(refs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
        min_size=1, max_size=200,
    ))
    def test_property_counters_and_residency(self, refs):
        """On any trace the counters agree with each other and with the
        controller's traffic, no set overflows, and the line referenced
        last is in L1."""
        system, _ = _run(
            self.LEVELS, [(block * 64, write) for block, write in refs]
        )
        caches = system.hierarchy.caches
        for cache in caches:
            assert cache.stats.writebacks == cache.stats.dirty_evictions
            assert len(cache) <= cache.num_sets * cache.ways
        assert refs[-1][0] * 64 in caches[0].resident_addresses()
        assert caches[0].stats.accesses == len(refs)
        controller = system.controller.stats
        assert controller.data_reads == system.hierarchy.llc.stats.misses
        assert controller.data_writes == (
            system.hierarchy.llc.stats.dirty_evictions
        )

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

    def test_mark_dirty_returns_the_slot_id(self, mcache):
        """The shadow table is addressed by the id ``mark_dirty``
        returns: it is the slot ``location_of`` names."""
        addresses = (0, 64, 128, 192)     # sets 0, 1, 0, 1: every slot
        for address in addresses:
            mcache.fill(address, "x")
        ids = set()
        for address in addresses:
            slot_id = mcache.mark_dirty(address)
            assert slot_id == mcache.slot_id(*mcache.location_of(address))
            assert mcache.is_dirty(address)
            ids.add(slot_id)
        assert ids == set(range(mcache.num_slots))

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
                assert fast.mark_dirty(target) == fast.slot_id(
                    *reference.location_of(target))
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
