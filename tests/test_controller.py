"""Tests for the baseline secure memory controller datapath."""

import numpy as np
import pytest

from repro.controller import (
    DataPoisonedError,
    IntegrityError,
    SecureMemoryController,
)

KB = 1024


@pytest.fixture
def ctrl():
    return SecureMemoryController(
        256 * KB, metadata_cache_bytes=4 * KB, rng=np.random.default_rng(7)
    )


def fill(ctrl, n=64, seed=0, stride=1):
    rng = np.random.default_rng(seed)
    written = {}
    for i in range(n):
        bi = (i * stride) % ctrl.num_data_blocks
        data = bytes(int(x) for x in rng.integers(0, 256, 64))
        ctrl.write(bi, data)
        written[bi] = data
    return written


class TestReadWrite:
    def test_roundtrip(self, ctrl):
        data = bytes(range(64))
        ctrl.write(0, data)
        assert ctrl.read(0).data == data

    def test_unwritten_block_reads_zero(self, ctrl):
        assert ctrl.read(10).data == bytes(64)

    def test_overwrite(self, ctrl):
        ctrl.write(3, b"\x01" * 64)
        ctrl.write(3, b"\x02" * 64)
        assert ctrl.read(3).data == b"\x02" * 64

    def test_many_blocks_roundtrip(self, ctrl):
        written = fill(ctrl, n=300, stride=17)
        for bi, data in written.items():
            assert ctrl.read(bi).data == data

    def test_roundtrip_survives_flush(self, ctrl):
        written = fill(ctrl, n=200, stride=11)
        ctrl.flush()
        for bi, data in written.items():
            assert ctrl.read(bi).data == data

    def test_data_encrypted_at_rest(self, ctrl):
        data = b"\xab" * 64
        ctrl.write(0, data)
        ctrl.flush()
        stored = ctrl.nvm.read_block(ctrl.amap.data_addr(0))
        assert stored != data

    def test_fast_mode_stores_plaintext_but_same_traffic(self):
        fast = SecureMemoryController(
            256 * KB,
            metadata_cache_bytes=4 * KB,
            functional_crypto=False,
            rng=np.random.default_rng(1),
        )
        slow = SecureMemoryController(
            256 * KB,
            metadata_cache_bytes=4 * KB,
            functional_crypto=True,
            rng=np.random.default_rng(1),
        )
        for c in (fast, slow):
            for i in range(100):
                c.write(i * 3 % c.num_data_blocks, bytes([i % 256]) * 64)
                c.read(i * 7 % c.num_data_blocks)
        assert fast.stats.nvm_writes_by_kind == slow.stats.nvm_writes_by_kind
        assert fast.stats.nvm_reads_by_kind == slow.stats.nvm_reads_by_kind

    def test_write_validates_length(self, ctrl):
        with pytest.raises(ValueError):
            ctrl.write(0, b"short")

    def test_cost_accounting(self, ctrl):
        cost = ctrl.write(0, bytes(64))
        # cipher + data MAC + shadow log: at least three posted writes.
        assert cost.posted_writes >= 3
        result = ctrl.read(0)
        assert result.cost.blocking_reads >= 0  # WPQ forwarding may hide it


class TestWriteTraffic:
    def test_baseline_three_writes_per_data_write(self, ctrl):
        """Paper Section 3.2.1: a secure recoverable write generates up
        to three writes — cipher, data MAC, shadow log."""
        fill(ctrl, n=200, stride=7)
        w = ctrl.stats.nvm_writes_by_kind
        assert w["data"] == 200
        assert w["mac"] == 200
        assert w["shadow"] >= 200  # plus eviction bumps and tombstones
        assert w.get("clone", 0) == 0  # baseline never clones

    def test_page_reencryption_on_minor_overflow(self, ctrl):
        # 127 increments fit in a 7-bit minor; the 128th overflows.
        for _ in range(127):
            ctrl.write(0, bytes(64))
        assert ctrl.stats.page_reencryptions == 0
        ctrl.write(0, bytes(64))
        assert ctrl.stats.page_reencryptions == 1
        assert ctrl.read(0).data == bytes(64)

    def test_reencrypted_page_neighbors_still_readable(self, ctrl):
        ctrl.write(1, b"\x11" * 64)  # same page as block 0
        for _ in range(128):
            ctrl.write(0, bytes(64))
        assert ctrl.stats.page_reencryptions == 1
        assert ctrl.read(1).data == b"\x11" * 64

    @pytest.mark.parametrize("scheme", ["src", "sac", "baseline"])
    @pytest.mark.parametrize("cache_bytes, ways", [(512, 2), (1 * KB, 1)])
    def test_reencryption_evicting_its_counter_block(self, scheme,
                                                     cache_bytes, ways):
        """A minor overflow whose re-encryption MAC-block fills evict
        the written counter block from a small metadata cache: the write
        completes, the lockstep oracle sees no divergence, and the block
        reads back the last value written."""
        from repro import make_controller
        from repro.verify import VerifySession

        ctrl = make_controller(
            scheme, 64 * KB, functional_crypto=True,
            metadata_cache_bytes=cache_bytes, metadata_ways=ways,
            rng=np.random.default_rng(1),
        )
        session = VerifySession(ctrl).attach()
        for block in range(64):
            ctrl.write(block, bytes([block]) * 64)
        for i in range(130):
            ctrl.write(5, bytes([i]) * 64)
        assert ctrl.stats.page_reencryptions == 1
        assert ctrl.read(5).data == bytes([129]) * 64
        report = session.finish()
        assert report["oracle"]["divergences"] == 0
        assert report["invariants"]["violations"] == 0

    def test_osiris_persist_bounds_counter_staleness(self, ctrl):
        for _ in range(ctrl.osiris_limit):
            ctrl.write(0, bytes(64))
        assert ctrl.stats.osiris_persists == 1
        # After the persist the NVM copy is current: its minor equals
        # the cached minor.
        from repro.counters import SplitCounterBlock

        ctrl.wpq.drain_all()
        raw = ctrl.nvm.read_block(ctrl.amap.node_addr(1, 0))
        stored = SplitCounterBlock.from_bytes(raw)
        assert stored.minors[0] == ctrl.osiris_limit


class TestEvictionBehavior:
    def test_evictions_tracked_by_level(self, ctrl):
        fill(ctrl, n=3000, stride=97)
        by_level = ctrl.stats.tree_evictions_by_level
        assert by_level.get(1, 0) > 0  # counter evictions dominate
        fractions = ctrl.stats.eviction_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        # Lazy update: leaf evictions outnumber any upper level.
        top = max(by_level)
        if top > 1:
            assert by_level[1] >= by_level[top]

    def test_evictions_per_request_small(self, ctrl):
        fill(ctrl, n=2000, stride=61)
        rate = ctrl.stats.evictions_per_request()
        # The 4kB test cache thrashes far more than the paper's 512kB
        # one; just check the metric is sane and nonzero.
        assert 0 < rate < 2.0

    def test_lazy_update_no_tree_writes_without_eviction(self):
        # Huge metadata cache: nothing ever evicts, so no tree writes.
        big = SecureMemoryController(
            64 * KB, metadata_cache_bytes=64 * KB, rng=np.random.default_rng(0)
        )
        fill(big, n=200, stride=3)
        assert big.stats.nvm_writes_by_kind.get("tree", 0) == 0
        assert big.stats.nvm_writes_by_kind.get("counter", 0) == 0


class TestIntegrityDetection:
    def test_tampered_data_detected(self, ctrl):
        ctrl.write(0, b"\x42" * 64)
        ctrl.flush()
        addr = ctrl.amap.data_addr(0)
        ctrl.nvm.flip_bits(addr, [0])
        with pytest.raises(IntegrityError):
            ctrl.read(0)
        assert ctrl.stats.integrity_failures == 1

    def test_poisoned_data_raises_data_error(self, ctrl):
        ctrl.write(0, bytes(64))
        ctrl.flush()
        ctrl.nvm.poison_block(ctrl.amap.data_addr(0))
        with pytest.raises(DataPoisonedError):
            ctrl.read(0)

    def test_corrupt_counter_block_detected_baseline(self, ctrl):
        written = fill(ctrl, n=500, stride=37)
        ctrl.flush()
        addr = ctrl.amap.node_addr(1, 0)
        assert ctrl.nvm.is_touched(addr)
        ctrl.nvm.flip_bits(addr, [5])
        with pytest.raises(IntegrityError):
            ctrl.read(0)

    def test_corrupt_tree_node_makes_children_unverifiable(self):
        ctrl = SecureMemoryController(
            256 * KB, metadata_cache_bytes=1 * KB, rng=np.random.default_rng(9)
        )
        fill(ctrl, n=2000, stride=31)
        ctrl.flush()
        # Corrupt a level-2 node that was actually written.
        target = None
        for i in range(ctrl.amap.level_sizes[1]):
            if ctrl.nvm.is_touched(ctrl.amap.node_addr(2, i)):
                target = i
                break
        assert target is not None
        ctrl.nvm.flip_bits(ctrl.amap.node_addr(2, target), [3])
        # Evict everything so the fetch goes through NVM again.
        ctrl2_image = ctrl.crash()
        # A fresh controller sharing the NVM must fail on that subtree.
        from repro.controller import SecureMemoryController as C

        fresh = C(
            256 * KB,
            nvm=ctrl2_image.nvm,
            metadata_cache_bytes=1 * KB,
            trusted=ctrl2_image.trusted,
        )
        child_counter = target * 8  # first child counter under the node
        covered = ctrl.amap.data_blocks_covered(2, target)
        with pytest.raises(IntegrityError):
            fresh.read(covered[0])

    def test_replayed_counter_block_detected(self, ctrl):
        """Capture an old (counter block, sidecar MAC) pair, advance the
        system, then replay both — the parent counter has moved on."""
        ctrl.write(0, b"\x01" * 64)
        ctrl.flush()
        counter_addr = ctrl.amap.node_addr(1, 0)
        sidecar_addr = ctrl.amap.counter_mac_addr(0)
        old_counter = ctrl.nvm.read_block(counter_addr)
        old_sidecar = ctrl.nvm.read_block(sidecar_addr)
        old_data = ctrl.nvm.read_block(ctrl.amap.data_addr(0))
        old_mac = ctrl.nvm.read_block(ctrl.amap.mac_addr(0))
        # Advance: write again and force eviction (flush reseals).
        ctrl.write(0, b"\x02" * 64)
        ctrl.flush()
        # Replay everything the attacker can capture off-chip.
        ctrl.nvm.write_block(counter_addr, old_counter)
        ctrl.nvm.write_block(sidecar_addr, old_sidecar)
        ctrl.nvm.write_block(ctrl.amap.data_addr(0), old_data)
        ctrl.nvm.write_block(ctrl.amap.mac_addr(0), old_mac)
        ctrl.metadata_cache.flush_all()  # drop trusted cached copies
        with pytest.raises(IntegrityError):
            ctrl.read(0)


class TestVictimQueue:
    def test_no_divergence_under_eviction_storm(self):
        """Regression: persisting a node used to allow a nested
        eviction to re-fetch that node's stale NVM copy, forking two
        divergent versions (and eventually an IntegrityError on a
        perfectly healthy system).  A long random write storm over a
        tiny metadata cache exercises exactly that interleaving."""
        ctrl = SecureMemoryController(
            1024 * KB, metadata_cache_bytes=4 * KB,
            rng=np.random.default_rng(7),
        )
        ctrl.write(0, b"x".ljust(64, b"\x00"))
        ctrl.read(0)
        ctrl.flush()
        rng = np.random.default_rng(1)
        for _ in range(4000):
            block = int(rng.integers(0, ctrl.num_data_blocks))
            ctrl.write(block, bytes(int(x) for x in rng.integers(0, 256, 64)))
        assert ctrl.verify_system() == []

    def test_victim_queue_empty_between_operations(self):
        ctrl = SecureMemoryController(
            256 * KB, metadata_cache_bytes=2 * KB,
            rng=np.random.default_rng(3),
        )
        rng = np.random.default_rng(5)
        for _ in range(500):
            ctrl.write(int(rng.integers(0, ctrl.num_data_blocks)), bytes(64))
            assert not ctrl._victims

    def test_reclaimed_victim_stays_recoverable(self):
        """A dirty victim pulled back from the queue must keep a live
        shadow entry: crash right after the storm and recover."""
        from repro.recovery import RecoveryManager

        ctrl = SecureMemoryController(
            256 * KB, metadata_cache_bytes=2 * KB,
            rng=np.random.default_rng(9),
        )
        rng = np.random.default_rng(10)
        expect = {}
        for _ in range(2000):
            block = int(rng.integers(0, ctrl.num_data_blocks))
            data = bytes(int(x) for x in rng.integers(0, 256, 64))
            ctrl.write(block, data)
            expect[block] = data
        recovered, __ = RecoveryManager(ctrl.crash()).recover()
        for block, data in expect.items():
            assert recovered.read(block).data == data


class TestVerifySystem:
    def test_clean_system_verifies(self, ctrl):
        fill(ctrl, n=100, stride=13)
        ctrl.flush()
        assert ctrl.verify_system() == []

    def test_verify_reports_corruption(self, ctrl):
        fill(ctrl, n=100, stride=13)
        ctrl.flush()
        ctrl.nvm.flip_bits(ctrl.amap.data_addr(0), [1])
        failures = ctrl.verify_system()
        assert len(failures) >= 1


class TestRekey:
    def test_data_survives_rekey(self, ctrl):
        written = fill(ctrl, n=300, stride=23)
        ctrl.rekey(rng=np.random.default_rng(99))
        for bi, data in written.items():
            assert ctrl.read(bi).data == data

    def test_ciphertext_changes_under_new_key(self, ctrl):
        ctrl.write(0, b"\x5a" * 64)
        ctrl.flush()
        before = ctrl.nvm.read_block(ctrl.amap.data_addr(0))
        ctrl.rekey(rng=np.random.default_rng(98))
        after = ctrl.nvm.read_block(ctrl.amap.data_addr(0))
        assert before != after
        assert ctrl.read(0).data == b"\x5a" * 64

    def test_counters_reset(self, ctrl):
        from repro.counters import SplitCounterBlock

        for _ in range(20):
            ctrl.write(0, bytes(64))
        ctrl.rekey(rng=np.random.default_rng(97))
        raw = ctrl.nvm.read_block(ctrl.amap.node_addr(1, 0))
        stored = SplitCounterBlock.from_bytes(raw)
        # One rewrite after the reset: minor counter is 1, not 21.
        assert stored.minors[0] <= ctrl.osiris_limit

    def test_old_captured_data_invalid_after_rekey(self, ctrl):
        """An attacker's pre-rekey snapshot cannot be replayed: the new
        MAC key rejects it."""
        ctrl.write(0, b"\x01" * 64)
        ctrl.flush()
        old_data = ctrl.nvm.read_block(ctrl.amap.data_addr(0))
        old_mac = ctrl.nvm.read_block(ctrl.amap.mac_addr(0))
        ctrl.rekey(rng=np.random.default_rng(96))
        ctrl.nvm.write_block(ctrl.amap.data_addr(0), old_data)
        ctrl.nvm.write_block(ctrl.amap.mac_addr(0), old_mac)
        ctrl.metadata_cache.flush_all()
        ctrl.wpq.drain_all()
        with pytest.raises(IntegrityError):
            ctrl.read(0)

    def test_rekey_cost_scales_with_footprint(self, ctrl):
        fill(ctrl, n=200, stride=17)
        cost = ctrl.rekey(rng=np.random.default_rng(95))
        # Every written block is read once and rewritten once, plus
        # metadata traffic: a whole-memory operation.
        assert cost.posted_writes >= 200 * 2

    def test_crash_recovery_works_after_rekey(self, ctrl):
        from repro.recovery import RecoveryManager

        written = fill(ctrl, n=150, stride=29)
        ctrl.rekey(rng=np.random.default_rng(94))
        ctrl.write(0, b"\x77" * 64)
        written[0] = b"\x77" * 64
        recovered, __ = RecoveryManager(ctrl.crash()).recover()
        for bi, data in written.items():
            assert recovered.read(bi).data == data


class TestRequestValidation:
    """A request is checked once, before any counter moves: a refused
    request leaves every instrument where it was."""

    @pytest.mark.parametrize("op, block, size, error", [
        ("read", "past-end", None, IndexError),
        ("read", -1, None, IndexError),
        ("write", "past-end", 64, IndexError),
        ("write", -1, 64, IndexError),
        ("write", 0, 63, ValueError),
    ])
    def test_refused_request_moves_no_counter(self, op, block, size, error):
        from repro.sim import SecureSystem, SystemConfig

        system = SecureSystem("sac", SystemConfig.scaled(32))
        ctrl = system.controller
        ctrl.write(3, b"\x01" * 64)
        ctrl.read(3)
        if block == "past-end":
            block = ctrl.num_data_blocks
        before = system.registry.snapshot()
        with pytest.raises(error):
            if op == "read":
                ctrl.read(block)
            else:
                ctrl.write(block, bytes(size))
        assert system.registry.snapshot() == before

    def test_index_error_names_the_range(self, ctrl):
        with pytest.raises(
            IndexError, match=r"data block index 4096 out of range \[0, 4096\)"
        ):
            ctrl.read(4096)


class TestConstruction:
    def test_nvm_capacity_validated(self):
        from repro.memory import NvmDevice

        small = NvmDevice(capacity_bytes=64 * KB)
        with pytest.raises(ValueError):
            SecureMemoryController(256 * KB, nvm=small)

    def test_shadow_entries_match_cache_slots(self, ctrl):
        assert ctrl.amap.shadow_entries == ctrl.metadata_cache.num_slots

    def test_trusted_state_reuse_preserves_keys(self, ctrl):
        ctrl.write(0, b"\x07" * 64)
        ctrl.flush()  # clean shutdown: no recovery needed
        image = ctrl.crash()
        clone = SecureMemoryController(
            256 * KB,
            nvm=image.nvm,
            metadata_cache_bytes=4 * KB,
            trusted=image.trusted,
        )
        assert clone.read(0).data == b"\x07" * 64
