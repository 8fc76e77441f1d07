"""Tests for Start-Gap wear leveling and NVM endurance accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import NvmDevice, StartGapRemapper, WearLevelingNvm

KB = 1024


class TestEnduranceAccounting:
    def test_per_block_write_counts(self):
        nvm = NvmDevice(capacity_bytes=64 * KB)
        for _ in range(5):
            nvm.write_block(0, bytes(64))
        nvm.write_block(64, bytes(64))
        assert nvm.write_count_of(0) == 5
        assert nvm.write_count_of(64) == 1
        assert nvm.write_count_of(128) == 0

    def test_wear_stats(self):
        nvm = NvmDevice(capacity_bytes=64 * KB)
        assert nvm.wear_stats()["written_blocks"] == 0
        for _ in range(10):
            nvm.write_block(0, bytes(64))
        nvm.write_block(64, bytes(64))
        stats = nvm.wear_stats()
        assert stats["max"] == 10
        assert stats["written_blocks"] == 2
        assert 0 < stats["uniformity"] < 1


class TestStartGapRemapper:
    def test_initial_identity_mapping(self):
        remap = StartGapRemapper(num_lines=8)
        assert [remap.physical_of(i) for i in range(8)] == list(range(8))

    def test_mapping_is_always_a_bijection(self):
        remap = StartGapRemapper(num_lines=8, psi=1)
        for _ in range(100):
            physicals = [remap.physical_of(i) for i in range(8)]
            assert len(set(physicals)) == 8
            assert remap.gap not in physicals
            remap.note_write()

    def test_gap_walks_and_start_advances(self):
        remap = StartGapRemapper(num_lines=4, psi=1)
        assert remap.gap == 4
        # 5 moves = one full rotation over 5 slots.
        for _ in range(5):
            remap.note_write()
        assert remap.start == 1
        assert remap.gap_moves == 5

    def test_every_line_eventually_moves(self):
        remap = StartGapRemapper(num_lines=8, psi=1)
        initial = [remap.physical_of(i) for i in range(8)]
        for _ in range(9 * 9):
            remap.note_write()
        final = [remap.physical_of(i) for i in range(8)]
        assert all(a != b for a, b in zip(initial, final))

    def test_psi_period(self):
        remap = StartGapRemapper(num_lines=8, psi=10)
        for _ in range(9):
            assert remap.note_write() is None
        assert remap.note_write() is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            StartGapRemapper(num_lines=0)
        with pytest.raises(ValueError):
            StartGapRemapper(num_lines=4, psi=0)
        with pytest.raises(IndexError):
            StartGapRemapper(num_lines=4).physical_of(4)

    @settings(max_examples=30, deadline=None)
    @given(
        lines=st.integers(min_value=1, max_value=32),
        moves=st.integers(min_value=0, max_value=200),
    )
    def test_property_bijection_after_any_moves(self, lines, moves):
        remap = StartGapRemapper(num_lines=lines, psi=1)
        for _ in range(moves):
            remap.note_write()
        physicals = {remap.physical_of(i) for i in range(lines)}
        assert len(physicals) == lines
        assert remap.gap not in physicals


class TestWearLevelingNvm:
    def _make(self, psi=10):
        backing = NvmDevice(capacity_bytes=64 * KB)
        return WearLevelingNvm(backing, psi=psi)

    def test_logical_capacity_one_block_smaller(self):
        wl = self._make()
        assert wl.capacity_bytes == 64 * KB - 64

    def test_data_preserved_across_relocations(self):
        wl = self._make(psi=3)
        written = {}
        rng = np.random.default_rng(1)
        for i in range(300):
            addr = int(rng.integers(0, wl.num_blocks)) * 64
            data = bytes(int(x) for x in rng.integers(0, 256, 64))
            wl.write_block(addr, data)
            written[addr] = data
        assert wl.remap.gap_moves == 100
        for addr, data in written.items():
            assert wl.read_block(addr) == data

    def test_hot_line_wear_is_spread(self):
        """The whole point: hammering one logical line must not hammer
        one physical line.  A line moves once per gap rotation
        (psi x slots writes), so run many rotations: 2kB = 32 slots,
        psi=2 -> one rotation per 64 writes, ~47 rotations here."""
        backing = NvmDevice(capacity_bytes=2 * KB)
        hot = WearLevelingNvm(backing, psi=2)
        for _ in range(3000):
            hot.write_block(0, bytes(64))
        leveled = hot.wear_stats()

        raw = NvmDevice(capacity_bytes=2 * KB)
        for _ in range(3000):
            raw.write_block(0, bytes(64))
        unleveled = raw.wear_stats()

        assert unleveled["max"] == 3000
        assert leveled["max"] < unleveled["max"] / 4
        assert leveled["written_blocks"] == 32  # every slot carried load
        assert leveled["uniformity"] > 0.3

    def test_poison_tracks_the_physical_line(self):
        wl = self._make(psi=10**9)  # no movement
        wl.write_block(0, bytes(64))
        wl.poison_block(0)
        assert wl.is_poisoned(0)
        wl.clear_poison(0)
        assert not wl.is_poisoned(0)

    def test_flip_bits_remapped(self):
        wl = self._make(psi=10**9)
        wl.write_block(64, bytes(64))
        wl.flip_bits(64, [0])
        assert wl.read_block(64)[0] == 1

    def test_touched_addresses_logical(self):
        wl = self._make(psi=2)
        wl.write_block(128, b"\x01" * 64)
        wl.write_block(256, b"\x02" * 64)
        wl.write_block(128, b"\x03" * 64)  # triggers a relocation
        touched = wl.touched_addresses()
        assert 128 in touched and 256 in touched

    def test_read_block_touched_parity_with_backing(self):
        """The combined read returns the backing device's bytes and
        touched flag for the remapped line, and counts one read."""
        wl = self._make(psi=3)
        rng = np.random.default_rng(2)
        for _ in range(60):
            addr = int(rng.integers(0, wl.num_blocks // 2)) * 64
            wl.write_block(addr, bytes(int(x) for x in rng.integers(0, 256, 64)))
        assert wl.remap.gap_moves > 0
        backing = wl.backing
        for logical in range(wl.num_blocks):
            addr = logical * 64
            physical = wl.remap.physical_of(logical) * 64
            before = backing.read_count
            data, touched = wl.read_block_touched(addr)
            assert backing.read_count == wl.read_count == before + 1
            assert data == backing.read_block(physical) == wl.read_block(addr)
            assert touched == backing.is_touched(physical) == wl.is_touched(addr)
        with pytest.raises(ValueError):
            wl.read_block_touched(wl.capacity_bytes)

    def test_bounds(self):
        wl = self._make()
        with pytest.raises(ValueError):
            wl.read_block(wl.capacity_bytes)
        with pytest.raises(ValueError):
            wl.read_block(3)
        with pytest.raises(ValueError):
            WearLevelingNvm(NvmDevice(capacity_bytes=64))

    def test_secure_controller_runs_on_wear_leveled_nvm(self):
        """End-to-end: the full secure controller over Start-Gap."""
        from repro.controller import SecureMemoryController

        backing = NvmDevice(capacity_bytes=2 * 1024 * KB)
        wl = WearLevelingNvm(backing, psi=50)
        # Controller capacity check uses wl.capacity_bytes.
        ctrl = SecureMemoryController(
            256 * KB,
            nvm=wl,
            metadata_cache_bytes=4 * KB,
            rng=np.random.default_rng(5),
        )
        rng = np.random.default_rng(6)
        expect = {}
        for _ in range(800):
            block = int(rng.integers(0, ctrl.num_data_blocks))
            data = bytes(int(x) for x in rng.integers(0, 256, 64))
            ctrl.write(block, data)
            expect[block] = data
        assert wl.remap.gap_moves > 0
        for block, data in expect.items():
            assert ctrl.read(block).data == data

    @settings(max_examples=15, deadline=None)
    @given(
        psi=st.integers(min_value=1, max_value=20),
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=30),
                      st.integers(min_value=0, max_value=255)),
            max_size=120,
        ),
    )
    def test_property_last_write_wins_through_relocations(self, psi, ops):
        backing = NvmDevice(capacity_bytes=2 * KB)  # 32 slots, 31 lines
        wl = WearLevelingNvm(backing, psi=psi)
        latest = {}
        for block, value in ops:
            addr = (block % wl.num_blocks) * 64
            data = bytes([value]) * 64
            wl.write_block(addr, data)
            latest[addr] = data
        for addr, data in latest.items():
            assert wl.read_block(addr) == data


class TestDeviceInterface:
    """``WearLevelingNvm`` offers every public ``NvmDevice`` member, so
    the controller, rekeying, registries and the verify oracle all run
    over it unchanged."""

    @staticmethod
    def _leveled(psi):
        return WearLevelingNvm(NvmDevice(capacity_bytes=64 * KB), psi=psi)

    def _controller(self, registry=None, psi=50):
        from repro.controller import SecureMemoryController

        backing = NvmDevice(capacity_bytes=2 * 1024 * KB)
        wl = WearLevelingNvm(backing, psi=psi)
        ctrl = SecureMemoryController(
            256 * KB, nvm=wl, metadata_cache_bytes=4 * KB,
            rng=np.random.default_rng(5), registry=registry,
        )
        return ctrl, wl

    def test_every_public_device_member_exists(self):
        public = {
            name for name, value in vars(NvmDevice).items()
            if not name.startswith("_")
            and (callable(value) or isinstance(value, property))
        }
        assert public - set(dir(WearLevelingNvm)) == set()

    def test_logical_of_inverts_physical_of(self):
        remap = StartGapRemapper(num_lines=9, psi=1)
        for _ in range(40):
            for logical in range(remap.num_lines):
                assert remap.logical_of(remap.physical_of(logical)) == logical
            assert remap.logical_of(remap.gap) is None
            remap.note_write()
        with pytest.raises(IndexError):
            remap.logical_of(remap.num_slots)

    def test_peek_block_moves_no_counter(self):
        wl = self._leveled(psi=2)
        for i in range(12):
            wl.write_block(i * 64, bytes([i + 1]) * 64)
        assert wl.remap.gap_moves > 0
        before = (wl.read_count, wl.write_count)
        for i in range(12):
            assert wl.peek_block(i * 64) == bytes([i + 1]) * 64
        assert wl.peek_block(40 * 64) is None
        assert (wl.read_count, wl.write_count) == before

    def test_poison_and_erase_are_logical(self):
        wl = self._leveled(psi=3)
        for i in range(30):
            wl.write_block((i % 5) * 64, b"\x01" * 64)
        assert wl.remap.gap_moves > 0
        assert not wl.has_poison
        wl.poison_block(128)
        assert wl.has_poison
        assert wl.poisoned_addresses == frozenset({128})
        wl.erase_block(128)
        assert not wl.is_touched(128) and not wl.has_poison
        assert 128 not in wl.touched_addresses()

    def test_write_count_of_is_the_physical_lines_wear(self):
        wl = self._leveled(psi=10**9)  # no movement
        for _ in range(3):
            wl.write_block(64, bytes(64))
        physical = wl.remap.physical_of(1) * 64
        assert wl.write_count_of(64) == wl.backing.write_count_of(physical) == 3

    def test_registry_counts_physical_traffic(self):
        from repro.telemetry import MetricRegistry

        registry = MetricRegistry()
        ctrl, wl = self._controller(registry=registry)
        for block in range(0, 400, 7):
            ctrl.write(block, bytes([block % 256]) * 64)
        ctrl.flush()
        snapshot = registry.snapshot()
        assert snapshot["nvm.writes"] == wl.write_count == wl.backing.write_count
        assert snapshot["nvm.writes"] > 0
        assert snapshot["nvm.reads"] == wl.read_count

    def test_rekey_keeps_every_written_block(self):
        ctrl, wl = self._controller()
        rng = np.random.default_rng(8)
        written = {}
        for _ in range(300):
            block = int(rng.integers(0, ctrl.num_data_blocks))
            written[block] = bytes(int(x) for x in rng.integers(0, 256, 64))
            ctrl.write(block, written[block])
        ctrl.rekey(rng=np.random.default_rng(9))
        assert wl.remap.gap_moves > 0
        for block, data in written.items():
            assert ctrl.read(block).data == data

    def test_gap_move_keeps_unwritten_lines_unwritten(self):
        wl = self._leveled(psi=1)
        wl.write_block(0, b"\x01" * 64)  # moves the gap over a blank line
        assert wl.remap.gap_moves == 1
        assert wl.touched_addresses() == [0]

    def test_gap_move_carries_poison_with_the_line(self):
        wl = WearLevelingNvm(NvmDevice(capacity_bytes=8 * 64), psi=1)
        assert wl.num_blocks == 7
        wl.write_block(5 * 64, b"\x05" * 64)  # gap now sits after line 5
        wl.poison_block(5 * 64)
        before = (wl.read_count, wl.write_count)
        wl.write_block(0, b"\x01" * 64)  # moves line 5 into the gap
        # The move costs one read and one write besides the store.
        assert (wl.read_count, wl.write_count) == (before[0] + 1,
                                                   before[1] + 2)
        assert wl.remap.physical_of(5) == 6
        assert wl.poisoned_addresses == frozenset({5 * 64})
        assert wl.read_block(5 * 64) == b"\x05" * 64
