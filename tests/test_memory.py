"""Tests for the NVM device, DIMM geometry, and WPQ."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import DimmGeometry, NvmDevice, WpqFullError, WritePendingQueue


class TestNvmDevice:
    @pytest.fixture
    def nvm(self):
        return NvmDevice(capacity_bytes=1024 * 1024)

    def test_unwritten_reads_zero(self, nvm):
        assert nvm.read_block(0) == bytes(64)

    def test_write_then_read(self, nvm):
        data = bytes(range(64))
        nvm.write_block(128, data)
        assert nvm.read_block(128) == data

    def test_counters_track_traffic(self, nvm):
        nvm.write_block(0, bytes(64))
        nvm.read_block(0)
        nvm.read_block(64)
        assert nvm.write_count == 1
        assert nvm.read_count == 2
        nvm.reset_counters()
        assert nvm.read_count == nvm.write_count == 0

    def test_alignment_enforced(self, nvm):
        with pytest.raises(ValueError):
            nvm.read_block(13)
        with pytest.raises(ValueError):
            nvm.write_block(1, bytes(64))

    def test_capacity_enforced(self, nvm):
        with pytest.raises(ValueError):
            nvm.read_block(nvm.capacity_bytes)
        with pytest.raises(ValueError):
            NvmDevice(capacity_bytes=100)  # not block multiple

    def test_wrong_size_write_rejected(self, nvm):
        with pytest.raises(ValueError):
            nvm.write_block(0, b"short")

    def test_flip_bits(self, nvm):
        nvm.write_block(0, bytes(64))
        nvm.flip_bits(0, [0, 9])
        block = nvm.read_block(0)
        assert block[0] == 0x01
        assert block[1] == 0x02

    def test_flip_bits_out_of_range(self, nvm):
        with pytest.raises(ValueError):
            nvm.flip_bits(0, [64 * 8])

    def test_poison_lifecycle(self, nvm):
        nvm.poison_block(64)
        assert nvm.is_poisoned(64)
        assert 64 in nvm.poisoned_addresses
        nvm.write_block(64, bytes(64))  # re-programming clears poison
        assert not nvm.is_poisoned(64)
        nvm.poison_block(64)
        nvm.clear_poison(64)
        assert not nvm.is_poisoned(64)

    def test_touched_addresses_sorted(self, nvm):
        nvm.write_block(192, bytes(64))
        nvm.write_block(0, bytes(64))
        assert nvm.touched_addresses() == [0, 192]


class TestDimmGeometry:
    def test_table4_defaults(self):
        geo = DimmGeometry()
        assert geo.chips == 18
        assert geo.chips_per_rank == 9
        assert geo.ranks == 2
        assert geo.beats_per_block == 64
        assert geo.blocks_per_row == 64

    def test_total_blocks_consistent(self):
        geo = DimmGeometry()
        assert geo.total_blocks == geo.ranks * geo.banks * geo.rows * geo.blocks_per_row

    def test_block_location_roundtrip_structure(self):
        geo = DimmGeometry()
        rank, bank, row, col = geo.block_location(0)
        assert (rank, bank, row, col) == (0, 0, 0, 0)
        rank, bank, row, col = geo.block_location(geo.blocks_per_rank)
        assert rank == 1

    def test_block_location_unique(self):
        geo = DimmGeometry(banks=2, rows=4, cols=128, chips=18,
                           chips_per_rank=9, ranks=2)
        locations = {geo.block_location(i) for i in range(geo.total_blocks)}
        assert len(locations) == geo.total_blocks

    def test_block_location_bounds(self):
        geo = DimmGeometry()
        with pytest.raises(IndexError):
            geo.block_location(geo.total_blocks)

    def test_chip_ids_of_rank(self):
        geo = DimmGeometry()
        assert geo.chip_ids_of_rank(0) == list(range(9))
        assert geo.chip_ids_of_rank(1) == list(range(9, 18))
        with pytest.raises(IndexError):
            geo.chip_ids_of_rank(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DimmGeometry(chips=17)  # 17 != 9 * 2
        with pytest.raises(ValueError):
            DimmGeometry(data_block_bits=500)  # not bus multiple


class TestWritePendingQueue:
    @pytest.fixture
    def nvm(self):
        return NvmDevice(capacity_bytes=64 * 1024)

    def test_enqueue_and_drain(self, nvm):
        wpq = WritePendingQueue(nvm, capacity=4)
        wpq.enqueue(0, b"\x01" * 64)
        assert len(wpq) == 1
        assert nvm.read_block(0) == bytes(64)  # not yet persisted
        wpq.drain_all()
        assert nvm.read_block(0) == b"\x01" * 64

    def test_enqueue_past_capacity_drains_oldest(self, nvm):
        wpq = WritePendingQueue(nvm, capacity=2)
        wpq.enqueue(0, b"\x01" * 64)
        wpq.enqueue(64, b"\x02" * 64)
        wpq.enqueue(128, b"\x03" * 64)  # forces drain of addr 0
        assert nvm.read_block(0) == b"\x01" * 64
        assert len(wpq) == 2

    def test_atomic_group_fits(self, nvm):
        wpq = WritePendingQueue(nvm, capacity=8)
        wpq.enqueue(0, bytes(64))  # residue entry
        entries = [(64 * i, bytes([i]) * 64) for i in range(1, 8)]
        wpq.enqueue_atomic(entries)
        assert len(wpq) == 8  # residue was drained to make room? No:
        # 1 residue + 7 new = 8 <= capacity, no drain needed.

    def test_atomic_group_drains_residue(self, nvm):
        wpq = WritePendingQueue(nvm, capacity=4)
        wpq.enqueue(0, b"\xaa" * 64)
        wpq.enqueue(64, b"\xbb" * 64)
        entries = [(128 + 64 * i, bytes(64)) for i in range(3)]
        wpq.enqueue_atomic(entries)
        # Two residues, capacity 4, group of 3 -> at least one drained.
        assert nvm.read_block(0) == b"\xaa" * 64
        assert len(wpq) <= 4

    def test_atomic_group_too_large_raises(self, nvm):
        wpq = WritePendingQueue(nvm, capacity=4)
        entries = [(64 * i, bytes(64)) for i in range(5)]
        with pytest.raises(WpqFullError):
            wpq.enqueue_atomic(entries)

    def test_power_loss_flush_persists_everything(self, nvm):
        wpq = WritePendingQueue(nvm, capacity=8)
        for i in range(5):
            wpq.enqueue(64 * i, bytes([i + 1]) * 64)
        flushed = wpq.power_loss_flush()
        assert flushed == 5
        for i in range(5):
            assert nvm.read_block(64 * i) == bytes([i + 1]) * 64

    def test_drain_one_empty_returns_false(self, nvm):
        wpq = WritePendingQueue(nvm)
        assert not wpq.drain_one()

    def test_counters(self, nvm):
        wpq = WritePendingQueue(nvm, capacity=8)
        wpq.enqueue(0, bytes(64))
        wpq.drain_all()
        assert wpq.enqueued_count == 1
        assert wpq.drained_count == 1

    def test_capacity_validation(self, nvm):
        with pytest.raises(ValueError):
            WritePendingQueue(nvm, capacity=0)


class TestNvmReadTouched:
    @pytest.fixture
    def nvm(self):
        return NvmDevice(capacity_bytes=4 * 1024)

    def test_matches_read_block_and_is_touched(self, nvm):
        nvm.write_block(64, b"\x07" * 64)
        nvm.flip_bits(128, [3])        # a fault marks the block touched
        for address in (0, 64, 128, 4096 - 64):
            before = nvm.read_count
            data, touched = nvm.read_block_touched(address)
            assert nvm.read_count == before + 1
            assert data == nvm.read_block(address)
            assert touched == nvm.is_touched(address)

    @pytest.mark.parametrize("address,message", [
        (3, "address 0x3 not block-aligned"),
        (-64, "address -0x40 outside capacity 0x1000"),
        (4096, "address 0x1000 outside capacity 0x1000"),
    ])
    def test_bounds_errors_unchanged(self, nvm, address, message):
        """Every block method rejects a bad address with the same
        ValueError, alignment reported before range."""
        for call in (
            nvm.read_block, nvm.read_block_touched, nvm.peek_block,
            nvm.poison_block, nvm.is_poisoned, nvm.clear_poison,
            nvm.erase_block, nvm.is_touched, nvm.write_count_of,
            lambda a: nvm.write_block(a, bytes(64)),
            lambda a: nvm.flip_bits(a, [0]),
        ):
            with pytest.raises(ValueError) as info:
                call(address)
            assert str(info.value) == message
        assert nvm.read_count == 0


class _RecordingNvm:
    """Stands in for the device: records the order of drained writes."""

    def __init__(self):
        self.writes = []

    def write_block(self, address, data):
        self.writes.append((address, data))


class _LinearScanWpq:
    """Reference: the WPQ that found forwarded data by scanning the
    whole queue, newest match wins."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.queue = deque()
        self.writes = []

    def enqueue(self, address, data):
        while len(self.queue) >= self.capacity:
            self.drain_one()
        self.queue.append((address, bytes(data)))

    def enqueue_atomic(self, entries):
        while self.capacity - len(self.queue) < len(entries):
            self.drain_one()
        self.queue.extend((address, bytes(data)) for address, data in entries)

    def lookup(self, address):
        found = None
        for entry_address, data in self.queue:
            if entry_address == address:
                found = data
        return found

    def pending_addresses(self):
        return {address for address, _ in self.queue}

    def drain_one(self):
        if not self.queue:
            return False
        self.writes.append(self.queue.popleft())
        return True


_WPQ_ADDRESSES = [64 * i for i in range(5)]
_write = st.tuples(st.sampled_from(_WPQ_ADDRESSES),
                   st.integers(min_value=0, max_value=255))
_wpq_ops = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), _write),
    st.tuples(st.just("atomic"), st.lists(_write, min_size=1, max_size=4)),
    st.tuples(st.just("drain_one")),
    st.tuples(st.just("drain_all")),
), max_size=80)


class TestWpqForwardingIndex:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(min_value=4, max_value=8), ops=_wpq_ops)
    def test_property_matches_linear_scan(self, capacity, ops):
        """The address index forwards exactly what a queue scan finds,
        and drains to NVM in the same FIFO order."""
        nvm = _RecordingNvm()
        wpq = WritePendingQueue(nvm, capacity=capacity)
        reference = _LinearScanWpq(capacity)
        for op in ops:
            if op[0] == "enqueue":
                address, byte = op[1]
                wpq.enqueue(address, bytes([byte]) * 64)
                reference.enqueue(address, bytes([byte]) * 64)
            elif op[0] == "atomic":
                group = [(a, bytes([b]) * 64) for a, b in op[1]]
                wpq.enqueue_atomic(group)
                reference.enqueue_atomic(group)
            elif op[0] == "drain_one":
                assert wpq.drain_one() == reference.drain_one()
            else:
                wpq.drain_all()
                while reference.drain_one():
                    pass
            for address in _WPQ_ADDRESSES:
                assert wpq.lookup(address) == reference.lookup(address)
            assert wpq.pending_addresses() == reference.pending_addresses()
            assert len(wpq) == len(reference.queue)
            assert nvm.writes == reference.writes
        wpq.power_loss_flush()
        while reference.drain_one():
            pass
        assert nvm.writes == reference.writes
        assert all(wpq.lookup(address) is None for address in _WPQ_ADDRESSES)
        assert wpq.pending_addresses() == set()
