"""Tests for split-counter blocks and ToC node counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CACHELINE_BYTES, MINOR_COUNTER_BITS
from repro.counters import OverflowEvent, SplitCounterBlock, TocNode

MINOR_MAX = (1 << MINOR_COUNTER_BITS) - 1


class TestSplitCounterBlock:
    def test_initial_counters_zero(self):
        blk = SplitCounterBlock()
        assert all(blk.effective_counter(i) == 0 for i in range(64))

    def test_increment_bumps_only_target_slot(self):
        blk = SplitCounterBlock()
        assert blk.increment(3) is None
        assert blk.effective_counter(3) == 1
        assert blk.effective_counter(2) == 0

    def test_minor_overflow_triggers_event(self):
        blk = SplitCounterBlock()
        for _ in range(MINOR_MAX):
            assert blk.increment(0) is None
        event = blk.increment(0)
        assert isinstance(event, OverflowEvent)
        assert event.old_major == 0 and event.new_major == 1
        assert event.old_minors[0] == MINOR_MAX
        assert blk.major == 1
        assert all(m == 0 for m in blk.minors)

    def test_effective_counter_monotonic_across_overflow(self):
        blk = SplitCounterBlock()
        seen = [blk.effective_counter(0)]
        for _ in range(MINOR_MAX + 5):
            blk.increment(0)
            seen.append(blk.effective_counter(0))
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_serialization_roundtrip(self):
        blk = SplitCounterBlock(major=123456, minors=[i % 128 for i in range(64)])
        raw = blk.to_bytes()
        assert len(raw) == CACHELINE_BYTES
        assert SplitCounterBlock.from_bytes(raw) == blk

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SplitCounterBlock.from_bytes(b"\x00" * 63)

    def test_copy_is_independent(self):
        blk = SplitCounterBlock()
        dup = blk.copy()
        blk.increment(0)
        assert dup.effective_counter(0) == 0

    def test_slot_bounds_checked(self):
        blk = SplitCounterBlock()
        with pytest.raises(IndexError):
            blk.increment(64)
        with pytest.raises(IndexError):
            blk.effective_counter(-1)

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            SplitCounterBlock(minors=[0] * 63)
        with pytest.raises(ValueError):
            SplitCounterBlock(minors=[MINOR_MAX + 1] + [0] * 63)
        with pytest.raises(ValueError):
            SplitCounterBlock(major=-1)

    @settings(max_examples=50, deadline=None)
    @given(
        major=st.integers(min_value=0, max_value=2**64 - 1),
        minors=st.lists(
            st.integers(min_value=0, max_value=MINOR_MAX),
            min_size=64,
            max_size=64,
        ),
    )
    def test_property_serialization_roundtrip(self, major, minors):
        blk = SplitCounterBlock(major=major, minors=minors)
        assert SplitCounterBlock.from_bytes(blk.to_bytes()) == blk

    def test_caller_values_out_of_range_rejected(self):
        """Only caller-supplied counters are range-checked; these edges
        are outside what the field widths can hold."""
        with pytest.raises(ValueError, match="major counter out of range"):
            SplitCounterBlock(major=1 << 64)
        with pytest.raises(ValueError, match="minor counter out of range"):
            SplitCounterBlock(minors=[0] * 63 + [-1])
        with pytest.raises(IndexError, match=r"slot 64 out of range \[0, 64\)"):
            SplitCounterBlock().effective_counter(64)

    @settings(max_examples=50, deadline=None)
    @given(raw=st.binary(min_size=CACHELINE_BYTES, max_size=CACHELINE_BYTES))
    def test_property_from_bytes_of_any_line_is_a_valid_block(self, raw):
        """``from_bytes`` skips the constructor's checks because every
        field it unpacks is masked to its width: any 64-byte line gives
        the block the checked constructor builds, and packs back to the
        same bytes."""
        blk = SplitCounterBlock.from_bytes(raw)
        assert blk == SplitCounterBlock(major=blk.major, minors=blk.minors)
        assert blk.to_bytes() == raw

    @settings(max_examples=30, deadline=None)
    @given(slots=st.lists(st.integers(min_value=0, max_value=63), max_size=300))
    def test_property_no_two_slots_share_effective_counter_history(self, slots):
        """(slot, effective counter) pairs never repeat under increments —
        the uniqueness that prevents OTP reuse."""
        blk = SplitCounterBlock()
        used = {(s, blk.effective_counter(s)) for s in range(64)}
        for s in slots:
            event = blk.increment(s)
            if event is not None:
                # Page re-encrypted: all pads regenerated under new major.
                used = set()
            pair = (s, blk.effective_counter(s))
            assert pair not in used
            used.add(pair)


class TestTocNode:
    def test_initial_state(self):
        node = TocNode()
        assert node.counters == [0] * 8
        assert node.mac == b"\x00" * 8

    def test_increment_returns_new_value(self):
        node = TocNode()
        assert node.increment(2) == 1
        assert node.increment(2) == 2
        assert node.counter(2) == 2
        assert node.counter(0) == 0

    def test_serialization_roundtrip(self):
        node = TocNode(counters=[1, 2, 3, 4, 5, 6, 7, 8], mac=b"12345678")
        raw = node.to_bytes()
        assert len(raw) == CACHELINE_BYTES
        assert TocNode.from_bytes(raw) == node

    def test_counters_bytes_excludes_mac(self):
        node = TocNode(counters=[9] * 8, mac=b"AAAAAAAA")
        other = TocNode(counters=[9] * 8, mac=b"BBBBBBBB")
        assert node.counters_bytes() == other.counters_bytes()
        assert node.to_bytes() != other.to_bytes()

    def test_bounds_and_validation(self):
        node = TocNode()
        with pytest.raises(IndexError):
            node.increment(8)
        with pytest.raises(ValueError):
            TocNode(counters=[0] * 7)
        with pytest.raises(ValueError):
            TocNode(mac=b"short")
        with pytest.raises(ValueError):
            TocNode(counters=[1 << 56] + [0] * 7)

    def test_copy_is_independent(self):
        node = TocNode()
        dup = node.copy()
        node.increment(0)
        assert dup.counter(0) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        counters=st.lists(
            st.integers(min_value=0, max_value=(1 << 56) - 1),
            min_size=8,
            max_size=8,
        ),
        mac=st.binary(min_size=8, max_size=8),
    )
    def test_property_serialization_roundtrip(self, counters, mac):
        node = TocNode(counters=counters, mac=mac)
        assert TocNode.from_bytes(node.to_bytes()) == node

    @settings(max_examples=50, deadline=None)
    @given(raw=st.binary(min_size=CACHELINE_BYTES, max_size=CACHELINE_BYTES))
    def test_property_from_bytes_of_any_line_is_a_valid_node(self, raw):
        node = TocNode.from_bytes(raw)
        assert node == TocNode(counters=node.counters, mac=node.mac)
        assert node.to_bytes() == raw
