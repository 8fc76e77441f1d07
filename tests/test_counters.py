"""Tests for split-counter blocks and ToC node counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import (
    CACHELINE_BYTES,
    MINOR_COUNTER_BITS,
    SPLIT_COUNTER_ARITY,
)
from repro.counters import OverflowEvent, SplitCounterBlock, TocNode
from repro.counters.split_counter import _slot_error

MINOR_MAX = (1 << MINOR_COUNTER_BITS) - 1
MAJOR_MAX = (1 << 64) - 1


class ReferenceSplitCounterBlock:
    """The list-of-minors split-counter block the packed one replaced.

    Kept verbatim as the behavioural reference for the property tests
    below; ``set_minor`` is the list write recovery used to make
    (``block.minors[slot] = minor``) behind the packed block's checks.
    """

    ARITY = SPLIT_COUNTER_ARITY

    def __init__(self, major: int = 0, minors=None):
        fresh = minors is None
        minors = [0] * self.ARITY if fresh else list(minors)
        if len(minors) != self.ARITY:
            raise ValueError(f"expected {self.ARITY} minor counters")
        if not 0 <= major <= MAJOR_MAX:
            raise ValueError("major counter out of range")
        if not fresh:
            for m in minors:
                if not 0 <= m <= MINOR_MAX:
                    raise ValueError("minor counter out of range")
        self.major = major
        self.minors = minors

    def effective_counter(self, slot: int) -> int:
        if not 0 <= slot < SPLIT_COUNTER_ARITY:
            raise _slot_error(slot)
        return (self.major << MINOR_COUNTER_BITS) | self.minors[slot]

    def increment(self, slot: int):
        if not 0 <= slot < SPLIT_COUNTER_ARITY:
            raise _slot_error(slot)
        if self.minors[slot] < MINOR_MAX:
            self.minors[slot] += 1
            return None
        if self.major == MAJOR_MAX:
            raise OverflowError("major counter exhausted; key rotation required")
        event = OverflowEvent(
            old_major=self.major,
            new_major=self.major + 1,
            old_minors=tuple(self.minors),
        )
        self.major += 1
        self.minors = [0] * self.ARITY
        return event

    def set_minor(self, slot: int, value: int) -> None:
        if not 0 <= slot < SPLIT_COUNTER_ARITY:
            raise _slot_error(slot)
        if not 0 <= value <= MINOR_MAX:
            raise ValueError("minor counter out of range")
        self.minors[slot] = value

    def to_bytes(self) -> bytes:
        packed = 0
        for i, m in enumerate(self.minors):
            packed |= m << (i * MINOR_COUNTER_BITS)
        minors_bytes = packed.to_bytes(56, "little")
        return minors_bytes + self.major.to_bytes(8, "little")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ReferenceSplitCounterBlock":
        if len(raw) != CACHELINE_BYTES:
            raise ValueError(f"expected {CACHELINE_BYTES} bytes, got {len(raw)}")
        packed = int.from_bytes(raw[:56], "little")
        block = cls.__new__(cls)
        block.minors = [
            (packed >> (i * MINOR_COUNTER_BITS)) & MINOR_MAX
            for i in range(cls.ARITY)
        ]
        block.major = int.from_bytes(raw[56:], "little")
        return block

    def copy(self) -> "ReferenceSplitCounterBlock":
        return ReferenceSplitCounterBlock(major=self.major,
                                          minors=list(self.minors))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReferenceSplitCounterBlock):
            return NotImplemented
        return self.major == other.major and self.minors == other.minors


def _outcome(call, *args):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", call(*args))
    except (IndexError, ValueError, OverflowError) as exc:
        return ("raised", type(exc), str(exc))


#: One step on block 0 or 1 of a pair.  Slots and values reach past
#: both ends of their ranges, so the error paths are drawn too.
_SLOTS = st.integers(min_value=-2, max_value=SPLIT_COUNTER_ARITY + 1)
_STEPS = st.one_of(
    st.tuples(st.just("increment"), st.integers(0, 1), _SLOTS),
    st.tuples(st.just("set_minor"), st.integers(0, 1), _SLOTS,
              st.integers(min_value=-1, max_value=MINOR_MAX + 1)),
    st.tuples(st.just("effective_counter"), st.integers(0, 1), _SLOTS),
    st.tuples(st.just("roundtrip"), st.integers(0, 1)),
    st.tuples(st.just("copy"), st.integers(0, 1), st.integers(0, 1)),
)
_MINORS = st.lists(st.integers(min_value=0, max_value=MINOR_MAX),
                   min_size=SPLIT_COUNTER_ARITY, max_size=SPLIT_COUNTER_ARITY)
_MAJORS = st.one_of(st.integers(min_value=0, max_value=MAJOR_MAX),
                    st.integers(min_value=MAJOR_MAX - 2, max_value=MAJOR_MAX))


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


class TestPackedMatchesReference:
    """The packed block against :class:`ReferenceSplitCounterBlock`."""

    @staticmethod
    def _assert_same(block, ref):
        assert block.major == ref.major
        assert list(block.minors) == ref.minors
        assert block.to_bytes() == ref.to_bytes()

    @settings(max_examples=200, deadline=None)
    @given(majors=st.tuples(_MAJORS, _MAJORS),
           minors=st.tuples(_MINORS, _MINORS),
           steps=st.lists(_STEPS, max_size=150))
    def test_property_any_step_sequence_agrees(self, majors, minors, steps):
        """Increments (overflow events and major exhaustion included),
        minor writes, counter reads, byte round trips, copies and
        equality give the reference's results, errors included."""
        blocks = [SplitCounterBlock(m, n) for m, n in zip(majors, minors)]
        refs = [ReferenceSplitCounterBlock(m, n)
                for m, n in zip(majors, minors)]
        for step in steps:
            name, i, args = step[0], step[1], step[2:]
            if name == "roundtrip":
                blocks[i] = SplitCounterBlock.from_bytes(blocks[i].to_bytes())
                refs[i] = ReferenceSplitCounterBlock.from_bytes(
                    refs[i].to_bytes())
            elif name == "copy":
                blocks[args[0]] = blocks[i].copy()
                refs[args[0]] = refs[i].copy()
            else:
                assert _outcome(getattr(blocks[i], name), *args) == \
                    _outcome(getattr(refs[i], name), *args)
            for block, ref in zip(blocks, refs):
                self._assert_same(block, ref)
            assert (blocks[0] == blocks[1]) == (refs[0] == refs[1])

    @pytest.mark.parametrize("args", [
        dict(major=-1),
        dict(major=MAJOR_MAX + 1),
        dict(minors=[0] * 63),
        dict(minors=[0] * 65),
        dict(minors=[0] * 63 + [-1]),
        dict(minors=[MINOR_MAX + 1] + [0] * 63),
        dict(major=-1, minors=[0] * 63),
        dict(major=-1, minors=[-1] * 64),
    ])
    def test_constructor_errors_match_reference(self, args):
        assert _outcome(lambda: SplitCounterBlock(**args)) == \
            _outcome(lambda: ReferenceSplitCounterBlock(**args))

    @pytest.mark.parametrize("slot", [-1, 64, 65, 1 << 70])
    def test_slot_errors_match_reference(self, slot):
        block, ref = SplitCounterBlock(), ReferenceSplitCounterBlock()
        for name, args in (("increment", (slot,)),
                           ("effective_counter", (slot,)),
                           ("set_minor", (slot, 0))):
            got = _outcome(getattr(block, name), *args)
            assert got == _outcome(getattr(ref, name), *args)
            assert got == ("raised", IndexError,
                           f"slot {slot} out of range [0, 64)")

    @pytest.mark.parametrize("value", [-1, MINOR_MAX + 1])
    def test_set_minor_rejects_what_the_constructor_rejects(self, value):
        expected = _outcome(
            lambda: SplitCounterBlock(minors=[value] + [0] * 63))
        assert _outcome(SplitCounterBlock().set_minor, 0, value) == expected

    @pytest.mark.parametrize("size", [0, 63, 65])
    def test_from_bytes_errors_match_reference(self, size):
        raw = bytes(size)
        assert _outcome(SplitCounterBlock.from_bytes, raw) == \
            _outcome(ReferenceSplitCounterBlock.from_bytes, raw)

    def test_minors_is_read_only(self):
        block = SplitCounterBlock()
        with pytest.raises(TypeError):
            block.minors[0] = 1
        assert block.effective_counter(0) == 0


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
