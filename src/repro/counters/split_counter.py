"""64-ary split-counter blocks (Yan et al. / VAULT style).

One 64-byte block packs 64 7-bit *minor* counters and a single 64-bit
*major* counter: 64 x 7 bits = 56 bytes of minors plus 8 bytes of major.
The effective encryption counter of data block ``i`` in the page is the
pair ``(major, minor_i)``.  When a minor counter would overflow, the
major counter is incremented, all minors reset to zero, and the memory
controller must re-encrypt the whole page under the new major — the
overflow event is surfaced to the caller so the controller can do so.

A block keeps its minors the way the cache line stores them: one
448-bit integer, minor ``i`` in bits ``7i .. 7i+6`` (the line's first
56 bytes, little-endian).  Reading or bumping a minor is a shift and a
mask, and serialising the block is one integer conversion.  ``minors``
is a read-only tuple built on demand; recovery writes a minor through
the checked :meth:`SplitCounterBlock.set_minor`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    CACHELINE_BYTES,
    MAJOR_COUNTER_BITS,
    MINOR_COUNTER_BITS,
    SPLIT_COUNTER_ARITY,
)

_MINOR_MAX = (1 << MINOR_COUNTER_BITS) - 1
_MAJOR_MAX = (1 << MAJOR_COUNTER_BITS) - 1
#: Bits of the packed minors: the major starts right above them.
_MINORS_BITS = SPLIT_COUNTER_ARITY * MINOR_COUNTER_BITS
_MINORS_MASK = (1 << _MINORS_BITS) - 1


def _slot_error(slot: int) -> IndexError:
    return IndexError(f"slot {slot} out of range [0, {SPLIT_COUNTER_ARITY})")


def _minor_error() -> ValueError:
    return ValueError("minor counter out of range")


@dataclass(frozen=True)
class OverflowEvent:
    """Raised counter state change that forces a page re-encryption.

    ``old_major``/``new_major`` let the controller re-encrypt every
    block of the page: decrypt under the old effective counters,
    re-encrypt under the new ones (all minors zero).
    """

    old_major: int
    new_major: int
    old_minors: tuple


class SplitCounterBlock:
    """A 64-byte block of 64 split counters plus one major counter."""

    __slots__ = ("major", "_packed")

    ARITY = SPLIT_COUNTER_ARITY

    def __init__(self, major: int = 0, minors=None):
        if minors is not None:
            minors = list(minors)
            if len(minors) != self.ARITY:
                raise ValueError(f"expected {self.ARITY} minor counters")
        if not 0 <= major <= _MAJOR_MAX:
            raise ValueError("major counter out of range")
        packed = 0
        if minors is not None:
            # A fresh block's zero minors need no range check.
            for i, m in enumerate(minors):
                if not 0 <= m <= _MINOR_MAX:
                    raise _minor_error()
                packed |= int(m) << (i * MINOR_COUNTER_BITS)
        self.major = major
        self._packed = packed

    @property
    def minors(self) -> tuple:
        """The 64 minor counters, slot order (a read-only snapshot)."""
        packed = self._packed
        return tuple(
            (packed >> shift) & _MINOR_MAX
            for shift in range(0, _MINORS_BITS, MINOR_COUNTER_BITS)
        )

    def effective_counter(self, slot: int) -> int:
        """Counter value used for encryption of data block ``slot``.

        Combines major and minor so that every (major, minor) pair maps
        to a distinct integer, which the PRF consumes directly.
        """
        if not 0 <= slot < SPLIT_COUNTER_ARITY:
            raise _slot_error(slot)
        return (self.major << MINOR_COUNTER_BITS) | (
            (self._packed >> (slot * MINOR_COUNTER_BITS)) & _MINOR_MAX
        )

    def increment(self, slot: int):
        """Bump the counter for ``slot`` ahead of a write.

        Returns an :class:`OverflowEvent` when the minor counter wraps
        (major incremented, all minors reset), otherwise ``None``.
        """
        if not 0 <= slot < SPLIT_COUNTER_ARITY:
            raise _slot_error(slot)
        shift = slot * MINOR_COUNTER_BITS
        if (self._packed >> shift) & _MINOR_MAX != _MINOR_MAX:
            # The minor is below its maximum: adding one cannot carry
            # into the next slot's bits.
            self._packed += 1 << shift
            return None
        if self.major == _MAJOR_MAX:
            raise OverflowError("major counter exhausted; key rotation required")
        event = OverflowEvent(
            old_major=self.major,
            new_major=self.major + 1,
            old_minors=self.minors,
        )
        self.major += 1
        self._packed = 0
        return event

    def set_minor(self, slot: int, value: int) -> None:
        """Overwrite one minor counter (recovery's Osiris trials)."""
        if not 0 <= slot < SPLIT_COUNTER_ARITY:
            raise _slot_error(slot)
        if not 0 <= value <= _MINOR_MAX:
            raise _minor_error()
        shift = slot * MINOR_COUNTER_BITS
        self._packed = (
            self._packed & ~(_MINOR_MAX << shift) | (int(value) << shift)
        )

    def to_bytes(self) -> bytes:
        """Serialize to one 64-byte cache line (56B minors + 8B major)."""
        return ((self.major << _MINORS_BITS) | self._packed).to_bytes(
            CACHELINE_BYTES, "little"
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SplitCounterBlock":
        if len(raw) != CACHELINE_BYTES:
            raise ValueError(f"expected {CACHELINE_BYTES} bytes, got {len(raw)}")
        line = int.from_bytes(raw, "little")
        # Both fields are cut to their widths, so nothing needs the
        # constructor's range checks.
        block = cls.__new__(cls)
        block.major = line >> _MINORS_BITS
        block._packed = line & _MINORS_MASK
        return block

    def copy(self) -> "SplitCounterBlock":
        block = SplitCounterBlock.__new__(SplitCounterBlock)
        block.major = self.major
        block._packed = self._packed
        return block

    def __eq__(self, other) -> bool:
        if not isinstance(other, SplitCounterBlock):
            return NotImplemented
        return self.major == other.major and self._packed == other._packed

    def __repr__(self) -> str:
        hot = sum(1 for m in self.minors if m)
        return f"SplitCounterBlock(major={self.major}, hot_minors={hot})"
