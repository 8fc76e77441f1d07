"""64-ary split-counter blocks (Yan et al. / VAULT style).

One 64-byte block packs 64 7-bit *minor* counters and a single 64-bit
*major* counter: 64 x 7 bits = 56 bytes of minors plus 8 bytes of major.
The effective encryption counter of data block ``i`` in the page is the
pair ``(major, minor_i)``.  When a minor counter would overflow, the
major counter is incremented, all minors reset to zero, and the memory
controller must re-encrypt the whole page under the new major — the
overflow event is surfaced to the caller so the controller can do so.
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


def _slot_error(slot: int) -> IndexError:
    return IndexError(f"slot {slot} out of range [0, {SPLIT_COUNTER_ARITY})")


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

    ARITY = SPLIT_COUNTER_ARITY

    def __init__(self, major: int = 0, minors=None):
        fresh = minors is None
        minors = [0] * self.ARITY if fresh else list(minors)
        if len(minors) != self.ARITY:
            raise ValueError(f"expected {self.ARITY} minor counters")
        if not 0 <= major <= _MAJOR_MAX:
            raise ValueError("major counter out of range")
        if not fresh:
            # A fresh block's zero minors need no range check.
            for m in minors:
                if not 0 <= m <= _MINOR_MAX:
                    raise ValueError("minor counter out of range")
        self.major = major
        self.minors = minors

    def effective_counter(self, slot: int) -> int:
        """Counter value used for encryption of data block ``slot``.

        Combines major and minor so that every (major, minor) pair maps
        to a distinct integer, which the PRF consumes directly.
        """
        if not 0 <= slot < SPLIT_COUNTER_ARITY:
            raise _slot_error(slot)
        return (self.major << MINOR_COUNTER_BITS) | self.minors[slot]

    def increment(self, slot: int):
        """Bump the counter for ``slot`` ahead of a write.

        Returns an :class:`OverflowEvent` when the minor counter wraps
        (major incremented, all minors reset), otherwise ``None``.
        """
        if not 0 <= slot < SPLIT_COUNTER_ARITY:
            raise _slot_error(slot)
        if self.minors[slot] < _MINOR_MAX:
            self.minors[slot] += 1
            return None
        if self.major == _MAJOR_MAX:
            raise OverflowError("major counter exhausted; key rotation required")
        event = OverflowEvent(
            old_major=self.major,
            new_major=self.major + 1,
            old_minors=tuple(self.minors),
        )
        self.major += 1
        self.minors = [0] * self.ARITY
        return event

    def to_bytes(self) -> bytes:
        """Serialize to one 64-byte cache line (56B minors + 8B major)."""
        packed = 0
        for i, m in enumerate(self.minors):
            packed |= m << (i * MINOR_COUNTER_BITS)
        minors_bytes = packed.to_bytes(56, "little")
        return minors_bytes + self.major.to_bytes(8, "little")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SplitCounterBlock":
        if len(raw) != CACHELINE_BYTES:
            raise ValueError(f"expected {CACHELINE_BYTES} bytes, got {len(raw)}")
        packed = int.from_bytes(raw[:56], "little")
        # Every field is masked to its width, so nothing needs the
        # constructor's range checks.
        block = cls.__new__(cls)
        block.minors = [
            (packed >> (i * MINOR_COUNTER_BITS)) & _MINOR_MAX
            for i in range(cls.ARITY)
        ]
        block.major = int.from_bytes(raw[56:], "little")
        return block

    def copy(self) -> "SplitCounterBlock":
        return SplitCounterBlock(major=self.major, minors=list(self.minors))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SplitCounterBlock):
            return NotImplemented
        return self.major == other.major and self.minors == other.minors

    def __repr__(self) -> str:
        hot = sum(1 for m in self.minors if m)
        return f"SplitCounterBlock(major={self.major}, hot_minors={hot})"
