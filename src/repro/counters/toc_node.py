"""Tree-of-Counters intermediate node blocks (SGX MEE style, Figure 2).

Each 64-byte intermediate node holds eight monolithic counters — one per
child — plus a 64-bit MAC.  That leaves 56 bits per counter
(8 x 56 bits = 56 bytes, + 8 bytes of MAC).  A node's counter ``j`` is
incremented whenever child ``j`` changes; the node MAC is computed over
the node's own counters *and* the parent's counter for this node, which
is what makes the tree non-recomputable from the leaves (and what makes
errors in intermediate nodes unrecoverable without Soteria's clones).
"""

from __future__ import annotations

from repro.constants import CACHELINE_BYTES, MAC_BYTES, TOC_COUNTERS_PER_NODE

_COUNTER_BITS = 56
_COUNTER_MAX = (1 << _COUNTER_BITS) - 1


def _child_error(child_index: int) -> IndexError:
    return IndexError(
        f"child {child_index} out of range [0, {TOC_COUNTERS_PER_NODE})"
    )


class TocNode:
    """An 8-counter ToC node with an embedded 64-bit MAC."""

    ARITY = TOC_COUNTERS_PER_NODE

    def __init__(self, counters=None, mac: bytes = b"\x00" * MAC_BYTES):
        fresh = counters is None
        counters = [0] * self.ARITY if fresh else list(counters)
        if len(counters) != self.ARITY:
            raise ValueError(f"expected {self.ARITY} counters")
        if not fresh:
            # A fresh node's zero counters need no range check.
            for c in counters:
                if not 0 <= c <= _COUNTER_MAX:
                    raise ValueError("counter out of range")
        if len(mac) != MAC_BYTES:
            raise ValueError(f"MAC must be {MAC_BYTES} bytes")
        self.counters = counters
        self.mac = bytes(mac)

    def increment(self, child_index: int) -> int:
        """Bump the counter for ``child_index``; returns the new value."""
        if not 0 <= child_index < TOC_COUNTERS_PER_NODE:
            raise _child_error(child_index)
        if self.counters[child_index] == _COUNTER_MAX:
            raise OverflowError("ToC node counter exhausted")
        self.counters[child_index] += 1
        return self.counters[child_index]

    def counter(self, child_index: int) -> int:
        if not 0 <= child_index < TOC_COUNTERS_PER_NODE:
            raise _child_error(child_index)
        return self.counters[child_index]

    def counters_bytes(self) -> bytes:
        """The 56-byte counter payload (MAC excluded) — the MAC input."""
        packed = 0
        for i, c in enumerate(self.counters):
            packed |= c << (i * _COUNTER_BITS)
        return packed.to_bytes(56, "little")

    def to_bytes(self) -> bytes:
        """Serialize counters + MAC to one 64-byte cache line."""
        return self.counters_bytes() + self.mac

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TocNode":
        if len(raw) != CACHELINE_BYTES:
            raise ValueError(f"expected {CACHELINE_BYTES} bytes, got {len(raw)}")
        packed = int.from_bytes(raw[:56], "little")
        # Every counter is masked to its width and the MAC is the
        # block's last 8 bytes, so nothing needs the constructor's checks.
        node = cls.__new__(cls)
        node.counters = [
            (packed >> (i * _COUNTER_BITS)) & _COUNTER_MAX
            for i in range(cls.ARITY)
        ]
        node.mac = bytes(raw[56:])
        return node

    def copy(self) -> "TocNode":
        return TocNode(counters=list(self.counters), mac=self.mac)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TocNode):
            return NotImplemented
        return self.counters == other.counters and self.mac == other.mac

    def __repr__(self) -> str:
        return f"TocNode(counters={self.counters}, mac={self.mac.hex()})"
