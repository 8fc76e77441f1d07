"""Payload wrappers held in the metadata cache.

The metadata cache stores live objects, not raw bytes; each wrapper
knows how to serialize itself for NVM writeback and carries the
bookkeeping the controller needs (leaf MACs, Osiris update counting).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import MAC_BYTES
from repro.counters import SplitCounterBlock, TocNode

ZERO_MAC = b"\x00" * MAC_BYTES


@dataclass(slots=True, init=False)
class CounterEntry:
    """A cached level-1 split-counter block.

    ``mac`` is the ToC MAC stored in the sidecar region (sealed against
    the parent's counter at the last writeback).  ``slot_updates``
    implements the per-counter Osiris bound: once any slot accumulates
    ``osiris_limit`` in-cache increments the controller persists the
    block, so no NVM counter is ever more than ``limit`` behind and
    recovery needs at most ``limit`` trials per counter.
    """

    block: SplitCounterBlock
    mac: bytes
    slot_updates: list

    def __init__(self, block: SplitCounterBlock, mac: bytes = ZERO_MAC,
                 slot_updates: list = None):
        self.block = block
        self.mac = mac
        self.slot_updates = [0] * 64 if slot_updates is None else slot_updates

    def bump_slot(self, slot: int) -> int:
        """Record an in-cache update of ``slot``; returns its tally."""
        self.slot_updates[slot] += 1
        return self.slot_updates[slot]

    def reset_updates(self) -> None:
        self.slot_updates = [0] * 64

    @property
    def kind(self) -> str:
        return "counter"


@dataclass(slots=True)
class NodeEntry:
    """A cached ToC intermediate node (level >= 2)."""

    node: TocNode
    level: int = 2

    @property
    def kind(self) -> str:
        return "node"


@dataclass(slots=True, init=False)
class MacBlockEntry:
    """A cached data-MAC block: eight 64-bit MACs of data blocks.

    Data MACs are write-through (persisted with every data write), so a
    cached MAC block is never dirty; caching only saves read traffic.
    """

    macs: list

    def __init__(self, macs: list = None):
        self.macs = [ZERO_MAC] * 8 if macs is None else macs

    @property
    def kind(self) -> str:
        return "mac"

    def to_bytes(self) -> bytes:
        return b"".join(self.macs)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MacBlockEntry":
        if len(raw) != 8 * MAC_BYTES:
            raise ValueError("MAC block must be 64 bytes")
        return cls([raw[0:8], raw[8:16], raw[16:24], raw[24:32],
                    raw[32:40], raw[40:48], raw[48:56], raw[56:64]])
