"""Soteria's duplicated shadow entries (Figure 8b).

The 64-byte shadow block packs two *independent* 32-byte sub-entries:
``addr(8) | 8 x 16-bit counter LSBs (16) | MAC(8)``.  The duplicates are
placed in disjoint ECC codewords (bytes 0-31 vs 32-63; codewords are
8-byte chunks), so an uncorrectable error confined to one codeword
leaves the other sub-entry intact and recovery proceeds.

Shrinking the LSB field from the baseline's 48 bits per counter to
16 bits is safe because a node counter advancing 2^16 times without an
eviction is vanishingly rare — and the controller can simply write the
node back if it ever happens (Section 3.2.1).
"""

from __future__ import annotations

from repro.constants import CACHELINE_BYTES
from repro.controller.shadow import (
    ShadowRecord,
    _pack_subentry,
    _unpack_subentry,
)

_SUBENTRY_BYTES = 32


class SoteriaShadowCodec:
    """Duplicated entry: two 32-byte sub-entries with 16-bit LSBs."""

    name = "soteria"
    lsb_bits = 16
    copies = 2

    def encode(self, record: ShadowRecord) -> bytes:
        sub = _pack_subentry(record, self.lsb_bits, 2)
        if len(sub) != _SUBENTRY_BYTES:
            raise AssertionError(
                f"sub-entry must be {_SUBENTRY_BYTES} bytes, got {len(sub)}"
            )
        return sub + sub

    def decode_candidates(self, raw: bytes) -> list:
        """Both sub-entries, each independently verifiable by recovery."""
        if len(raw) != CACHELINE_BYTES:
            raise ValueError("shadow entry must be 64 bytes")
        return [
            _unpack_subentry(raw[:_SUBENTRY_BYTES], self.lsb_bits, lsb_bytes=2),
            _unpack_subentry(raw[_SUBENTRY_BYTES:], self.lsb_bits, lsb_bytes=2),
        ]
