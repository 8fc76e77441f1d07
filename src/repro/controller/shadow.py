"""Anubis-style shadow table and its entry codecs (Figure 8).

Every slot of the volatile metadata cache has a twin *shadow entry* in
NVM.  Whenever a metadata block is modified inside the cache, the
controller persists a shadow entry recording which block changed and
enough counter state to reconstruct the in-cache value after a crash:

* **node entries** (tree levels >= 2) record the low bits of all eight
  node counters — recovery combines them with the stale NVM copy,
  resolving carries minimally;
* **counter entries** (level 1) record only the address and a MAC; the
  counter values themselves are recovered by Osiris trials against the
  (write-through) data MACs.

The entry MAC is computed over the address and the counter payload so
recovery can prove the reconstruction is exact.

A decoded entry is a :class:`ShadowRecord`, an immutable named tuple
(building one is a single tuple allocation: the controller makes one
per metadata write).  Every counter entry shares the one all-zero LSB
tuple :data:`ZERO_LSBS`, and packing skips its LSB loop for it.

Two codecs implement Figure 8:

* :class:`AnubisShadowCodec` — one entry per 64-byte block: 8-byte
  tagged address + eight 48-bit counter LSBs + 8-byte MAC (the paper
  quotes 49 bits; we use 48 for byte alignment).
* Soteria's duplicated codec lives in :mod:`repro.core.shadow_dup`; it
  packs two independent 32-byte sub-entries (16-bit LSBs) so that a
  single-codeword error cannot kill the entry.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.constants import CACHELINE_BYTES, MAC_BYTES
from repro.tree import BonsaiMerkleTree

#: kind tags packed into the low bits of the (block-aligned) address.
KIND_EMPTY = 0
KIND_COUNTER = 1
KIND_NODE = 2
_KINDS = frozenset((KIND_EMPTY, KIND_COUNTER, KIND_NODE))


#: The LSB field of every counter entry (and of the tombstone).
ZERO_LSBS = (0,) * 8


class ShadowRecord(NamedTuple):
    """Decoded shadow-entry contents."""

    address: int            # NVM address of the tracked metadata block
    kind: int               # KIND_COUNTER or KIND_NODE
    lsbs: tuple             # 8 counter LSB values (zeros for counters)
    mac: bytes              # MAC over (address, counter payload)

    @property
    def is_empty(self) -> bool:
        return self.kind == KIND_EMPTY


#: The empty entry written over the slot of an evicted block.
TOMBSTONE = ShadowRecord(address=0, kind=KIND_EMPTY, lsbs=ZERO_LSBS, mac=b"\x00" * MAC_BYTES)


class AnubisShadowCodec:
    """Single-copy entry: addr(8) | 8 x 48-bit LSBs (48) | MAC(8)."""

    name = "anubis"
    lsb_bits = 48
    copies = 1

    def encode(self, record: ShadowRecord) -> bytes:
        return _pack_subentry(record, self.lsb_bits, 6).ljust(
            CACHELINE_BYTES, b"\x00"
        )

    def decode_candidates(self, raw: bytes) -> list:
        """All independently-usable records inside one entry block."""
        if len(raw) != CACHELINE_BYTES:
            raise ValueError("shadow entry must be 64 bytes")
        return [_unpack_subentry(raw[:64], self.lsb_bits, lsb_bytes=6)]


def _pack_subentry(record: ShadowRecord, lsb_bits: int, lsb_bytes: int) -> bytes:
    address, kind, lsbs, mac = record
    if address % CACHELINE_BYTES != 0:
        raise ValueError("tracked address must be block-aligned")
    if kind not in _KINDS:
        raise ValueError(f"invalid record kind {kind}")
    if len(lsbs) != 8:
        raise ValueError("exactly 8 LSB values required")
    if len(mac) != MAC_BYTES:
        raise ValueError("record MAC must be 8 bytes")
    # The eight masked LSBs, little-endian at a stride of lsb_bytes,
    # packed as one integer.
    packed = 0
    if lsbs != ZERO_LSBS:
        mask = (1 << lsb_bits) - 1
        stride = 8 * lsb_bytes
        for i, value in enumerate(lsbs):
            packed |= (value & mask) << (i * stride)
    return (
        (address | kind).to_bytes(8, "little")
        + packed.to_bytes(8 * lsb_bytes, "little")
        + mac
    )


def _unpack_subentry(raw: bytes, lsb_bits: int, lsb_bytes: int) -> ShadowRecord:
    tagged = int.from_bytes(raw[0:8], "little")
    kind = tagged & (CACHELINE_BYTES - 1)
    address = tagged & ~(CACHELINE_BYTES - 1)
    lsbs = tuple(
        int.from_bytes(raw[8 + i * lsb_bytes:8 + (i + 1) * lsb_bytes], "little")
        for i in range(8)
    )
    mac_offset = 8 + 8 * lsb_bytes
    mac = raw[mac_offset:mac_offset + MAC_BYTES]
    if kind not in (KIND_COUNTER, KIND_NODE):
        return TOMBSTONE
    return ShadowRecord(address=address, kind=kind, lsbs=lsbs, mac=mac)


def reconstruct_counter(stale: int, lsb: int, lsb_bits: int) -> int:
    """Minimal-carry reconstruction of a counter from its recorded LSBs.

    The recovered value is the smallest v >= stale whose low
    ``lsb_bits`` equal ``lsb`` — valid as long as the counter advanced
    fewer than 2**lsb_bits times since the stale copy was persisted
    (the paper's argument for shrinking the field to 16 bits).
    """
    modulus = 1 << lsb_bits
    return stale + ((lsb - stale) % modulus)


class ShadowManager:
    """Owns the shadow table region, its eager BMT, and entry traffic.

    The BMT internal nodes are on-chip SRAM (volatile); only the root
    survives a crash (NVR register).  Recovery re-derives the tree from
    the persisted entries and checks it against the saved root.
    """

    def __init__(self, amap, nvm, mac_engine, codec, functional: bool = True):
        if amap.shadow_entries <= 0:
            raise ValueError("address map has no shadow region")
        self._amap = amap
        self._nvm = nvm
        self._mac = mac_engine
        self.codec = codec
        self.functional = functional
        self.tree = BonsaiMerkleTree(amap.shadow_entries, mac_engine)
        self.writes = 0
        self._entry_offset = amap.shadow_offset
        self._entry_stride = amap.block_size
        # Every eviction writes the same tombstone: encode it once.
        self._tombstone_raw = codec.encode(TOMBSTONE)

    # ---- MAC helpers ----

    def record_mac(self, address: int, payload_bytes: bytes) -> bytes:
        """MAC binding an entry to the tracked block's counter payload."""
        if not self.functional:
            return b"\x00" * MAC_BYTES
        return self._mac.compute(
            b"shadow", address.to_bytes(8, "little"), payload_bytes
        )

    # ---- write path ----

    def write_entry(self, slot_id: int, record: ShadowRecord, wpq) -> None:
        """Persist a shadow entry for cache slot ``slot_id`` via the WPQ
        and (in functional mode) eagerly update the shadow BMT.

        ``slot_id`` is a metadata-cache slot, in range by construction,
        so the entry address is plain arithmetic.
        """
        raw = (self._tombstone_raw if record is TOMBSTONE
               else self.codec.encode(record))
        wpq.enqueue(self._entry_offset + slot_id * self._entry_stride, raw)
        self.writes += 1
        if self.functional:
            self.tree.update_leaf(slot_id, raw)

    # ---- recovery-side read path ----

    def read_raw_entry(self, slot_id: int):
        """(raw bytes, was-ever-written) for one slot."""
        address = self._amap.shadow_entry_addr(slot_id)
        if not self._nvm.is_touched(address):
            return None, False
        return self._nvm.read_block(address), True

    def rebuild_tree_root(self, entries) -> bytes:
        """Root of a BMT rebuilt from ``entries`` ({slot_id: raw}).

        Starts from the same all-zero initial state as construction and
        replays only written slots, so an intact table reproduces the
        crashed controller's root exactly.
        """
        tree = BonsaiMerkleTree(self._amap.shadow_entries, self._mac)
        for slot_id, raw in sorted(entries.items()):
            tree.update_leaf(slot_id, raw)
        return tree.root
