"""Byte-addressable non-volatile memory device model.

The device is a sparse store of 64-byte blocks with PCM read/write
latencies attached (Table 3: 150ns read, 300ns write).  It is the
*persistent* half of the system: anything written here survives a
simulated crash, anything only in volatile caches does not.

For reliability experiments the device supports targeted corruption
(bit flips and whole-block scrambles), modeling the uncorrectable
errors that the fault simulator produces.
"""

from __future__ import annotations

from repro.constants import CACHELINE_BYTES, PCM_READ_NS, PCM_WRITE_NS
from repro.telemetry import CounterMetric

ZERO_BLOCK = bytes(CACHELINE_BYTES)


class NvmDevice:
    """A sparse block-granular NVM with fault-injection hooks.

    Block read/write totals are registry instruments (``nvm.reads`` /
    ``nvm.writes``); ``read_count``/``write_count`` remain as field
    views.  A device is usually built before the enclosing system's
    registry exists, so the system adopts :meth:`metrics` afterwards.
    """

    def __init__(
        self,
        capacity_bytes: int,
        read_ns: float = PCM_READ_NS,
        write_ns: float = PCM_WRITE_NS,
        block_size: int = CACHELINE_BYTES,
        registry=None,
    ):
        if capacity_bytes <= 0 or capacity_bytes % block_size != 0:
            raise ValueError("capacity must be a positive multiple of block size")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.read_ns = read_ns
        self.write_ns = write_ns
        self._blocks: dict[int, bytes] = {}
        self._poisoned: set[int] = set()
        self._reads = CounterMetric("nvm.reads", help="block reads issued to the device")
        self._writes = CounterMetric("nvm.writes", help="block writes issued to the device")
        if registry is not None:
            registry.register(self._reads)
            registry.register(self._writes)
        self._write_counts: dict[int, int] = {}

    @property
    def read_count(self) -> int:
        return self._reads.n

    @read_count.setter
    def read_count(self, value: int) -> None:
        self._reads.n = value

    @property
    def write_count(self) -> int:
        return self._writes.n

    @write_count.setter
    def write_count(self, value: int) -> None:
        self._writes.n = value

    def metrics(self) -> tuple:
        """The instruments backing this device (adoption / iteration)."""
        return (self._reads, self._writes)

    @property
    def num_blocks(self) -> int:
        return self.capacity_bytes // self.block_size

    def read_block(self, address: int) -> bytes:
        """Read the 64-byte block at ``address`` (block-aligned)."""
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        self._reads.n += 1
        return self._blocks.get(address, ZERO_BLOCK)

    def read_block_touched(self, address: int):
        """One read of ``address``: ``(bytes, touched)``.

        ``touched`` is :meth:`is_touched` for the same block; the pair
        costs one ``nvm.reads`` count, like :meth:`read_block`.
        """
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        self._reads.n += 1
        data = self._blocks.get(address)
        if data is None:
            return ZERO_BLOCK, False
        return data, True

    def peek_block(self, address: int):
        """Observe a block without perturbing the device counters.

        Verification observers (the lockstep oracle, invariant sweeps)
        must not change ``nvm.reads`` — a checked run and an unchecked
        run have to produce bit-identical telemetry.  Returns ``None``
        for untouched (factory-fresh) blocks.
        """
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        return self._blocks.get(address)

    def write_block(self, address: int, data: bytes) -> None:
        """Persist one block.  Writing clears any poison at the address
        (a fresh write re-programs the cells)."""
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        if len(data) != self.block_size:
            raise ValueError(
                f"data must be {self.block_size} bytes, got {len(data)}"
            )
        self._writes.n += 1
        self._write_counts[address] = self._write_counts.get(address, 0) + 1
        self._blocks[address] = bytes(data)
        if self._poisoned:
            self._poisoned.discard(address)

    # ---- fault-injection hooks (reliability experiments) ----

    def flip_bits(self, address: int, bit_positions) -> None:
        """Flip the given bit positions inside the block at ``address``."""
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        block = bytearray(self._blocks.get(address, ZERO_BLOCK))
        for bit in bit_positions:
            if not 0 <= bit < self.block_size * 8:
                raise ValueError(f"bit {bit} out of block range")
            block[bit // 8] ^= 1 << (bit % 8)
        self._blocks[address] = bytes(block)

    def poison_block(self, address: int) -> None:
        """Mark a block as carrying an uncorrectable error.

        Reads still return the (possibly stale/garbled) contents, but
        :meth:`is_poisoned` lets the ECC model report the uncorrectable
        condition, mirroring hardware poisoning semantics.
        """
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        self._poisoned.add(address)

    def is_poisoned(self, address: int) -> bool:
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        return address in self._poisoned

    def clear_poison(self, address: int) -> None:
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        self._poisoned.discard(address)

    @property
    def poisoned_addresses(self):
        return frozenset(self._poisoned)

    @property
    def has_poison(self) -> bool:
        """True when any block is poisoned.  A healthy device (every
        benchmark run) lets readers skip the per-address probe."""
        return bool(self._poisoned)

    def erase_block(self, address: int) -> None:
        """Return a block to the factory-fresh (untouched, zero) state.

        Used by whole-memory re-keying: erasing the metadata regions
        re-arms the untouched-is-implicitly-valid convention under the
        new keys (cf. Silent Shredder's zero-cost shredding).
        """
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        self._blocks.pop(address, None)
        self._poisoned.discard(address)

    def is_touched(self, address: int) -> bool:
        """True if the block was ever written (or had faults injected).

        Untouched blocks are in the factory-fresh all-zeros state, which
        the secure controller treats as implicitly valid (cold memory).
        """
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        return address in self._blocks

    def touched_addresses(self):
        """Addresses that have ever been written (sorted)."""
        return sorted(self._blocks)

    # ---- endurance accounting (wear-leveling studies) ----

    def write_count_of(self, address: int) -> int:
        """Writes ever issued to the block at ``address``."""
        if address % self.block_size or not 0 <= address < self.capacity_bytes:
            raise self._address_error(address)
        return self._write_counts.get(address, 0)

    def wear_stats(self) -> dict:
        """Endurance summary: max/mean per-written-block write counts
        and the uniformity ratio (mean/max; 1.0 = perfectly level)."""
        if not self._write_counts:
            return {"max": 0, "mean": 0.0, "written_blocks": 0, "uniformity": 1.0}
        counts = self._write_counts.values()
        peak = max(counts)
        mean = sum(counts) / len(self._write_counts)
        return {
            "max": peak,
            "mean": mean,
            "written_blocks": len(self._write_counts),
            "uniformity": mean / peak if peak else 1.0,
        }

    def reset_counters(self) -> None:
        self._reads.reset()
        self._writes.reset()

    def _address_error(self, address: int) -> ValueError:
        """The error for an address that failed the inline bounds check
        every block method opens with (alignment is reported first)."""
        if address % self.block_size != 0:
            return ValueError(f"address {address:#x} not block-aligned")
        return ValueError(
            f"address {address:#x} outside capacity {self.capacity_bytes:#x}"
        )
