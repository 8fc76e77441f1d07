"""Start-Gap wear leveling (Qureshi et al., MICRO 2009).

Emerging NVM cells wear out; a hot line written continuously dies
orders of magnitude sooner than the average.  Start-Gap fixes this
with two registers and one spare line:

* ``N`` logical lines live in ``N + 1`` physical slots;
* one slot is the *gap*; every ``psi`` writes the line before the gap
  moves into it, walking the gap backward through the array;
* each full gap rotation advances ``start``, shifting the whole
  logical-to-physical mapping by one — over time every logical line
  visits every physical slot.

The mapping is the paper's closed form:  ``P = (L + start) mod (N+1)``,
then ``P += 1`` if ``P >= gap`` — a bijection from logical lines to the
non-gap physical slots (property-tested in ``tests/test_wear_leveling``).

:class:`WearLevelingNvm` wraps any :class:`~repro.memory.nvm.NvmDevice`
and remaps transparently, so the secure memory controller can run on a
wear-leveled device unchanged (the controller's addresses are logical;
encryption/MAC address binding sits *above* wear leveling, exactly as
in real parts).
"""

from __future__ import annotations

from repro.constants import CACHELINE_BYTES


class StartGapRemapper:
    """The two-register Start-Gap algebra over N logical lines."""

    def __init__(self, num_lines: int, psi: int = 100):
        if num_lines <= 0:
            raise ValueError("num_lines must be positive")
        if psi <= 0:
            raise ValueError("psi (gap-move period) must be positive")
        self.num_lines = num_lines
        self.num_slots = num_lines + 1
        self.psi = psi
        self.start = 0
        self.gap = num_lines  # gap begins at the last physical slot
        self.writes_since_move = 0
        self.gap_moves = 0

    def physical_of(self, logical: int) -> int:
        """Physical slot currently holding logical line ``logical``.

        Qureshi's closed form: rotate by ``start`` modulo the *line*
        count (0..N-1), then skip over the gap slot — a bijection onto
        the N non-gap slots of the N+1-slot array.
        """
        if not 0 <= logical < self.num_lines:
            raise IndexError(
                f"logical line {logical} out of range [0, {self.num_lines})"
            )
        physical = (logical + self.start) % self.num_lines
        if physical >= self.gap:
            physical += 1
        return physical

    def logical_of(self, physical: int):
        """Logical line held by physical slot ``physical``, or ``None``
        for the gap slot: the inverse of :meth:`physical_of`."""
        if not 0 <= physical < self.num_slots:
            raise IndexError(
                f"physical slot {physical} out of range [0, {self.num_slots})"
            )
        if physical == self.gap:
            return None
        if physical > self.gap:
            physical -= 1
        return (physical - self.start) % self.num_lines

    def note_write(self):
        """Account one write; returns a (src, dst) relocation when the
        gap must move (the caller copies the line), else None."""
        self.writes_since_move += 1
        if self.writes_since_move < self.psi:
            return None
        self.writes_since_move = 0
        self.gap_moves += 1
        # The line just before the gap slides into the gap slot.
        src = (self.gap - 1) % self.num_slots
        dst = self.gap
        self.gap = src
        if self.gap == self.num_slots - 1:
            # Completed a full rotation: shift the whole mapping.
            self.start = (self.start + 1) % self.num_lines
        return src, dst


class WearLevelingNvm:
    """A Start-Gap remapping layer over an NVM device.

    Presents the same block interface as :class:`NvmDevice` for a
    *logical* capacity one block smaller than the backing device (the
    spare gap line).  Gap relocations move each line with its written
    state and poison, so contents are preserved across arbitrarily many
    rotations.  Traffic counters and
    wear figures are the backing device's: physical traffic, gap
    relocations included.
    """

    def __init__(self, backing, psi: int = 100, block_size: int = CACHELINE_BYTES):
        self._nvm = backing
        self.block_size = block_size
        num_slots = backing.capacity_bytes // block_size
        if num_slots < 2:
            raise ValueError("backing device too small for a gap line")
        self.remap = StartGapRemapper(num_lines=num_slots - 1, psi=psi)
        self.capacity_bytes = self.remap.num_lines * block_size

    @property
    def backing(self):
        return self._nvm

    @property
    def num_blocks(self) -> int:
        return self.remap.num_lines

    def _physical(self, address: int) -> int:
        if address % self.block_size != 0:
            raise ValueError(f"address {address:#x} not block-aligned")
        if not 0 <= address < self.capacity_bytes:
            raise ValueError(f"address {address:#x} outside logical capacity")
        return self.remap.physical_of(address // self.block_size) * self.block_size

    # ---- NvmDevice interface, remapped ----

    def read_block(self, address: int) -> bytes:
        return self._nvm.read_block(self._physical(address))

    def read_block_touched(self, address: int):
        return self._nvm.read_block_touched(self._physical(address))

    def peek_block(self, address: int):
        return self._nvm.peek_block(self._physical(address))

    def write_block(self, address: int, data: bytes) -> None:
        self._nvm.write_block(self._physical(address), data)
        relocation = self.remap.note_write()
        if relocation is not None:
            # The line moves as it is: one read and one write of wear,
            # and a never-written line stays unwritten, a poisoned one
            # poisoned.
            src, dst = (slot * self.block_size for slot in relocation)
            data, touched = self._nvm.read_block_touched(src)
            self._nvm.write_block(dst, data)
            if not touched:
                self._nvm.erase_block(dst)
            if self._nvm.is_poisoned(src):
                self._nvm.poison_block(dst)

    def flip_bits(self, address: int, bit_positions) -> None:
        self._nvm.flip_bits(self._physical(address), bit_positions)

    def poison_block(self, address: int) -> None:
        self._nvm.poison_block(self._physical(address))

    def is_poisoned(self, address: int) -> bool:
        return self._nvm.is_poisoned(self._physical(address))

    def clear_poison(self, address: int) -> None:
        self._nvm.clear_poison(self._physical(address))

    @property
    def poisoned_addresses(self):
        """Logical addresses whose physical line is poisoned."""
        return frozenset(self._logical(self._nvm.poisoned_addresses))

    @property
    def has_poison(self) -> bool:
        return self._nvm.has_poison

    def erase_block(self, address: int) -> None:
        self._nvm.erase_block(self._physical(address))

    def is_touched(self, address: int) -> bool:
        return self._nvm.is_touched(self._physical(address))

    def touched_addresses(self):
        """Logical addresses currently holding written data (sorted)."""
        return sorted(self._logical(self._nvm.touched_addresses()))

    def _logical(self, physical_addresses):
        """Logical addresses of the given physical ones, gap skipped."""
        for address in physical_addresses:
            logical = self.remap.logical_of(address // self.block_size)
            if logical is not None:
                yield logical * self.block_size

    @property
    def read_count(self) -> int:
        return self._nvm.read_count

    @property
    def write_count(self) -> int:
        return self._nvm.write_count

    def metrics(self) -> tuple:
        """The backing device's instruments: physical traffic."""
        return self._nvm.metrics()

    def write_count_of(self, address: int) -> int:
        """Writes ever issued to the physical line that now holds
        ``address``: the wear of the cells behind it, gap relocations
        included, not the writes this logical address received (those
        spread over every line the address has visited)."""
        return self._nvm.write_count_of(self._physical(address))

    def wear_stats(self) -> dict:
        return self._nvm.wear_stats()

    def reset_counters(self) -> None:
        self._nvm.reset_counters()
