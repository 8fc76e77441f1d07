"""DIMM device geometry (Table 4 of the paper).

The fault simulator injects faults at the granularity of the physical
device structure — bits, words, columns, rows, banks, and ranks inside
individual chips — and the ECC model needs to know how a 512-bit data
codeword is striped across chips.  This module owns that arithmetic.

Default values reproduce Table 4: 18 chips per DIMM, 9 chips per rank
(8 data + 1 spare for redundancy in a Chipkill organization), 8-bit bus
per chip, 2 ranks, 16 banks, 16384 rows, 4096 columns.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DimmGeometry:
    """Physical organization of one DIMM."""

    chips: int = 18
    chips_per_rank: int = 9
    bus_bits_per_chip: int = 8
    ranks: int = 2
    banks: int = 16
    rows: int = 16384
    cols: int = 4096
    data_block_bits: int = 512

    def __post_init__(self):
        if self.chips <= 0 or self.chips_per_rank <= 0:
            raise ValueError("chip counts must be positive")
        if self.chips != self.chips_per_rank * self.ranks:
            raise ValueError(
                "chips must equal chips_per_rank * ranks "
                f"({self.chips} != {self.chips_per_rank} * {self.ranks})"
            )
        if self.banks <= 0 or self.rows <= 0 or self.cols <= 0:
            raise ValueError("bank/row/col counts must be positive")
        if self.data_block_bits % self.bus_bits_per_chip != 0:
            raise ValueError("data block must stripe evenly across the bus")

    @property
    def beats_per_block(self) -> int:
        """Bus beats (column accesses) needed to move one data block
        through a single chip's bus slice."""
        return self.data_block_bits // self.bus_bits_per_chip

    @property
    def blocks_per_row(self) -> int:
        """Data blocks stored per (chip) row, given beat striping."""
        return self.cols // self.beats_per_block

    @property
    def blocks_per_rank(self) -> int:
        """Data blocks addressable in one rank (one block spans all
        data chips of the rank at the same bank/row/col)."""
        return self.banks * self.rows * self.blocks_per_row

    @property
    def total_blocks(self) -> int:
        return self.blocks_per_rank * self.ranks

    def block_location(self, block_index: int):
        """Map a block index to its (rank, bank, row, col_start).

        Blocks are laid out rank-major, then bank, then row, then the
        column group within the row.  Every chip in the rank stores the
        same (bank, row, col) slice of the block — that is what makes
        Chipkill possible: losing one chip loses one slice of each
        codeword, which the code can reconstruct.
        """
        if not 0 <= block_index < self.total_blocks:
            raise IndexError(
                f"block {block_index} out of range [0, {self.total_blocks})"
            )
        rank, rem = divmod(block_index, self.blocks_per_rank)
        bank, rem = divmod(rem, self.rows * self.blocks_per_row)
        row, col_group = divmod(rem, self.blocks_per_row)
        return rank, bank, row, col_group * self.beats_per_block

    def chip_ids_of_rank(self, rank: int):
        """Chip indices belonging to ``rank``."""
        if not 0 <= rank < self.ranks:
            raise IndexError(f"rank {rank} out of range")
        start = rank * self.chips_per_rank
        return list(range(start, start + self.chips_per_rank))
