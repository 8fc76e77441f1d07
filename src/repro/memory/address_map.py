"""Physical layout of data and security metadata in NVM.

The map carves a single flat physical address space into the regions a
secure memory controller needs:

====================  =========================================================
region                contents
====================  =========================================================
``data``              user-visible 64-byte blocks (ciphertext)
``mac``               64-bit data MACs, packed eight per block
``counter``           level-1 encryption-counter blocks (64-ary split counters)
``counter_mac``       64-bit ToC MACs of counter blocks, packed eight per block
``tree``              ToC intermediate nodes, level 2 upward (root is on-chip)
``clone``             Soteria clone copies of counter/tree nodes, per depth
``counter_mac_clone`` clone copies of the sidecar MAC blocks (depth > 1)
``shadow``            Anubis shadow-table entries (one per metadata-cache slot)
``shadow_tree``       eagerly-updated BMT nodes protecting the shadow table
====================  =========================================================

Levels are numbered as in the paper: level 1 is the encryption-counter
(leaf) level, level 2 its 8-ary parent, and so on; the root is kept in
the processor and has no memory address.
"""

from __future__ import annotations

from repro.constants import (
    CACHELINE_BYTES,
    SPLIT_COUNTER_ARITY,
    TOC_ARITY,
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _index_error(index: int, limit: int, what: str) -> IndexError:
    return IndexError(f"{what} index {index} out of range [0, {limit})")


def _level_error(level: int, num_levels: int) -> ValueError:
    return ValueError(f"level {level} out of range [1, {num_levels}]")


def tree_level_sizes(num_data_blocks: int) -> list:
    """Node counts per level for a ToC over ``num_data_blocks`` blocks.

    Index 0 of the returned list is level 1 (counter blocks); the last
    entry is the highest in-memory level (the root's children when the
    tree has more than one level).  A tree degenerates to a single
    counter block for tiny memories, in which case the root directly
    protects it.
    """
    if num_data_blocks <= 0:
        raise ValueError("num_data_blocks must be positive")
    sizes = [_ceil_div(num_data_blocks, SPLIT_COUNTER_ARITY)]
    while sizes[-1] > TOC_ARITY:
        sizes.append(_ceil_div(sizes[-1], TOC_ARITY))
    return sizes


class AddressMap:
    """Deterministic region layout for one secure NVM.

    ``clone_depths`` maps level number -> total copies (original
    included) as in Table 2; omit it (or pass ``None``) for a baseline
    layout with no clone region.
    """

    #: 64-bit MACs packed per data-MAC or sidecar block.
    MACS_PER_BLOCK = 8

    def __init__(
        self,
        data_bytes: int,
        clone_depths=None,
        shadow_entries: int = 0,
        block_size: int = CACHELINE_BYTES,
        counter_mac_depth: int = 1,
    ):
        if data_bytes <= 0 or data_bytes % block_size != 0:
            raise ValueError("data_bytes must be a positive multiple of block size")
        if counter_mac_depth < 1:
            raise ValueError("counter_mac_depth counts the original; must be >= 1")
        self.block_size = block_size
        self.data_bytes = data_bytes
        self.num_data_blocks = data_bytes // block_size
        self.level_sizes = tree_level_sizes(self.num_data_blocks)
        self.num_levels = len(self.level_sizes)
        self.clone_depths = dict(clone_depths or {})
        for level, depth in self.clone_depths.items():
            if not 1 <= level <= self.num_levels:
                raise ValueError(f"clone depth given for invalid level {level}")
            if depth < 1:
                raise ValueError("clone depth counts the original; must be >= 1")
        self.shadow_entries = shadow_entries

        # --- region offsets, laid out back to back ---
        cursor = self.data_bytes
        self.mac_offset = cursor
        self.num_mac_blocks = _ceil_div(self.num_data_blocks, self.MACS_PER_BLOCK)
        cursor += self.num_mac_blocks * block_size

        self.counter_offset = cursor
        cursor += self.level_sizes[0] * block_size

        # Split-counter blocks have no embedded MAC (64 x 7-bit minors +
        # one 64-bit major fill the whole line), so their ToC MACs live
        # in a packed sidecar region, eight 64-bit MACs per block.
        self.counter_mac_offset = cursor
        self.num_counter_mac_blocks = _ceil_div(
            self.level_sizes[0], self.MACS_PER_BLOCK
        )
        cursor += self.num_counter_mac_blocks * block_size

        self.tree_offsets = {}
        for level in range(2, self.num_levels + 1):
            self.tree_offsets[level] = cursor
            cursor += self.level_sizes[level - 1] * block_size

        self.clone_offsets = {}
        for level in range(1, self.num_levels + 1):
            extra = self.clone_depths.get(level, 1) - 1
            if extra > 0:
                self.clone_offsets[level] = cursor
                cursor += self.level_sizes[level - 1] * extra * block_size

        # The sidecar MACs are a single point of failure for the eight
        # counter blocks each sidecar block serves, so Soteria layouts
        # clone them like any other metadata (the paper embeds leaf
        # MACs; our packed sidecar needs explicit copies instead).
        self.counter_mac_depth = counter_mac_depth
        self.counter_mac_clone_offset = cursor
        cursor += self.num_counter_mac_blocks * (counter_mac_depth - 1) * block_size

        self.shadow_offset = cursor
        cursor += self.shadow_entries * block_size

        self.shadow_tree_offset = cursor
        self.num_shadow_tree_nodes = (
            _ceil_div(self.shadow_entries, TOC_ARITY) if self.shadow_entries else 0
        )
        cursor += self.num_shadow_tree_nodes * block_size

        self.total_bytes = cursor

        # Base address of every stored copy, original first, of each
        # level's nodes (index 0 unused) and of the sidecar blocks: copy
        # ``c`` of node ``i`` sits at ``copy_offsets[level][c] + i *
        # block_size``.  Callers holding an index they already checked
        # address a node by this arithmetic; the methods below check it.
        self.level_offsets = [None, self.counter_offset] + [
            self.tree_offsets[level] for level in range(2, self.num_levels + 1)
        ]
        self.copy_offsets = [None]
        for level in range(1, self.num_levels + 1):
            per_copy = self.level_sizes[level - 1] * block_size
            clones = self.clone_depths.get(level, 1) - 1
            self.copy_offsets.append((self.level_offsets[level],) + tuple(
                self.clone_offsets[level] + c * per_copy for c in range(clones)
            ))
        per_copy = self.num_counter_mac_blocks * block_size
        self.counter_mac_copy_offsets = (self.counter_mac_offset,) + tuple(
            self.counter_mac_clone_offset + c * per_copy
            for c in range(counter_mac_depth - 1)
        )

    # ---- per-region address calculators ----

    def data_addr(self, block_index: int) -> int:
        if not 0 <= block_index < self.num_data_blocks:
            raise _index_error(block_index, self.num_data_blocks, "data block")
        return block_index * self.block_size

    def mac_addr(self, data_block_index: int) -> int:
        """Address of the MAC *block* holding this data block's MAC."""
        if not 0 <= data_block_index < self.num_data_blocks:
            raise _index_error(data_block_index, self.num_data_blocks, "data block")
        return (
            self.mac_offset
            + (data_block_index // self.MACS_PER_BLOCK) * self.block_size
        )

    def mac_slot(self, data_block_index: int) -> int:
        """Slot (0-7) of this data block's MAC within its MAC block."""
        if not 0 <= data_block_index < self.num_data_blocks:
            raise _index_error(data_block_index, self.num_data_blocks, "data block")
        return data_block_index % self.MACS_PER_BLOCK

    def counter_mac_addr(self, counter_index: int) -> int:
        """Address of the sidecar block holding this counter block's MAC."""
        if not 0 <= counter_index < self.level_sizes[0]:
            raise _index_error(counter_index, self.level_sizes[0], "counter block")
        return (
            self.counter_mac_offset
            + (counter_index // self.MACS_PER_BLOCK) * self.block_size
        )

    def counter_mac_slot(self, counter_index: int) -> int:
        """Slot (0-7) of this counter block's MAC in its sidecar block."""
        if not 0 <= counter_index < self.level_sizes[0]:
            raise _index_error(counter_index, self.level_sizes[0], "counter block")
        return counter_index % self.MACS_PER_BLOCK

    def counter_index_of_data(self, data_block_index: int) -> int:
        if not 0 <= data_block_index < self.num_data_blocks:
            raise _index_error(data_block_index, self.num_data_blocks, "data block")
        return data_block_index // SPLIT_COUNTER_ARITY

    def counter_slot_of_data(self, data_block_index: int) -> int:
        if not 0 <= data_block_index < self.num_data_blocks:
            raise _index_error(data_block_index, self.num_data_blocks, "data block")
        return data_block_index % SPLIT_COUNTER_ARITY

    def node_addr(self, level: int, index: int) -> int:
        """Address of the original copy of a metadata node.

        Level 1 is the counter level; levels 2+ are tree nodes.
        """
        if not 1 <= level <= self.num_levels:
            raise _level_error(level, self.num_levels)
        if not 0 <= index < self.level_sizes[level - 1]:
            raise _index_error(index, self.level_sizes[level - 1], f"level-{level} node")
        return self.level_offsets[level] + index * self.block_size

    def node_index(self, level: int, address: int) -> int:
        """Index of the level-``level`` node whose original copy is at
        ``address``: the inverse of :meth:`node_addr`."""
        if not 1 <= level <= self.num_levels:
            raise _level_error(level, self.num_levels)
        index, rem = divmod(address - self.level_offsets[level], self.block_size)
        if rem or not 0 <= index < self.level_sizes[level - 1]:
            raise ValueError(f"address {address:#x} is not a level-{level} node")
        return index

    def clone_addr(self, level: int, index: int, copy: int) -> int:
        """Address of clone ``copy`` (1-based) of a metadata node."""
        if not 1 <= level <= self.num_levels:
            raise _level_error(level, self.num_levels)
        depth = self.clone_depths.get(level, 1)
        if not 1 <= copy < depth:
            raise ValueError(
                f"copy {copy} invalid for level {level} with depth {depth}"
            )
        if not 0 <= index < self.level_sizes[level - 1]:
            raise _index_error(index, self.level_sizes[level - 1], f"level-{level} node")
        return self.copy_offsets[level][copy] + index * self.block_size

    def all_copies(self, level: int, index: int) -> list:
        """Addresses of every stored copy of a node, original first."""
        offset = self.node_addr(level, index) - self.level_offsets[level]
        return [base + offset for base in self.copy_offsets[level]]

    def counter_mac_clone_addr(self, sidecar_index: int, copy: int) -> int:
        """Address of clone ``copy`` (1-based) of a sidecar MAC block."""
        if not 1 <= copy < self.counter_mac_depth:
            raise ValueError(
                f"copy {copy} invalid for sidecar depth {self.counter_mac_depth}"
            )
        if not 0 <= sidecar_index < self.num_counter_mac_blocks:
            raise _index_error(sidecar_index, self.num_counter_mac_blocks, "sidecar block")
        return self.counter_mac_copy_offsets[copy] + sidecar_index * self.block_size

    def counter_mac_copies(self, sidecar_index: int) -> list:
        """Addresses of every stored copy of a sidecar block, original
        first."""
        return [
            self.counter_mac_offset + sidecar_index * self.block_size
        ] + [
            self.counter_mac_clone_addr(sidecar_index, c)
            for c in range(1, self.counter_mac_depth)
        ]

    def shadow_entry_addr(self, entry_index: int) -> int:
        if not 0 <= entry_index < self.shadow_entries:
            raise _index_error(entry_index, self.shadow_entries, "shadow entry")
        return self.shadow_offset + entry_index * self.block_size

    def shadow_tree_addr(self, node_index: int) -> int:
        if not 0 <= node_index < self.num_shadow_tree_nodes:
            raise _index_error(node_index, self.num_shadow_tree_nodes, "shadow tree node")
        return self.shadow_tree_offset + node_index * self.block_size

    # ---- tree arithmetic ----

    def parent_of(self, level: int, index: int):
        """(level, index) of the parent node, or ``None`` for top level."""
        if not 1 <= level <= self.num_levels:
            raise _level_error(level, self.num_levels)
        if not 0 <= index < self.level_sizes[level - 1]:
            raise _index_error(index, self.level_sizes[level - 1], f"level-{level} node")
        if level == self.num_levels:
            return None
        return level + 1, index // TOC_ARITY

    def child_slot(self, level: int, index: int) -> int:
        """Which counter slot of the parent covers this node."""
        if not 1 <= level <= self.num_levels:
            raise _level_error(level, self.num_levels)
        return index % TOC_ARITY

    def data_blocks_covered(self, level: int, index: int) -> range:
        """Range of data-block indices protected by a metadata node."""
        if not 1 <= level <= self.num_levels:
            raise _level_error(level, self.num_levels)
        if not 0 <= index < self.level_sizes[level - 1]:
            raise _index_error(index, self.level_sizes[level - 1], f"level-{level} node")
        span = SPLIT_COUNTER_ARITY * TOC_ARITY ** (level - 1)
        start = index * span
        stop = min(start + span, self.num_data_blocks)
        return range(start, stop)

    def region_of(self, address: int):
        """Classify an address: returns a tuple starting with the region
        name, followed by region-specific coordinates."""
        if address % self.block_size != 0:
            raise ValueError(f"address {address:#x} not block-aligned")
        if not 0 <= address < self.total_bytes:
            raise ValueError(f"address {address:#x} outside mapped space")
        if address < self.mac_offset:
            return ("data", address // self.block_size)
        if address < self.counter_offset:
            return ("mac", (address - self.mac_offset) // self.block_size)
        if address < self.counter_mac_offset:
            return ("counter", (address - self.counter_offset) // self.block_size)
        if address < self.counter_mac_offset + self.num_counter_mac_blocks * self.block_size:
            return (
                "counter_mac",
                (address - self.counter_mac_offset) // self.block_size,
            )
        for level in range(self.num_levels, 1, -1):
            offset = self.tree_offsets[level]
            end = offset + self.level_sizes[level - 1] * self.block_size
            if offset <= address < end:
                return ("tree", level, (address - offset) // self.block_size)
        for level, offset in self.clone_offsets.items():
            per_copy = self.level_sizes[level - 1] * self.block_size
            extra = self.clone_depths[level] - 1
            end = offset + per_copy * extra
            if offset <= address < end:
                rel = address - offset
                copy, rem = divmod(rel, per_copy)
                return ("clone", level, rem // self.block_size, copy + 1)
        if self.counter_mac_clone_offset <= address < self.shadow_offset:
            per_copy = self.num_counter_mac_blocks * self.block_size
            rel = address - self.counter_mac_clone_offset
            copy, rem = divmod(rel, per_copy)
            return ("counter_mac_clone", rem // self.block_size, copy + 1)
        if self.shadow_offset <= address < self.shadow_offset + self.shadow_entries * self.block_size:
            return ("shadow", (address - self.shadow_offset) // self.block_size)
        return (
            "shadow_tree",
            (address - self.shadow_tree_offset) // self.block_size,
        )
