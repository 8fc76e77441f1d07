"""Tests for the physical address map and tree geometry arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressMap, tree_level_sizes

MB = 1024 * 1024


class TestTreeLevelSizes:
    def test_small_memory_single_level(self):
        # 64 data blocks -> 1 counter block; root protects it directly.
        assert tree_level_sizes(64) == [1]

    def test_16mb_tree(self):
        blocks = 16 * MB // 64  # 262144 data blocks
        sizes = tree_level_sizes(blocks)
        assert sizes[0] == blocks // 64  # 4096 counter blocks
        assert sizes == [4096, 512, 64, 8]

    def test_levels_shrink_by_arity(self):
        sizes = tree_level_sizes(10**7)
        for below, above in zip(sizes, sizes[1:]):
            assert above == -(-below // 8)
        assert sizes[-1] <= 8

    def test_1tb_levels(self):
        blocks = (1 << 40) // 64
        sizes = tree_level_sizes(blocks)
        # 1TB: 2^34 blocks -> 2^28 counters, then /8 per level until the
        # top fits under the on-chip root (paper: ~9 levels + root).
        assert sizes[0] == 1 << 28
        assert len(sizes) == 10
        assert 1 <= sizes[-1] <= 8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tree_level_sizes(0)


class TestAddressMap:
    @pytest.fixture
    def amap(self):
        return AddressMap(data_bytes=MB, clone_depths={1: 2, 2: 3},
                          counter_mac_depth=2, shadow_entries=64)

    def test_region_ordering(self, amap):
        assert amap.mac_offset == amap.data_bytes
        assert amap.counter_offset > amap.mac_offset
        assert amap.shadow_offset < amap.shadow_tree_offset
        assert amap.total_bytes >= amap.shadow_tree_offset

    def test_level_sizes_1mb(self, amap):
        # 1MB = 16384 blocks -> 256 counter blocks -> 32 -> 4 (top).
        assert amap.level_sizes == [256, 32, 4]
        assert amap.num_levels == 3

    def test_data_addr_identity(self, amap):
        assert amap.data_addr(0) == 0
        assert amap.data_addr(5) == 5 * 64

    def test_mac_packing(self, amap):
        assert amap.mac_addr(0) == amap.mac_addr(7)
        assert amap.mac_addr(8) == amap.mac_addr(0) + 64
        assert amap.mac_slot(10) == 2

    def test_counter_mapping(self, amap):
        assert amap.counter_index_of_data(0) == 0
        assert amap.counter_index_of_data(63) == 0
        assert amap.counter_index_of_data(64) == 1
        assert amap.counter_slot_of_data(65) == 1

    def test_node_addr_levels(self, amap):
        c0 = amap.node_addr(1, 0)
        assert c0 == amap.counter_offset
        t2 = amap.node_addr(2, 0)
        assert t2 == amap.tree_offsets[2]
        with pytest.raises(ValueError):
            amap.node_addr(4, 0)  # only 3 levels
        with pytest.raises(IndexError):
            amap.node_addr(2, 32)

    def test_node_index_inverts_node_addr(self, amap):
        for level in range(1, amap.num_levels + 1):
            for index in range(amap.level_sizes[level - 1]):
                address = amap.node_addr(level, index)
                assert amap.node_index(level, address) == index
                assert amap.region_of(address)[-1] == index

    @pytest.mark.parametrize("level, address, error, message", [
        (0, 0, ValueError, "level 0 out of range [1, 3]"),
        (4, 0, ValueError, "level 4 out of range [1, 3]"),
        (1, 0, ValueError, "address 0x0 is not a level-1 node"),
        (2, "counter_offset", ValueError,
         "address {:#x} is not a level-2 node"),
        (1, "tree2", ValueError, "address {:#x} is not a level-1 node"),
        (1, "misaligned", ValueError, "address {:#x} is not a level-1 node"),
    ])
    def test_node_index_rejects_other_addresses(self, amap, level, address,
                                                error, message):
        address = {
            "counter_offset": amap.counter_offset,
            "tree2": amap.tree_offsets[2],
            "misaligned": amap.counter_offset + 1,
        }.get(address, address)
        with pytest.raises(error) as info:
            amap.node_index(level, address)
        assert str(info.value) == message.format(address)

    def test_clone_addresses_distinct_from_originals(self, amap):
        original = amap.node_addr(1, 5)
        clone = amap.clone_addr(1, 5, 1)
        assert clone != original
        assert amap.region_of(clone)[0] == "clone"
        assert amap.region_of(original)[0] == "counter"

    def test_clone_depth_bounds(self, amap):
        with pytest.raises(ValueError):
            amap.clone_addr(1, 0, 2)  # depth 2 -> only copy 1 exists
        amap.clone_addr(2, 0, 2)  # depth 3 -> copies 1 and 2 exist
        with pytest.raises(ValueError):
            amap.clone_addr(3, 0, 1)  # level 3 has no clones

    def test_all_copies(self, amap):
        copies = amap.all_copies(2, 3)
        assert len(copies) == 3
        assert copies[0] == amap.node_addr(2, 3)
        assert len(set(copies)) == 3

    def test_parent_chain_reaches_top(self, amap):
        level, index = 1, 200
        chain = [(level, index)]
        while True:
            parent = amap.parent_of(level, index)
            if parent is None:
                break
            level, index = parent
            chain.append(parent)
        assert chain[-1][0] == amap.num_levels
        assert all(b[1] == a[1] // 8 for a, b in zip(chain, chain[1:]))

    def test_child_slot(self, amap):
        assert amap.child_slot(1, 9) == 1
        assert amap.child_slot(1, 16) == 0

    def test_coverage_spans(self, amap):
        cover = amap.data_blocks_covered(1, 0)
        assert cover == range(0, 64)
        cover2 = amap.data_blocks_covered(2, 0)
        assert cover2 == range(0, 512)
        top = amap.data_blocks_covered(3, 0)
        assert len(top) == 4096

    def test_coverage_clamped_to_memory(self):
        # 65 data blocks -> 2 counter blocks, second covers only 1 block.
        amap = AddressMap(data_bytes=65 * 64)
        assert len(amap.data_blocks_covered(1, 1)) == 1

    def test_region_of_every_region(self, amap):
        assert amap.region_of(0) == ("data", 0)
        assert amap.region_of(amap.mac_addr(0)) == ("mac", 0)
        assert amap.region_of(amap.node_addr(1, 3)) == ("counter", 3)
        assert amap.region_of(amap.counter_mac_addr(0)) == ("counter_mac", 0)
        assert amap.counter_mac_slot(10) == 2
        assert amap.counter_mac_addr(8) == amap.counter_mac_addr(0) + 64
        assert amap.region_of(amap.node_addr(2, 1)) == ("tree", 2, 1)
        assert amap.region_of(amap.clone_addr(2, 1, 2)) == ("clone", 2, 1, 2)
        assert amap.region_of(amap.shadow_entry_addr(9)) == ("shadow", 9)
        assert amap.region_of(amap.shadow_tree_addr(0)) == ("shadow_tree", 0)

    @pytest.mark.parametrize("method,args,error,message", [
        ("data_addr", (16384,), IndexError,
         "data block index 16384 out of range [0, 16384)"),
        ("mac_addr", (-1,), IndexError,
         "data block index -1 out of range [0, 16384)"),
        ("mac_slot", (16384,), IndexError,
         "data block index 16384 out of range [0, 16384)"),
        ("counter_index_of_data", (-1,), IndexError,
         "data block index -1 out of range [0, 16384)"),
        ("counter_slot_of_data", (16384,), IndexError,
         "data block index 16384 out of range [0, 16384)"),
        ("counter_mac_addr", (256,), IndexError,
         "counter block index 256 out of range [0, 256)"),
        ("counter_mac_slot", (-1,), IndexError,
         "counter block index -1 out of range [0, 256)"),
        ("node_addr", (0, 0), ValueError, "level 0 out of range [1, 3]"),
        ("node_addr", (2, 32), IndexError,
         "level-2 node index 32 out of range [0, 32)"),
        ("all_copies", (1, 256), IndexError,
         "level-1 node index 256 out of range [0, 256)"),
        ("clone_addr", (4, 0, 1), ValueError, "level 4 out of range [1, 3]"),
        ("clone_addr", (3, 0, 1), ValueError,
         "copy 1 invalid for level 3 with depth 1"),
        ("clone_addr", (2, 32, 1), IndexError,
         "level-2 node index 32 out of range [0, 32)"),
        ("counter_mac_clone_addr", (32, 1), IndexError,
         "sidecar block index 32 out of range [0, 32)"),
        ("shadow_entry_addr", (64,), IndexError,
         "shadow entry index 64 out of range [0, 64)"),
        ("shadow_tree_addr", (8,), IndexError,
         "shadow tree node index 8 out of range [0, 8)"),
        ("parent_of", (4, 0), ValueError, "level 4 out of range [1, 3]"),
        ("parent_of", (1, 256), IndexError,
         "level-1 node index 256 out of range [0, 256)"),
        ("child_slot", (0, 0), ValueError, "level 0 out of range [1, 3]"),
        ("data_blocks_covered", (3, 4), IndexError,
         "level-3 node index 4 out of range [0, 4)"),
    ])
    def test_bounds_errors(self, amap, method, args, error, message):
        """Every calculator rejects out-of-range input with the same
        exception type and message."""
        with pytest.raises(error) as info:
            getattr(amap, method)(*args)
        assert str(info.value) == message

    def test_region_of_validates(self, amap):
        with pytest.raises(ValueError):
            amap.region_of(3)
        with pytest.raises(ValueError):
            amap.region_of(amap.total_bytes)

    def test_no_region_overlap(self, amap):
        """Every block address in the map belongs to exactly one region
        and round-trips through the region-specific calculator."""
        seen = set()
        for i in range(amap.num_data_blocks):
            seen.add(amap.data_addr(i))
        for i in range(amap.num_mac_blocks):
            seen.add(amap.mac_offset + i * 64)
        for i in range(amap.num_counter_mac_blocks):
            seen.add(amap.counter_mac_offset + i * 64)
        for level in range(1, amap.num_levels + 1):
            for i in range(amap.level_sizes[level - 1]):
                seen.add(amap.node_addr(level, i))
                depth = amap.clone_depths.get(level, 1)
                for c in range(1, depth):
                    seen.add(amap.clone_addr(level, i, c))
        for i in range(amap.num_counter_mac_blocks):
            for c in range(1, amap.counter_mac_depth):
                seen.add(amap.counter_mac_clone_addr(i, c))
        for i in range(amap.shadow_entries):
            seen.add(amap.shadow_entry_addr(i))
        for i in range(amap.num_shadow_tree_nodes):
            seen.add(amap.shadow_tree_addr(i))
        assert len(seen) == amap.total_bytes // 64

    def test_counter_mac_clone_region(self, amap):
        clone = amap.counter_mac_clone_addr(3, 1)
        assert amap.region_of(clone) == ("counter_mac_clone", 3, 1)
        assert amap.counter_mac_copies(3) == [amap.counter_mac_addr(24),
                                              clone]
        with pytest.raises(ValueError):
            amap.counter_mac_clone_addr(0, 2)  # depth 2 -> only copy 1
        with pytest.raises(ValueError):
            AddressMap(data_bytes=MB, counter_mac_depth=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AddressMap(data_bytes=100)
        with pytest.raises(ValueError):
            AddressMap(data_bytes=MB, clone_depths={99: 2})
        with pytest.raises(ValueError):
            AddressMap(data_bytes=MB, clone_depths={1: 0})

    @settings(max_examples=30, deadline=None)
    @given(
        data_mb=st.integers(min_value=1, max_value=64),
        block=st.integers(min_value=0, max_value=10**9),
    )
    def test_property_parent_covers_child(self, data_mb, block):
        amap = AddressMap(data_bytes=data_mb * MB)
        block %= amap.num_data_blocks
        counter_idx = amap.counter_index_of_data(block)
        level, index = 1, counter_idx
        while True:
            cover = amap.data_blocks_covered(level, index)
            assert block in cover
            parent = amap.parent_of(level, index)
            if parent is None:
                break
            level, index = parent
