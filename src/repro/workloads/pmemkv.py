"""PMEMKV-style key-value store workloads.

Intel's pmemkv serves puts/gets against a persistent index (cmap/stree)
plus out-of-line values.  Each operation is an index descent (a couple
of pointer-dependent reads over a Zipf-popular key space) followed by a
value access; puts add an index update.  ``pmemkv_put`` and
``pmemkv_get`` bound the write-intensity range of the engine.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import (
    Workload,
    check_at_least,
    synthetic,
    zipf_addresses,
)

BLOCK = 64


def _pmemkv_generator(put_fraction: float, index_levels: int, gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        index_blocks = max(1, blocks // 8)   # index in the first 1/8th
        value_base = index_blocks
        value_blocks = blocks - value_base
        keys = zipf_addresses(rng, value_blocks, num_refs).tolist()
        puts = (rng.random(size=num_refs) < put_fraction).tolist()
        addresses = []
        writes = []
        for key, is_put in zip(keys, puts):
            if len(addresses) >= num_refs:
                break
            node = key
            for level in range(index_levels):
                address = ((node * 40503 + level) % index_blocks) * BLOCK
                addresses.append(address)
                node = node * 31 + 17
            value_address = (value_base + key) * BLOCK
            if is_put:
                # Value write, then the index leaf update for the new
                # version pointer.
                addresses += [
                    value_address,
                    ((key * 40503) % index_blocks) * BLOCK,
                ]
                writes += [False] * index_levels + [True, True]
            else:
                addresses.append(value_address)
                writes += [False] * (index_levels + 1)
        return addresses, writes, np.full(len(addresses), gap)
    return generate


def pmemkv(put_fraction: float, footprint_bytes: int = 16 << 20,
           num_refs: int = 20_000, index_levels: int = 2,
           gap: int = 10) -> Workload:
    if not 0 <= put_fraction <= 1:
        raise ValueError("put_fraction must be in [0, 1]")
    name = "pmemkv_put" if put_fraction >= 0.5 else "pmemkv_get"
    check_at_least(name, 0, index_levels=index_levels)
    return synthetic(
        name,
        _pmemkv_generator(put_fraction, index_levels, gap),
        footprint_bytes,
        num_refs,
        gap=gap,
    )
