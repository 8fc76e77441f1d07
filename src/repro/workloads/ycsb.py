"""YCSB-style key-value mixes over a Zipf-popular key space.

The standard cloud-serving benchmark archetypes, by read fraction:

* ``ycsb_a`` — 50/50 read/update (update-heavy);
* ``ycsb_b`` — 95/5 (read-mostly);
* ``ycsb_c`` — 100% reads.

Each record is one block; the Zipf skew concentrates traffic on a hot
set, which is what makes the metadata cache effective (and what the
paper's low average eviction rates rely on).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Workload, synthetic, zipf_addresses

BLOCK = 64


def _ycsb_generator(read_fraction: float, alpha: float, gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        keys = zipf_addresses(rng, blocks, num_refs, alpha=alpha)
        reads = rng.random(size=num_refs)
        return keys * BLOCK, reads >= read_fraction, np.full(num_refs, gap)
    return generate


def ycsb(
    read_fraction: float,
    footprint_bytes: int = 16 << 20,
    num_refs: int = 20_000,
    alpha: float = 1.2,
    gap: int = 12,
    name: str = None,
) -> Workload:
    if not 0 <= read_fraction <= 1:
        raise ValueError("read_fraction must be in [0, 1]")
    if name is None:
        name = f"ycsb_r{int(read_fraction * 100)}"
    return synthetic(name, _ycsb_generator(read_fraction, alpha, gap),
                     footprint_bytes, num_refs, gap=gap)


def ycsb_a(**kwargs) -> Workload:
    """Workload A: 50% reads, 50% updates."""
    return ycsb(0.5, name="ycsb_a", **kwargs)


def ycsb_b(**kwargs) -> Workload:
    """Workload B: 95% reads, 5% updates."""
    return ycsb(0.95, name="ycsb_b", **kwargs)


def ycsb_c(**kwargs) -> Workload:
    """Workload C: read-only."""
    return ycsb(1.0, name="ycsb_c", **kwargs)
