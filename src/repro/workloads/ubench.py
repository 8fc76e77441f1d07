"""In-house microbenchmarks (Section 4): uBENCH X.

"uBENCH X accesses one byte after every X bytes in sequential manner
with read/write ratio of 1."  A larger stride covers more cache lines
per unit work, raising miss and metadata-eviction rates — uBENCH128
evicts more than uBENCH16 (Section 5.2).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Workload, synthetic


def _ubench_generator(stride: int, gap: int):
    def generate(rng, footprint_bytes, num_refs):
        ref = np.arange(num_refs, dtype=np.int64)
        addresses = (ref * stride) % footprint_bytes
        writes = ref % 2 == 1  # read/write ratio of 1
        return addresses, writes, np.full(num_refs, gap)
    return generate


def ubench(stride: int, footprint_bytes: int = 16 << 20,
           num_refs: int = 20_000, gap: int = 4) -> Workload:
    """Sequential sweep touching one byte every ``stride`` bytes."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    return synthetic(f"ubench{stride}", _ubench_generator(stride, gap),
                     footprint_bytes, num_refs, gap=gap)
