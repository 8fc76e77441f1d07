"""Workload abstraction: named generators of memory-reference streams.

A reference is ``(byte address, is_write, gap)`` where ``gap`` is the
number of non-memory instructions executed since the previous
reference — the knob that sets a workload's memory intensity.

The paper's evaluation needs only the *memory access pattern* of each
application ("Soteria treats most applications in substantially
similar manner and the performance depends on the application's memory
access pattern"), so each suite is reproduced as a synthetic generator
with that suite's signature: strided sweeps (uBENCH), persistent
transaction kernels (WHISPER), key-value put/get (PMEMKV), and
pointer-chasing / streaming / mixed patterns (SPEC CPU 2006).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Smallest footprint every synthetic layout fits: eight blocks, so the
#: WHISPER kernels' ``blocks // 8`` log region is never empty.
MIN_FOOTPRINT_BYTES = 512


@dataclass
class Workload:
    """A named, seeded, replayable reference stream.

    ``generator(rng, footprint_bytes, num_refs)`` returns the stream's
    ``(addresses, writes, gaps)`` columns, at least ``num_refs`` long:
    a kernel may finish the operation it is in, and
    :meth:`reference_arrays` cuts the excess.
    """

    name: str
    generator: object
    footprint_bytes: int
    num_refs: int
    seed: int = 1

    def reference_arrays(self):
        """The stream as int64/bool/int64 ``(addresses, writes, gaps)``
        arrays of length ``num_refs``, from a freshly seeded rng."""
        rng = np.random.default_rng(self.seed)
        addresses, writes, gaps = self.generator(
            rng, self.footprint_bytes, self.num_refs
        )
        cut = slice(self.num_refs)
        return (
            np.asarray(addresses, dtype=np.int64)[cut],
            np.asarray(writes, dtype=bool)[cut],
            np.asarray(gaps, dtype=np.int64)[cut],
        )

    def references(self):
        """The same stream as ``(int, bool, int)`` tuples."""
        return zip(*(column.tolist() for column in self.reference_arrays()))

    def materialize(self) -> list:
        """The whole stream as a list of tuples (for tests)."""
        return list(self.references())


def synthetic(name: str, generator, footprint_bytes: int,
              num_refs: int, *, gap: int = 0) -> Workload:
    """A generator's workload, refusing the sizes no layout holds and a
    negative ``gap`` (which would shrink the instruction count)."""
    if footprint_bytes < MIN_FOOTPRINT_BYTES:
        raise ValueError(
            f"{name}: footprint_bytes must be at least "
            f"{MIN_FOOTPRINT_BYTES}, got {footprint_bytes}"
        )
    check_at_least(name, 0, num_refs=num_refs, gap=gap)
    return Workload(name, generator, footprint_bytes, num_refs)


def check_at_least(name: str, minimum: int, **params) -> None:
    """Refuse any of workload ``name``'s ``params`` below ``minimum``.

    Kernel shape counts guard against streams that never fill (an
    operation of zero records appends nothing) or crash mid-generation.
    """
    for param, value in params.items():
        if value < minimum:
            raise ValueError(
                f"{name}: {param} must be >= {minimum}, got {value}"
            )


def zipf_addresses(rng, footprint_blocks: int, count: int, alpha: float = 1.2):
    """Zipf-distributed block indices over a footprint — the classic
    skewed working-set model for cache-friendly workloads."""
    # Sample from Zipf and fold the unbounded tail into the footprint.
    raw = rng.zipf(alpha, size=count)
    return (raw - 1) % footprint_blocks
