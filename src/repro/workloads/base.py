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


@dataclass
class Workload:
    """A named, seeded, replayable reference stream."""

    name: str
    generator: object       # callable(rng, footprint, num_refs) -> iter
    footprint_bytes: int
    num_refs: int
    seed: int = 1
    # Optional vectorized twin of ``generator``:
    # callable(rng, footprint, num_refs) -> (addresses, writes, gaps)
    # numpy arrays, value-identical to the yielded stream.
    array_generator: object = None

    def references(self):
        """Fresh iterator over the (identical) reference stream."""
        rng = np.random.default_rng(self.seed)
        return self.generator(rng, self.footprint_bytes, self.num_refs)

    def reference_arrays(self):
        """The whole stream as ``(addresses, writes, gaps)`` arrays.

        ``None`` when this workload has no vectorized generator.  Both
        paths seed a fresh rng identically and perform the same
        arithmetic, so the arrays are value-identical to
        :meth:`references` — a batched engine may consume either
        source interchangeably (``tests/test_workloads.py`` pins the
        equivalence per workload).
        """
        if self.array_generator is None:
            return None
        rng = np.random.default_rng(self.seed)
        addresses, writes, gaps = self.array_generator(
            rng, self.footprint_bytes, self.num_refs
        )
        return (
            np.asarray(addresses, dtype=np.int64),
            np.asarray(writes, dtype=bool),
            np.asarray(gaps, dtype=np.int64),
        )

    def materialize(self) -> list:
        """The whole trace as a list (for tests and trace mixing)."""
        return list(self.references())


def zipf_addresses(rng, footprint_blocks: int, count: int, alpha: float = 1.2):
    """Zipf-distributed block indices over a footprint — the classic
    skewed working-set model for cache-friendly workloads."""
    # Sample from Zipf and fold the unbounded tail into the footprint.
    raw = rng.zipf(alpha, size=count)
    return (raw - 1) % footprint_blocks
