"""WHISPER-style persistent-memory kernels (Nalli et al., ASPLOS 2017).

Three representative kernels from the suite's families:

* ``ctree``  — crash-consistent tree: per operation a root-to-leaf walk
  (pointer-dependent reads), then an insert write plus a parent update
  and an undo-log append.
* ``hashmap`` — persistent hash table: bucket-head read, short chain
  walk, then an in-place value update write and a log write.
* ``redo_log`` — redo-log transactions: a batch of sequential log
  appends followed by random in-place commits to the home locations.

All three are write-heavy with persistence-ordering patterns — the
workload class Soteria's extra writes could hurt most, which is why the
paper leads with them.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Workload, check_at_least, synthetic

BLOCK = 64


def _ctree_generator(depth: int, gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        log_base = blocks - blocks // 8  # top 1/8th reserved for the log
        log_blocks = blocks - log_base
        addresses = []
        writes = []
        log_head = 0
        while len(addresses) < num_refs:
            # Root-to-leaf walk: the node at each level is derived from
            # the key, modeling pointer-dependent reads.
            key = int(rng.integers(0, 1 << 30))
            node = key % 97
            for level in range(depth):
                addresses.append((node % log_base) * BLOCK)
                node = (node * 2654435761 + key + level) % log_base
            # Undo-log append, then the insert and the parent update.
            addresses += [
                (log_base + log_head % log_blocks) * BLOCK,
                (node % log_base) * BLOCK,
                ((node // 8) % log_base) * BLOCK,
            ]
            writes += [False] * depth + [True] * 3
            log_head += 1
        return addresses, writes, np.full(len(addresses), gap)
    return generate


def _hashmap_generator(chain: int, gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        log_base = blocks - blocks // 8
        log_blocks = blocks - log_base
        addresses = []
        writes = []
        log_head = 0
        while len(addresses) < num_refs:
            key = int(rng.integers(0, 1 << 30))
            bucket = (key * 2654435761) % log_base
            walk = int(rng.integers(1, chain + 1))
            for i in range(walk + 1):  # chain walk, then the value update
                addresses.append(((bucket + i * 7) % log_base) * BLOCK)
            addresses.append((log_base + log_head % log_blocks) * BLOCK)
            writes += [False] * walk + [True, True]
            log_head += 1
        return addresses, writes, np.full(len(addresses), gap)
    return generate


def _redo_log_generator(batch: int, gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        log_base = blocks - blocks // 4  # 1/4th of space is the log
        log_blocks = blocks - log_base
        addresses = []
        writes = []
        log_head = 0
        while len(addresses) < num_refs:
            homes = (rng.integers(0, log_base, size=batch) * BLOCK).tolist()
            addresses += homes  # read home locations into the tx
            for _ in range(batch):  # sequential redo-log appends
                addresses.append((log_base + log_head % log_blocks) * BLOCK)
                log_head += 1
            addresses += homes  # commit in place
            writes += [False] * batch + [True] * (2 * batch)
        return addresses, writes, np.full(len(addresses), gap)
    return generate


def _tpcc_generator(records_per_tx: int, gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        log_base = blocks - blocks // 8
        log_blocks = blocks - log_base
        appends = records_per_tx // 2 + 1
        addresses = []
        writes = []
        log_head = 0
        while len(addresses) < num_refs:
            # New-order style transaction: read warehouse/district/
            # customer rows, insert order rows, append to the log,
            # update the district counter in place.
            rows = (rng.integers(0, log_base, size=records_per_tx)
                    * BLOCK).tolist()
            addresses += rows
            for _ in range(appends):
                addresses.append((log_base + log_head % log_blocks) * BLOCK)
                log_head += 1
            addresses.append(rows[0])  # district update
            writes += [False] * records_per_tx + [True] * (appends + 1)
        return addresses, writes, np.full(len(addresses), gap)
    return generate


def _echo_generator(gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        index_blocks = max(1, blocks // 16)
        heap_base = index_blocks
        heap_blocks = blocks - heap_base
        addresses = []
        writes = []
        heap_head = 0
        while len(addresses) < num_refs:
            key = int(rng.integers(0, 1 << 24))
            slot = (key * 2654435761) % index_blocks
            addresses.append(slot * BLOCK)  # index lookup
            if rng.random() < 0.6:
                # put: append a new version to the heap, update index.
                addresses += [
                    (heap_base + heap_head % heap_blocks) * BLOCK,
                    slot * BLOCK,
                ]
                writes += [False, True, True]
                heap_head += 1
            else:
                # get: read the current version.
                version = (key * 48271) % heap_blocks
                addresses.append((heap_base + version) * BLOCK)
                writes += [False, False]
        return addresses, writes, np.full(len(addresses), gap)
    return generate


def ctree(footprint_bytes: int = 16 << 20, num_refs: int = 20_000,
          depth: int = 4, gap: int = 8) -> Workload:
    check_at_least("ctree", 0, depth=depth)
    return synthetic("ctree", _ctree_generator(depth, gap),
                     footprint_bytes, num_refs, gap=gap)


def hashmap(footprint_bytes: int = 16 << 20, num_refs: int = 20_000,
            chain: int = 3, gap: int = 8) -> Workload:
    check_at_least("hashmap", 1, chain=chain)
    return synthetic("hashmap", _hashmap_generator(chain, gap),
                     footprint_bytes, num_refs, gap=gap)


def redo_log(footprint_bytes: int = 16 << 20, num_refs: int = 20_000,
             batch: int = 8, gap: int = 6) -> Workload:
    check_at_least("redo_log", 1, batch=batch)
    return synthetic("redo_log", _redo_log_generator(batch, gap),
                     footprint_bytes, num_refs, gap=gap)


def tpcc(footprint_bytes: int = 16 << 20, num_refs: int = 20_000,
         records_per_tx: int = 6, gap: int = 10) -> Workload:
    """TPC-C-style new-order transactions over persistent tables."""
    check_at_least("tpcc", 1, records_per_tx=records_per_tx)
    return synthetic("tpcc", _tpcc_generator(records_per_tx, gap),
                     footprint_bytes, num_refs, gap=gap)


def echo(footprint_bytes: int = 16 << 20, num_refs: int = 20_000,
         gap: int = 8) -> Workload:
    """Echo-style versioned KV store: append-only heap + small index."""
    return synthetic("echo", _echo_generator(gap), footprint_bytes, num_refs,
                     gap=gap)
