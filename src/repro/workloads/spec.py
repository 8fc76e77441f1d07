"""SPEC CPU 2006-like non-persistent workloads.

Synthetic analogues of the suite's memory-behavior archetypes (the
paper uses SPEC to represent "typical non-persistent memory
applications" — the controller protects them identically):

* ``mcf``        — 429.mcf: pointer chasing over a huge network, very
  low locality, strongly read-dominated;
* ``lbm``        — 470.lbm: lattice-Boltzmann streaming, paired
  read+write sweeps with heavy writeback traffic;
* ``libquantum`` — 462.libquantum: long sequential read streams over a
  large vector with rare updates;
* ``gcc``        — 403.gcc: moderate-locality mixed reads/writes over a
  Zipf working set with a lower memory intensity;
* ``milc``       — 433.milc: regular strided sweeps with periodic
  write phases.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Workload, synthetic, zipf_addresses

BLOCK = 64


def _mcf_generator(gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        writes = rng.random(size=num_refs)
        addresses = []
        node = 1
        for _ in range(num_refs):
            # LCG-style pointer chase: effectively random block hops.
            node = (node * 6364136223846793005 + 1442695040888963407) % blocks
            addresses.append(node * BLOCK)
        return addresses, writes < 0.05, np.full(num_refs, gap)
    return generate


def _lbm_generator(gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        half = blocks // 2
        ref = np.arange(num_refs, dtype=np.int64)
        pair = ref // 2
        addresses = np.where(
            ref % 2 == 0,
            (pair % half) * BLOCK,
            (half + pair % half) * BLOCK,
        )
        writes = ref % 2 == 1
        return addresses, writes, np.full(num_refs, gap)
    return generate


def _libquantum_generator(gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        writes = rng.random(size=num_refs)
        addresses = (np.arange(num_refs, dtype=np.int64) % blocks) * BLOCK
        return addresses, writes < 0.02, np.full(num_refs, gap)
    return generate


def _gcc_generator(gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        working_set = max(1, blocks // 16)
        # Zipf addresses first, then the write dice.
        addresses = zipf_addresses(rng, working_set, num_refs)
        writes = rng.random(size=num_refs)
        return addresses * BLOCK, writes < 0.3, np.full(num_refs, gap)
    return generate


def _milc_generator(stride_blocks: int, gap: int):
    def generate(rng, footprint_bytes, num_refs):
        blocks = footprint_bytes // BLOCK
        ref = np.arange(num_refs, dtype=np.int64)
        addresses = ((ref * stride_blocks) % blocks) * BLOCK
        # Read phase dominated, with a write every fourth access.
        return addresses, ref % 4 == 3, np.full(num_refs, gap)
    return generate


def mcf(footprint_bytes: int = 32 << 20, num_refs: int = 20_000,
        gap: int = 6) -> Workload:
    return synthetic("mcf", _mcf_generator(gap), footprint_bytes, num_refs,
                     gap=gap)


def lbm(footprint_bytes: int = 32 << 20, num_refs: int = 20_000,
        gap: int = 5) -> Workload:
    return synthetic("lbm", _lbm_generator(gap), footprint_bytes, num_refs,
                     gap=gap)


def libquantum(footprint_bytes: int = 32 << 20, num_refs: int = 20_000,
               gap: int = 4) -> Workload:
    return synthetic("libquantum", _libquantum_generator(gap),
                     footprint_bytes, num_refs, gap=gap)


def gcc(footprint_bytes: int = 32 << 20, num_refs: int = 20_000,
        gap: int = 40) -> Workload:
    return synthetic("gcc", _gcc_generator(gap), footprint_bytes, num_refs,
                     gap=gap)


def milc(footprint_bytes: int = 32 << 20, num_refs: int = 20_000,
         stride_blocks: int = 5, gap: int = 8) -> Workload:
    return synthetic("milc", _milc_generator(stride_blocks, gap),
                     footprint_bytes, num_refs, gap=gap)
