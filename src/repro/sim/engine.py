"""Vectorized batched simulation core.

The scalar interpreter loop in :meth:`repro.sim.system.SecureSystem.run`
pays per-reference Python overhead for every stage of the pipeline:
generator resumption, address arithmetic, OrderedDict cache probes,
dataclass allocation for every hierarchy result and eviction, and a
histogram method call per request.  This module rebuilds that hot path
as a batched engine:

* **reference batches** — references drain from the workload generator
  ``REFERENCE_BATCH`` at a time (``islice`` pulls each batch in C);
* **array-stage address mapping** — byte address → data block and the
  per-level (set index, tag) decomposition are computed for the whole
  batch with numpy int64 vector ops, then handed to the dispatch loop
  as plain lists (C-speed conversion, Python-int elements);
* **flat cache state** — each cache level's residency lives in one
  ``{tag: dirty}`` dict per set (imported from / exported back to the
  authoritative :class:`~repro.cache.cache.SetAssociativeCache` via
  ``export_sets``/``import_sets``), so a probe is a dict membership
  test and an LRU update is ``d[t] = d.pop(t) | w`` — no dataclasses,
  no OrderedDict, no per-access allocation;
* **batched accounting** — cache hit/miss/eviction counters accumulate
  in local integers and flush to the registry instruments per engine
  pass; per-request latencies collect into per-kind lists and flush
  through :meth:`~repro.telemetry.HistogramMetric.observe_batch`
  (``numpy.searchsorted`` bucketing, sequential-order totals);
* **residual functional stream** — only LLC misses and dirty LLC
  writebacks reach the functional secure controller, exactly as in the
  scalar path, so counter chains, verification, lazy updates, cloning,
  the oracle, and fault hooks are untouched.

Equivalence contract: the engine was developed as a **bit-identical**
replacement for the original scalar interpreter loop — same
``SimResult`` (including float fields), same registry snapshots, same
controller traffic, same per-op event stream.  Float accumulators
(``cpu_cycles``, ``channel_ns``, histogram totals) are updated with the
same operations in the same order as that loop, so rounding was
reproduced exactly rather than approximately.  After several releases
of differential soak with zero divergence the scalar loop was retired;
its observable behavior is pinned by the committed replay corpus that
:mod:`repro.verify.engine_diff` (``repro engine-diff``) checks the
vector engine against on every run.
"""

from __future__ import annotations

from itertools import islice

import numpy as np


class BatchEngine:
    """One run's worth of batched simulation state.

    Construction imports the system's cache-hierarchy state into flat
    per-set dicts and hoists every per-reference constant;
    :meth:`run` drives the workload to completion and hands back the
    accounting totals; the hierarchy state is exported back into the
    authoritative caches before returning, so a ``SecureSystem`` that
    ran under this engine is indistinguishable from one driven through
    the scalar loop (flush_dirty, resident_addresses, reuse across
    runs all keep working).
    """

    def __init__(self, system, batch_size: int):
        self.system = system
        self.batch_size = batch_size
        config = system.config
        hierarchy = system.hierarchy
        self.caches = hierarchy.caches
        self.line_size = hierarchy.line_size
        self.num_levels = len(self.caches)

        # Flat residency state: per level, a list of {tag: dirty} dicts.
        self.level_sets = [cache.export_sets() for cache in self.caches]
        self.level_ways = [cache.ways for cache in self.caches]
        self.level_num_sets = [cache.num_sets for cache in self.caches]
        self.lat_steps = [c.latency_cycles for c in hierarchy.configs]
        cumulative = []
        total = 0
        for step in self.lat_steps:
            total += step
            cumulative.append(total)
        self.cum_lat = cumulative

        self.read_latency_cycles = config.ns_to_cycles(config.pcm_read_ns)
        self.pcm_read_ns = config.pcm_read_ns
        self.pcm_write_ns = config.pcm_write_ns
        self.cycle_ns = config.cycle_ns
        # Request latency of a hit at level l (no blocking reads) —
        # spelled exactly like the scalar loop's
        # ``(latency + 0 * read_latency_cycles) * cycle_ns`` so the
        # float value is bit-equal.
        self.hit_ns = [
            (lat + 0 * self.read_latency_cycles) * self.cycle_ns
            for lat in cumulative
        ]

        controller = system.controller
        self.controller_read = controller.read
        self.controller_write = controller.write
        self.data_bytes = controller.num_data_blocks * 64
        self.zero = bytes(64)

        # Per-level counter deltas, flushed to registry instruments per
        # engine pass: [hits, misses, evictions, dirty_evictions,
        # writebacks] per level.
        self.counter_deltas = [[0, 0, 0, 0, 0] for _ in self.caches]

        # Accounting totals (measurement window).
        self.instructions = 0
        self.memory_requests = 0
        self.cpu_cycles = 0.0
        self.channel_ns = 0.0

    # -- lifecycle -----------------------------------------------------

    def reset_accounting(self) -> None:
        """Zero the measurement-window totals (the warmup checkpoint)."""
        self.instructions = 0
        self.memory_requests = 0
        self.cpu_cycles = 0.0
        self.channel_ns = 0.0

    def flush_counters(self) -> None:
        """Fold the accumulated cache-counter deltas into the registry
        instruments (one attribute store per counter per pass)."""
        for cache, deltas in zip(self.caches, self.counter_deltas):
            stats = cache.stats
            hits, misses, evictions, dirty_evictions, writebacks = deltas
            stats.hits += hits
            stats.misses += misses
            stats.evictions += evictions
            stats.dirty_evictions += dirty_evictions
            stats.writebacks += writebacks
            deltas[0] = deltas[1] = deltas[2] = deltas[3] = deltas[4] = 0

    def export_state(self) -> None:
        """Hand the flat residency state back to the authoritative
        :class:`SetAssociativeCache` instances."""
        for cache, sets in zip(self.caches, self.level_sets):
            cache.import_sets(sets)

    # -- the hot loop --------------------------------------------------

    def _batches(self, source):
        """Yield ``(address_vec, writes, gaps, n)`` per reference batch.

        ``source`` is either an iterator of ``(address, is_write,
        gap)`` tuples (the workload-generator path) or an
        ``(addresses, writes, gaps)`` numpy-array triple (the
        vectorized-generation path); both normalize to an int64
        address vector plus plain-Python ``writes``/``gaps`` lists so
        the dispatch loop sees identical types either way.
        """
        batch_size = self.batch_size
        if isinstance(source, tuple):
            addresses, is_writes, gap_array = source
            total = len(addresses)
            for start in range(0, total, batch_size):
                stop = min(start + batch_size, total)
                yield (
                    addresses[start:stop].astype(np.int64, copy=True),
                    is_writes[start:stop].astype(np.intp).tolist(),
                    gap_array[start:stop].tolist(),
                    stop - start,
                )
            return
        while True:
            batch = list(islice(source, batch_size))
            if not batch:
                return
            n = len(batch)
            raw_addresses, raw_writes, gaps = zip(*batch)
            yield (
                np.fromiter(raw_addresses, dtype=np.int64, count=n),
                np.fromiter(raw_writes, dtype=np.intp, count=n).tolist(),
                gaps,
                n,
            )

    def process(self, source, emit_op: bool = False) -> None:
        """Drain ``source`` to exhaustion, batch by batch.

        ``emit_op`` replicates the scalar loop's per-op trace event
        (fault injectors and scrubbers subscribe to it); warmup passes
        run with it off, exactly like the scalar warmup loop.
        """
        # Hoist everything the per-reference code touches into locals.
        line_size = self.line_size
        data_bytes = self.data_bytes
        level_num_sets = self.level_num_sets
        hit_ns = self.hit_ns
        sets0 = self.level_sets[0]
        ways0 = self.level_ways[0]
        num_sets0 = level_num_sets[0]
        lat0 = self.cum_lat[0]
        hit_ns0 = hit_ns[0]
        deltas0 = self.counter_deltas[0]
        last_level = self.num_levels - 1
        l0_is_last = last_level == 0
        num_sets_last = level_num_sets[last_level]
        # Lower-level walk rows, unpacked per L1 miss: (sets, num_sets,
        # ways, latency step, hit ns, deltas, is-last).  Set index and
        # tag at level l derive from the line number with Python-int
        # divmod on the miss path only — no per-batch tables.
        walk = [
            (
                self.level_sets[level],
                level_num_sets[level],
                self.level_ways[level],
                self.lat_steps[level],
                hit_ns[level],
                self.counter_deltas[level],
                level == last_level,
            )
            for level in range(1, last_level + 1)
        ]

        read_latency_cycles = self.read_latency_cycles
        pcm_read_ns = self.pcm_read_ns
        pcm_write_ns = self.pcm_write_ns
        cycle_ns = self.cycle_ns
        controller_read = self.controller_read
        controller_write = self.controller_write
        zero = self.zero

        tracer_emit = self.system.tracer.emit
        read_latency = self.system._read_latency
        write_latency = self.system._write_latency

        instructions = self.instructions
        op_index = self.memory_requests
        cpu_cycles = self.cpu_cycles
        channel_ns = self.channel_ns

        for address_vec, writes, gaps, n in self._batches(source):
            # Array stage: byte address → L1 (set index, tag) for the
            # whole batch; everything below L1 (lower-level set/tag,
            # controller block) derives on the miss path only.
            address_vec %= data_bytes
            line_vec = address_vec // line_size
            set0_idx = (line_vec % num_sets0).tolist()
            tags0 = (line_vec // num_sets0).tolist()

            read_ns = []
            write_ns = []
            read_append = read_ns.append
            write_append = write_ns.append

            instructions += sum(gaps) + n
            misses0 = evictions0 = dirty0 = 0

            for i, wi, gap, set_index, tag in zip(
                range(n), writes, gaps, set0_idx, tags0
            ):
                if emit_op:
                    tracer_emit("op", index=op_index + i)
                lines = sets0[set_index]
                prev = lines.pop(tag, None)
                if prev is not None:
                    # L1 hit — the fast path (single dict probe).
                    lines[tag] = prev | wi
                    cpu_cycles += gap
                    cpu_cycles += lat0
                    if wi:
                        write_append(hit_ns0)
                    else:
                        read_append(hit_ns0)
                    continue

                # L1 miss: evict + fill, then walk the lower levels.
                misses0 += 1
                writeback_block = -1
                if len(lines) >= ways0:
                    victim_tag = next(iter(lines))
                    victim_dirty = lines.pop(victim_tag)
                    evictions0 += 1
                    if victim_dirty:
                        dirty0 += 1
                        if l0_is_last:
                            writeback_block = (
                                (victim_tag * num_sets_last + set_index)
                                * line_size
                            ) // 64
                lines[tag] = wi

                line = tag * num_sets0 + set_index
                latency = lat0
                request_hit_ns = -1.0
                for (level_sets, level_num, level_ways, lat_step,
                     level_hit_ns, level_deltas, is_last) in walk:
                    latency += lat_step
                    level_set_index = line % level_num
                    level_tag = line // level_num
                    level_lines = level_sets[level_set_index]
                    prev = level_lines.pop(level_tag, None)
                    if prev is not None:
                        level_lines[level_tag] = prev | wi
                        level_deltas[0] += 1
                        request_hit_ns = level_hit_ns
                        break
                    level_deltas[1] += 1
                    if len(level_lines) >= level_ways:
                        victim_tag = next(iter(level_lines))
                        victim_dirty = level_lines.pop(victim_tag)
                        level_deltas[2] += 1
                        if victim_dirty:
                            level_deltas[3] += 1
                            level_deltas[4] += 1
                            if is_last:
                                writeback_block = (
                                    (victim_tag * num_sets_last
                                     + level_set_index) * line_size
                                ) // 64
                    level_lines[level_tag] = wi

                cpu_cycles += gap
                cpu_cycles += latency

                if request_hit_ns >= 0.0:
                    if wi:
                        write_append(request_hit_ns)
                    else:
                        read_append(request_hit_ns)
                    continue

                # Residual functional stream: LLC miss (demand read)
                # and the dirty LLC writeback, in scalar order.
                cost = controller_read(int(address_vec[i]) // 64).cost
                blocking_reads = cost.blocking_reads
                posted_writes = cost.posted_writes
                if writeback_block >= 0:
                    cost = controller_write(writeback_block, zero)
                    blocking_reads += cost.blocking_reads
                    posted_writes += cost.posted_writes

                cpu_cycles += blocking_reads * read_latency_cycles
                channel_ns += (
                    blocking_reads * pcm_read_ns
                    + posted_writes * pcm_write_ns
                )
                request_ns = (
                    latency + blocking_reads * read_latency_cycles
                ) * cycle_ns
                if wi:
                    write_append(request_ns)
                else:
                    read_append(request_ns)

            op_index += n
            deltas0[0] += n - misses0
            deltas0[1] += misses0
            deltas0[2] += evictions0
            deltas0[3] += dirty0
            deltas0[4] += dirty0
            read_latency.observe_batch(read_ns)
            write_latency.observe_batch(write_ns)

        self.instructions = instructions
        self.memory_requests = op_index
        self.cpu_cycles = cpu_cycles
        self.channel_ns = channel_ns


def run_batched(system, workload, warmup_refs: int = 0, batch_size=None):
    """Execute one workload on ``system`` with the batched engine.

    Drop-in core for :meth:`SecureSystem.run`: returns
    ``(instructions, memory_requests, cpu_cycles, channel_ns)`` with
    the controller, registry, and cache hierarchy left in exactly the
    state the scalar loop would have produced.
    """
    from repro.sim.system import REFERENCE_BATCH

    engine = BatchEngine(system, batch_size or REFERENCE_BATCH)
    arrays = None
    if hasattr(workload, "reference_arrays"):
        arrays = workload.reference_arrays()
    if arrays is not None:
        # Vectorized generation: the whole stream is already three
        # arrays (value-identical to the generator); warmup and
        # measurement windows are slices.
        addresses, writes, gaps = arrays
        warm_source = (
            addresses[:warmup_refs], writes[:warmup_refs],
            gaps[:warmup_refs],
        )
        main_source = (
            addresses[warmup_refs:], writes[warmup_refs:],
            gaps[warmup_refs:],
        )
    else:
        refs = workload.references()
        warm_source = islice(refs, warmup_refs)
        main_source = refs
    try:
        if warmup_refs > 0:
            engine.process(warm_source, emit_op=False)
            engine.flush_counters()
            # Checkpoint: measurement starts from warmed state.
            system.reset_measurement_stats()
            engine.reset_accounting()
        engine.process(main_source, emit_op=system.tracer.wants("op"))
        engine.flush_counters()
    finally:
        engine.export_state()
    return (
        engine.instructions,
        engine.memory_requests,
        engine.cpu_cycles,
        engine.channel_ns,
    )
