"""Vectorized batched simulation core: the timing simulator's one loop.

:meth:`repro.sim.system.SecureSystem.run` drives every workload through
:func:`run_batched`.  The per-reference Python loop keeps only the work
that is sequential by nature — the caches' state and the controller —
and numpy folds everything else once per batch:

* **reference batches** — the workload's stream is three arrays
  (:meth:`~repro.workloads.Workload.reference_arrays`), drained as
  ``REFERENCE_BATCH``-long slices;
* **array-stage address mapping** — the wrap into the data region and
  every level's (set index, tag) of every reference are computed for
  the whole batch with numpy int64 vector ops, then handed to the
  dispatch loop as plain lists (C-speed conversion, Python-int
  elements);
* **the caches' own state** — each level's residency is its
  :class:`~repro.cache.cache.SetAssociativeCache` ``sets``: one
  ``{tag: dirty}`` dict per set in LRU order, probed, filled and
  evicted in place, so a probe is a dict membership test and an LRU
  update is ``d[t] = d.pop(t) | w`` — no per-access allocation.  The
  loop probes L1 and the first lower level with hoisted locals and
  walks any deeper level generically;
* **outcome codes** — an L1 hit records nothing; a reference that
  misses L1 stores one code in the batch's ``bytearray``: the level
  that hit, or ``num_levels`` for an LLC miss, whose blocking NVM
  reads go to a list in reference order.  Evictions and dirty
  evictions, which depend on the sets, are the only counts the loop
  keeps;
* **the batch fold** — after each batch (and in the ``finally`` of a
  batch that raised) :meth:`BatchEngine._fold` derives the rest from
  the codes and the batch's gap and write arrays: per-level hits and
  misses (one ``bincount``), each reference's latency, the latency
  histograms, ``cpu_cycles`` and ``instructions``.  A run that raises
  folds exactly the references it touched, so the registry agrees
  with the caches' residency;
* **residual functional stream** — only LLC misses and dirty LLC
  writebacks reach the functional secure controller, which runs the
  counter chains, verification, lazy updates, cloning, the oracle and
  the fault hooks on that traffic; ``channel_ns`` is charged per
  controller call.

Equivalence contract: the engine's observable behavior — the
``SimResult`` (float fields included), registry snapshots, controller
traffic, the per-op event stream and the post-run cache residency — is
pinned by the committed replay corpus that
:mod:`repro.verify.engine_diff` (``repro engine-diff``) checks on every
run.  That corpus was recorded from the scalar interpreter loop this
engine replaced bit for bit, so every float accumulator must see the
same operands in the same order.  The fold keeps that exactly:

* a latency is ``(level cycles + blocking reads * read cycles) *
  cycle ns``, the scalar loop's expression, one IEEE operation per
  step in numpy as in Python (an L1 or lower-level hit adds ``0.0``);
* ``cpu_cycles`` is one ``np.add.accumulate`` over the interleaved
  (gap, level cycles, extra read cycles) addends in reference order,
  seeded with the running total: ``accumulate`` adds strictly left to
  right, the scalar loop's ``+=`` chain, where ``np.sum`` would
  associate pairwise.  A hit's extra addend is ``0.0``, which leaves
  any non-negative total unchanged;
* histogram totals fold the same way in
  :meth:`~repro.telemetry.HistogramMetric.observe_batch`;
* ``instructions`` and every counter are integer sums.
"""

from __future__ import annotations

import numpy as np


class BatchEngine:
    """One run's worth of batched simulation state.

    Construction hoists every per-reference constant, including each
    cache level's ``sets``; :meth:`process` drives a reference source
    to completion, filling and evicting in those sets in place, and
    :meth:`flush_counters` folds the pass's counts into each level's
    ``stats``.
    """

    def __init__(self, system, batch_size: int):
        self.system = system
        self.batch_size = batch_size
        config = system.config
        hierarchy = system.hierarchy
        self.caches = hierarchy.caches
        self.line_size = hierarchy.line_size
        self.num_levels = len(self.caches)

        # Per level, the cache's own list of {tag: dirty} dicts.
        self.level_sets = [cache.sets for cache in self.caches]
        self.level_ways = [cache.ways for cache in self.caches]
        self.level_num_sets = [cache.num_sets for cache in self.caches]
        # Cycles to the level that served a reference, indexed by its
        # outcome code: level l's cumulative hit latency, and for an
        # LLC miss (code num_levels) the whole hierarchy's.
        cumulative = np.cumsum([c.latency_cycles for c in hierarchy.configs])
        self.code_cycles = np.append(cumulative, cumulative[-1])

        self.read_latency_cycles = config.ns_to_cycles(config.pcm_read_ns)
        self.pcm_read_ns = config.pcm_read_ns
        self.pcm_write_ns = config.pcm_write_ns
        self.cycle_ns = config.cycle_ns

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

    # -- the hot loop --------------------------------------------------

    def _batches(self, arrays):
        """Yield ``(addresses, writes, gaps)`` array slices per
        reference batch of an ``(addresses, writes, gaps)`` triple; the
        addresses are a fresh int64 vector, wrapped in place."""
        addresses, is_writes, gap_array = arrays
        total = len(addresses)
        for start in range(0, total, self.batch_size):
            stop = min(start + self.batch_size, total)
            yield (
                addresses[start:stop].astype(np.int64, copy=True),
                is_writes[start:stop],
                gap_array[start:stop],
            )

    def process(self, arrays, emit_op: bool = False) -> None:
        """Drain an ``(addresses, writes, gaps)`` triple, batch by batch.

        ``emit_op`` emits the per-op trace event before each reference
        (fault injectors and scrubbers subscribe to it); warmup passes
        run with it off.

        The loop does the sequential work only: probe, fill and evict
        the sets, count evictions, call the controller on an LLC miss
        (charging ``channel_ns`` per call) and emit op events.  Each
        L1 miss leaves its outcome code in ``codes``; :meth:`_fold`
        turns the codes into counts, latencies and cycles per batch.
        """
        memory = self.num_levels  # outcome code of an LLC miss
        line_size = self.line_size
        data_bytes = self.data_bytes
        level_num_sets = self.level_num_sets
        level_sets = self.level_sets
        level_ways = self.level_ways
        sets0 = level_sets[0]
        ways0 = level_ways[0]
        deltas0 = self.counter_deltas[0]
        last = memory - 1
        num_sets_last = level_num_sets[last]
        has_lower = memory > 1
        if has_lower:
            sets1 = level_sets[1]
            ways1 = level_ways[1]
            deltas1 = self.counter_deltas[1]
        # Levels below the first lower one, walked generically per L2
        # miss: (code, sets, ways, deltas).
        deeper = [
            (level, level_sets[level], level_ways[level],
             self.counter_deltas[level])
            for level in range(2, memory)
        ]

        pcm_read_ns = self.pcm_read_ns
        pcm_write_ns = self.pcm_write_ns
        controller_read = self.controller_read
        controller_write = self.controller_write
        zero = self.zero
        tracer_emit = self.system.tracer.emit
        channel_ns = self.channel_ns

        for address_vec, write_vec, gap_vec in self._batches(arrays):
            n = len(address_vec)
            # Array stage: byte address → (set index, tag) at every
            # level for the whole batch.
            address_vec %= data_bytes
            line_vec = address_vec // line_size
            level_set_tag = [
                (
                    (line_vec % num_sets).tolist(),
                    (line_vec // num_sets).tolist(),
                )
                for num_sets in level_num_sets
            ]
            set0, tag0 = level_set_tag[0]
            if has_lower:
                set1, tag1 = level_set_tag[1]
            writes = write_vec.astype(np.intp).tolist()
            op_index = self.memory_requests

            codes = bytearray(n)  # 0: L1 hit; l: level l hit; memory
            blocking = []         # blocking NVM reads per LLC miss
            evictions0 = dirty0 = evictions1 = dirty1 = 0
            completed = n

            try:
                for i, wi, s, t in zip(range(n), writes, set0, tag0):
                    if emit_op:
                        tracer_emit("op", index=op_index + i)
                    lines = sets0[s]
                    prev = lines.pop(t, None)
                    if prev is not None:
                        # L1 hit — the fast path (single dict probe).
                        lines[t] = prev | wi
                        continue

                    # L1 miss: evict + fill, then the lower levels.
                    writeback_block = -1
                    if len(lines) >= ways0:
                        victim_tag = next(iter(lines))
                        evictions0 += 1
                        if lines.pop(victim_tag):
                            dirty0 += 1
                            if not has_lower:
                                writeback_block = (
                                    (victim_tag * num_sets_last + s)
                                    * line_size
                                ) // 64
                    lines[t] = wi

                    level = memory
                    if has_lower:
                        s = set1[i]
                        t = tag1[i]
                        lines = sets1[s]
                        prev = lines.pop(t, None)
                        if prev is not None:
                            lines[t] = prev | wi
                            codes[i] = 1
                            continue
                        if len(lines) >= ways1:
                            victim_tag = next(iter(lines))
                            evictions1 += 1
                            if lines.pop(victim_tag):
                                dirty1 += 1
                                if last == 1:
                                    writeback_block = (
                                        (victim_tag * num_sets_last + s)
                                        * line_size
                                    ) // 64
                        lines[t] = wi

                        for level, sets, ways, deltas in deeper:
                            level_set, level_tag = level_set_tag[level]
                            s = level_set[i]
                            t = level_tag[i]
                            lines = sets[s]
                            prev = lines.pop(t, None)
                            if prev is not None:
                                lines[t] = prev | wi
                                break
                            if len(lines) >= ways:
                                victim_tag = next(iter(lines))
                                deltas[2] += 1
                                if lines.pop(victim_tag):
                                    deltas[3] += 1
                                    deltas[4] += 1
                                    if level == last:
                                        writeback_block = (
                                            (victim_tag * num_sets_last + s)
                                            * line_size
                                        ) // 64
                            lines[t] = wi
                        else:
                            level = memory
                    codes[i] = level
                    if level < memory:
                        continue

                    # Residual functional stream: LLC miss (demand read),
                    # then the dirty LLC writeback.
                    cost = controller_read(int(address_vec[i]) // 64).cost
                    blocking_reads = cost.blocking_reads
                    posted_writes = cost.posted_writes
                    if writeback_block >= 0:
                        cost = controller_write(writeback_block, zero)
                        blocking_reads += cost.blocking_reads
                        posted_writes += cost.posted_writes
                    blocking.append(blocking_reads)
                    channel_ns += (
                        blocking_reads * pcm_read_ns
                        + posted_writes * pcm_write_ns
                    )
            except BaseException:
                # Reference i raised, in its op event (never probed) or
                # on its way to the controller (probed at every level,
                # code ``memory``, no latency).
                completed = i
                raise
            finally:
                touched = completed
                if completed < n and codes[completed] == memory:
                    touched += 1
                deltas0[2] += evictions0
                deltas0[3] += dirty0
                deltas0[4] += dirty0
                if has_lower:
                    deltas1[2] += evictions1
                    deltas1[3] += dirty1
                    deltas1[4] += dirty1
                self.channel_ns = channel_ns
                self._fold(codes, touched, completed, blocking,
                           write_vec, gap_vec)

    def _fold(self, codes, touched, completed, blocking, write_vec,
              gap_vec) -> None:
        """Fold one batch's outcome codes into the counters, the latency
        histograms and the accounting totals.

        ``touched`` references were probed (cache counters);
        ``completed`` ran to the end (latencies, cycles, instructions),
        one fewer when a reference raised on its way to the controller.
        """
        memory = self.num_levels
        outcome = np.frombuffer(codes, dtype=np.uint8)
        served = np.bincount(outcome[:touched], minlength=memory + 1)
        missed = touched
        for deltas, hits in zip(self.counter_deltas, served.tolist()):
            missed -= hits
            deltas[0] += hits
            deltas[1] += missed

        outcome = outcome[:completed]
        # Per reference: (gap, level cycles, extra read cycles), the
        # scalar loop's three ``cpu_cycles +=`` operands, in its order.
        addends = np.zeros(3 * completed + 1)
        addends[0] = self.cpu_cycles
        operands = addends[1:].reshape(completed, 3)
        operands[:, 0] = gap_vec[:completed]
        operands[:, 1] = self.code_cycles[outcome]
        if blocking:
            operands[outcome == memory, 2] = (
                np.array(blocking, dtype=np.float64)
                * self.read_latency_cycles
            )
        latency_ns = (operands[:, 1] + operands[:, 2]) * self.cycle_ns
        self.cpu_cycles = float(np.add.accumulate(addends, out=addends)[-1])

        is_write = write_vec[:completed].astype(bool)
        self.system._read_latency.observe_batch(latency_ns[~is_write])
        self.system._write_latency.observe_batch(latency_ns[is_write])
        self.instructions += int(gap_vec[:completed].sum()) + completed
        self.memory_requests += completed


def run_batched(system, workload, warmup_refs: int = 0, batch_size=None):
    """Execute one workload on ``system`` with the batched engine.

    The core of :meth:`SecureSystem.run`: returns ``(instructions,
    memory_requests, cpu_cycles, channel_ns)``.  The controller, the
    registry and the cache hierarchy keep the run's final state.
    """
    from repro.sim.system import REFERENCE_BATCH

    engine = BatchEngine(system, batch_size or REFERENCE_BATCH)
    # The whole stream is three arrays; warmup and measurement windows
    # are slices.
    arrays = workload.reference_arrays()
    try:
        if warmup_refs > 0:
            engine.process(
                [column[:warmup_refs] for column in arrays], emit_op=False
            )
            engine.flush_counters()
            # Checkpoint: measurement starts from warmed state.
            system.reset_measurement_stats()
            engine.reset_accounting()
        engine.process(
            [column[warmup_refs:] for column in arrays],
            emit_op=system.tracer.wants("op"),
        )
    finally:
        # Also when a reference raised: the registry keeps what the
        # caches' residency and the controller already show.
        engine.flush_counters()
    return (
        engine.instructions,
        engine.memory_requests,
        engine.cpu_cycles,
        engine.channel_ns,
    )
