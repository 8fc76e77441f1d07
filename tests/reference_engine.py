"""The per-reference engine loop the batch fold replaced, kept as a
reference.

:func:`reference_process` is ``BatchEngine.process`` as it was before
counts, cycles and latencies moved into a per-batch numpy fold: every
L1 hit adds its gap and latency to ``cpu_cycles`` and appends its
latency to a list, every L1 miss walks the lower levels with a
``divmod`` per level, and :func:`reference_observe_batch` folds those
lists into the histograms one value at a time.  It is the
scalar accumulation order the replay fixtures were recorded from, so
``tests/test_engine.py`` checks the engine against it on random traces
and configurations the fixtures do not cover.  :class:`ReferenceEngine`
supplies the per-level tables that loop reads; patch it over
``repro.sim.engine.BatchEngine`` to run a system on it.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import BatchEngine


class ReferenceEngine(BatchEngine):
    """:class:`~repro.sim.engine.BatchEngine` driven by
    :func:`reference_process`."""

    def __init__(self, system, batch_size: int):
        super().__init__(system, batch_size)
        self.lat_steps = [c.latency_cycles
                          for c in system.hierarchy.configs]
        cumulative = []
        total = 0
        for step in self.lat_steps:
            total += step
            cumulative.append(total)
        self.cum_lat = cumulative
        self.hit_ns = [
            (lat + 0 * self.read_latency_cycles) * self.cycle_ns
            for lat in cumulative
        ]

    def _batches(self, arrays):
        """Yield ``(address_vec, writes, gaps, n)`` per reference batch
        of an ``(addresses, writes, gaps)`` array triple: a fresh int64
        address vector (the dispatch loop wraps it in place) plus
        plain-Python ``writes``/``gaps`` lists."""
        addresses, is_writes, gap_array = arrays
        total = len(addresses)
        for start in range(0, total, self.batch_size):
            stop = min(start + self.batch_size, total)
            yield (
                addresses[start:stop].astype(np.int64, copy=True),
                is_writes[start:stop].astype(np.intp).tolist(),
                gap_array[start:stop].tolist(),
                stop - start,
            )


def reference_process(self, arrays, emit_op: bool = False) -> None:
    """Drain an ``(addresses, writes, gaps)`` triple, batch by batch.

    ``emit_op`` emits the per-op trace event before each reference
    (fault injectors and scrubbers subscribe to it); warmup passes
    run with it off.
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

    for address_vec, writes, gaps, n in self._batches(arrays):
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
        miss_at = -1  # index of the batch's latest L1 miss

        try:
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
                miss_at = i
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

                # Residual functional stream: LLC miss (demand read),
                # then the dirty LLC writeback.
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
        except BaseException:
            # Reference i raised: fold the partial batch and
            # re-raise.  It was probed only if it raised on its way
            # to the controller (its latest miss), not in its op
            # event.
            n = i + 1 if miss_at == i else i
            raise
        finally:
            deltas0[0] += n - misses0
            deltas0[1] += misses0
            deltas0[2] += evictions0
            deltas0[3] += dirty0
            deltas0[4] += dirty0
            reference_observe_batch(read_latency, read_ns)
            reference_observe_batch(write_latency, write_ns)
        op_index += n

    self.instructions = instructions
    self.memory_requests = op_index
    self.cpu_cycles = cpu_cycles
    self.channel_ns = channel_ns


def reference_observe_batch(histogram, values) -> None:
    """``HistogramMetric.observe_batch`` as it was: ``total`` folds in
    a Python loop, one ``+=`` per value."""
    if not values:
        return
    edges = np.asarray(histogram.edges, dtype=np.float64)
    indices = np.searchsorted(edges, values, side="left")
    bincount = np.bincount(indices, minlength=len(histogram.counts))
    for index, n in enumerate(bincount):
        if n:
            histogram.counts[index] += int(n)
    histogram.count += len(values)
    total = histogram.total
    for value in values:
        total += value
    histogram.total = total


ReferenceEngine.process = reference_process
