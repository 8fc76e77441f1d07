"""Tests for the unified telemetry layer.

Covers the instruments and registry in isolation, the tracer, the
registry-wide warmup reset (every stat domain zeroes through one
``registry.reset()``), the golden metric manifest, and the sorted-key /
schema-stamped report contracts.
"""

import json
import os

import pytest

from repro.sim import SecureSystem, SystemConfig
from repro.telemetry import (
    SCHEMA_VERSION,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    LabeledCounterMetric,
    MetricRegistry,
    Tracer,
    manifest_json,
)
from repro.workloads import gcc, ubench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestInstruments:
    def test_counter_inc_and_reset(self):
        metric = CounterMetric("x.count")
        metric.inc()
        metric.n += 2
        assert metric.value == 3
        assert not metric.is_zero()
        metric.reset()
        assert metric.is_zero() and metric.snapshot() == 0

    def test_gauge_set_semantics(self):
        metric = GaugeMetric("x.level")
        metric.set(7)
        metric.set(4)  # absolute, not cumulative
        assert metric.value == 4
        metric.reset()
        assert metric.is_zero()

    def test_labeled_counter_is_a_counter(self):
        metric = LabeledCounterMetric("x.by_kind", label="kind")
        metric["data"] += 2
        metric.inc("clone", 3)
        assert metric["missing"] == 0
        assert metric.value == 5
        assert metric == {"data": 2, "clone": 3}
        assert metric.snapshot() == {"clone": 3, "data": 2}
        assert list(metric.snapshot()) == ["clone", "data"]  # sorted
        metric.reset()
        assert metric.is_zero()

    def test_histogram_percentiles_are_ordered(self):
        metric = HistogramMetric("x.latency", buckets=[1, 2, 4, 8, 16])
        for value in [0.5, 1.5, 3, 3, 6, 12, 100]:
            metric.observe(value)
        summary = metric.summary()
        assert summary["count"] == 7
        assert 0 <= summary["p50"] <= summary["p95"] <= summary["p99"]
        # Overflow observations clamp to the last finite edge.
        assert summary["p99"] <= 16

    def test_histogram_empty_and_reset(self):
        metric = HistogramMetric("x.latency", buckets=[1, 2])
        assert metric.percentile(0.5) == 0.0
        metric.observe(1.5)
        metric.reset()
        assert metric.is_zero() and metric.count == 0

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            CounterMetric("bad name")
        with pytest.raises(ValueError):
            CounterMetric("trailing.")


class TestMetricRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError):
            registry.counter("a.b")

    def test_adopt_skips_registered(self):
        registry = MetricRegistry()
        metric = registry.counter("a.b")
        registry.adopt([metric, CounterMetric("a.c")])
        assert registry.names() == ["a.b", "a.c"]

    def test_snapshot_sorted_and_schema_stamped(self):
        registry = MetricRegistry()
        registry.counter("z.last").inc(1)
        registry.counter("a.first").inc(2)
        assert list(registry.snapshot()) == ["a.first", "z.last"]
        payload = json.loads(registry.to_json())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["metrics"] == {"a.first": 2, "z.last": 1}

    def test_delta_since_snapshot(self):
        registry = MetricRegistry()
        counter = registry.counter("c")
        labeled = registry.labeled_counter("l", label="kind")
        gauge = registry.gauge("g")
        hist = registry.histogram("h", buckets=[1, 2])
        counter.inc(5)
        labeled.inc("x", 2)
        before = registry.snapshot()
        counter.inc(3)
        labeled.inc("x")
        labeled.inc("y", 4)
        gauge.set(9)
        hist.observe(1)
        delta = registry.delta(before)
        assert delta["c"] == 3
        assert delta["l"] == {"x": 1, "y": 4}
        assert delta["g"] == 9  # gauges report current value
        assert delta["h"] == {"count": 1}

    def test_reset_zeroes_every_instrument(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        registry.labeled_counter("l").inc("k")
        registry.gauge("g").set(1)
        registry.histogram("h", buckets=[1]).observe(5)
        registry.reset()
        assert all(metric.is_zero() for metric in registry)


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        assert tracer.enabled is False
        tracer.emit("anything", x=1)  # no subscribers: no-op

    def test_subscribe_emit_unsubscribe(self):
        tracer = Tracer()
        events = []
        fn = tracer.subscribe("op", events.append)
        assert tracer.enabled and tracer.wants("op")
        tracer.emit("op", index=3)
        tracer.emit("other", index=4)  # nobody wants it
        assert len(events) == 1
        assert events[0].kind == "op" and events[0].index == 3
        assert events[0].fields == {"index": 3}
        tracer.unsubscribe("op", fn)
        assert tracer.enabled is False


class TestSystemTelemetry:
    @pytest.fixture
    def config(self):
        return SystemConfig.scaled(16)

    def test_registry_covers_all_domains(self, config):
        system = SecureSystem("sac", config=config)
        prefixes = {name.split(".")[0] for name in system.registry.names()}
        assert {"cache", "metadata_cache", "controller", "nvm", "latency"} <= prefixes

    def test_reset_measurement_stats_zeroes_every_instrument(self, config):
        """Regression (registry-wide reset): after driving traffic,
        one reset call must zero *every* registered instrument — a new
        stat domain cannot leak warmup traffic into measured rates."""
        system = SecureSystem("sac", config=config)
        system.run(gcc(footprint_bytes=1 << 20, num_refs=1500))
        dirty = [m.name for m in system.registry if not m.is_zero()]
        assert dirty, "the run should have touched some instruments"
        system.reset_measurement_stats()
        still_dirty = [m.name for m in system.registry if not m.is_zero()]
        assert still_dirty == []

    def test_stat_views_share_registry_storage(self, config):
        system = SecureSystem("baseline", config=config)
        system.run(ubench(64, footprint_bytes=1 << 20, num_refs=500))
        controller = system.controller
        registry = system.registry
        assert registry.get("controller.data_reads").value == controller.stats.data_reads
        assert registry.get("nvm.reads").value == controller.nvm.read_count
        assert (
            registry.get("metadata_cache.misses").value
            == controller.metadata_cache.stats.misses
        )
        llc = system.hierarchy.llc
        assert registry.get(f"cache.{llc.name}.hits").value == llc.stats.hits

    def test_latency_histograms_in_result(self, config):
        system = SecureSystem("baseline", config=config)
        result = system.run(ubench(64, footprint_bytes=1 << 20, num_refs=2000))
        read = result.latency_ns["read"]
        write = result.latency_ns["write"]
        assert read["count"] + write["count"] == result.memory_requests
        for summary in (read, write):
            assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_simresult_dicts_are_key_sorted(self, config):
        system = SecureSystem("sac", config=config)
        result = system.run(gcc(footprint_bytes=1 << 20, num_refs=1500))
        assert list(result.writes_by_kind) == sorted(result.writes_by_kind)
        assert list(result.reads_by_kind) == sorted(result.reads_by_kind)
        assert list(result.evictions_by_level) == sorted(result.evictions_by_level)

    def test_op_events_index_post_warmup_references(self, config):
        """``"op"`` events start after warmup and count from 0 — the
        op indices fault injectors and scrubbers schedule against."""
        system = SecureSystem("baseline", config=config)
        seen = []
        system.tracer.subscribe("op", lambda e: seen.append(e.index))
        system.run(
            ubench(64, footprint_bytes=1 << 20, num_refs=400),
            warmup_refs=100,
        )
        assert seen == list(range(300))

    def test_tracer_emits_structured_op_events(self, config):
        system = SecureSystem("baseline", config=config)
        kinds = []
        system.tracer.subscribe("op", lambda e: kinds.append(e.index))
        system.run(ubench(64, footprint_bytes=1 << 20, num_refs=100))
        assert kinds == list(range(100))

    def test_demand_read_and_metadata_events(self, config):
        system = SecureSystem("baseline", config=config)
        events = []
        system.tracer.subscribe("demand_read", events.append)
        system.tracer.subscribe("metadata_miss", events.append)
        system.run(ubench(64, footprint_bytes=1 << 20, num_refs=500))
        kinds = {e.kind for e in events}
        assert kinds == {"demand_read", "metadata_miss"}


class TestManifest:
    def test_golden_manifest_matches(self):
        """The committed manifest is the review gate for metric renames:
        regenerate with `python -m repro metrics --manifest --out
        telemetry_manifest.json` when instruments legitimately change."""
        golden_path = os.path.join(REPO_ROOT, "telemetry_manifest.json")
        with open(golden_path) as fh:
            golden = fh.read()
        assert manifest_json() == golden

    def test_manifest_shape(self):
        manifest = json.loads(manifest_json())
        assert manifest["schema"] == SCHEMA_VERSION
        names = [m["name"] for m in manifest["metrics"]]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        by_name = {m["name"]: m for m in manifest["metrics"]}
        assert by_name["controller.nvm_writes_by_kind"]["type"] == "labeled_counter"
        assert by_name["controller.nvm_writes_by_kind"]["label"] == "kind"
        assert by_name["latency.read"]["type"] == "histogram"
        assert by_name["latency.read"]["buckets"] == [float(2 ** k) for k in range(1, 15)]
        assert by_name["controller.quarantined_bytes"]["type"] == "gauge"
        assert all(m["help"] for m in manifest["metrics"])


class TestHistogramOverflowAndBatch:
    """The latency-reporting honesty fixes: overflow surfaced, edge
    semantics pinned, and the batched path bit-identical to scalar."""

    def test_overflow_surfaced_in_summary(self):
        metric = HistogramMetric("x.latency", buckets=[1, 2, 4])
        for value in [0.5, 1.5, 100, 200, 300]:
            metric.observe(value)
        assert metric.overflow == 3
        summary = metric.summary()
        assert summary["overflow"] == 3
        assert summary["count"] == 5

    def test_overflowing_percentile_truncates_at_last_edge(self):
        """A quantile landing in the overflow bucket has no finite
        upper edge: the last edge is returned as an honest lower
        bound, never an extrapolated guess."""
        metric = HistogramMetric("x.latency", buckets=[1, 2, 4])
        for value in [100, 200, 300]:
            metric.observe(value)
        assert metric.percentile(0.5) == 4.0
        assert metric.percentile(0.99) == 4.0
        assert metric.summary()["p99"] == 4.0
        assert metric.summary()["overflow"] == 3

    def test_edge_value_counts_in_upper_bucket(self):
        """Pinned semantics: bucket i covers (edges[i-1], edges[i]] —
        a value exactly on an edge lands in the bucket whose *upper*
        edge it is (bisect_left)."""
        metric = HistogramMetric("x.latency", buckets=[1, 2, 4])
        metric.observe(2)          # exactly on an edge
        assert metric.counts == [0, 1, 0, 0]
        metric.observe(4)          # last finite edge: NOT overflow
        assert metric.counts == [0, 1, 1, 0]
        assert metric.overflow == 0
        metric.observe(4.000001)   # just past the edge: overflow
        assert metric.overflow == 1

    def test_observe_batch_bit_identical_to_sequential(self):
        """counts, count and total (float, accumulation-order
        sensitive) must be exactly equal, not approximately."""
        import numpy as np
        rng = np.random.default_rng(7)
        values = (rng.random(5000) * 20.0).tolist()
        edges = [1, 2, 4, 8, 16]
        scalar = HistogramMetric("x.a", buckets=edges)
        batched = HistogramMetric("x.b", buckets=edges)
        for value in values:
            scalar.observe(value)
        # Uneven batch splits: identity must not depend on batching.
        for chunk in (values[:1], values[1:1000], values[1000:], []):
            batched.observe_batch(chunk)
        assert batched.counts == scalar.counts
        assert batched.count == scalar.count
        assert batched.total == scalar.total     # bit-equal float
        assert batched.summary() == scalar.summary()

    def test_percentile_tracks_numpy_percentile(self):
        """Within-bucket linear interpolation keeps the estimate close
        to numpy's exact order statistic (one bucket width is the
        resolution bound), and the overflow case truncates where numpy
        would report the true larger value."""
        import numpy as np
        rng = np.random.default_rng(11)
        values = (rng.random(8000) * 16.0).tolist()
        edges = [2 ** k for k in range(-2, 5)]   # 0.25 .. 16
        metric = HistogramMetric("x.latency", buckets=edges)
        metric.observe_batch(values)
        assert metric.overflow == 0
        for q in (0.50, 0.90, 0.95, 0.99):
            exact = float(np.percentile(values, q * 100))
            estimate = metric.percentile(q)
            # The winning bucket bounds the error by its own width.
            from bisect import bisect_left
            index = bisect_left(metric.edges, exact)
            lower = metric.edges[index - 1] if index > 0 else 0.0
            width = metric.edges[min(index, len(metric.edges) - 1)] - lower
            assert abs(estimate - exact) <= width + 1e-9

        # Overflow: numpy sees the real tail; the histogram truncates
        # at the last edge and says so via the overflow count.
        tail = values + [500.0] * 800            # ~9% above the edge
        overflowing = HistogramMetric("x.tail", buckets=edges)
        overflowing.observe_batch(tail)
        assert overflowing.overflow == 800
        assert overflowing.percentile(0.99) == float(edges[-1])
        assert float(np.percentile(tail, 99)) > edges[-1]
