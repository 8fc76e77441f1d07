"""Unified telemetry: metric registry, instruments, tracing, manifest."""

from repro.telemetry.manifest import default_manifest, manifest_json
from repro.telemetry.registry import (
    SCHEMA_VERSION,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    LabeledCounterMetric,
    MetricRegistry,
    counter_field,
    gauge_field,
)
from repro.telemetry.trace import TraceEvent, Tracer

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "LabeledCounterMetric",
    "MetricRegistry",
    "SCHEMA_VERSION",
    "TraceEvent",
    "Tracer",
    "counter_field",
    "default_manifest",
    "gauge_field",
    "manifest_json",
]
