"""One metric registry for every stat domain in the simulator.

Every counter that feeds a paper figure — CPU-cache hit/miss counts,
metadata-cache traffic, controller NVM traffic by kind, device-level
read/write counts, per-request latency histograms — is an *instrument*
registered here by construction.  That single fact is what makes the
warmup checkpoint safe: ``MetricRegistry.reset()`` zeroes every
registered instrument, so a new stat domain cannot silently leak warmup
traffic into measured rates (the PR 2 class of bug).

Four instrument kinds:

* :class:`CounterMetric` — monotonically increasing scalar;
* :class:`LabeledCounterMetric` — a family of counters keyed by one
  label (the ``*_by_kind`` / ``*_by_level`` breakdowns).  Subclasses
  :class:`collections.Counter`, so existing call sites
  (``metric[kind] += n``, ``.get``, ``.items``, equality) keep working;
* :class:`GaugeMetric` — a settable point-in-time value;
* :class:`HistogramMetric` — fixed-bucket distribution with
  deterministic percentile estimation (per-request latency).

Instruments can be built standalone (unit tests) or registered into a
:class:`MetricRegistry`, which provides atomic ``snapshot()`` /
``delta()`` / ``reset()`` over every instrument plus a machine-readable
manifest (name, type, label, buckets, help, schema version).

Hot-path convention: incrementing through ``metric.n += 1`` (counters)
is a plain attribute store, exactly as cheap as the dataclass fields it
replaced; owners hoist instrument references next to their hot loops.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections import Counter

#: Version stamp carried by snapshots, manifests, and every JSON report
#: derived from registry metrics.  Bump when metrics are renamed or
#: removed (additions are backward-compatible).
SCHEMA_VERSION = "telemetry/v1"

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: use dotted segments of "
            "[A-Za-z0-9_]"
        )
    return name


class CounterMetric:
    """A monotonically increasing scalar.

    The count lives in the public attribute ``n`` so hot paths can do
    ``metric.n += 1`` (identical bytecode to the dataclass field it
    replaced); ``inc`` and ``value`` are the polite API.
    """

    kind = "counter"
    __slots__ = ("name", "help", "n")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.n = 0

    @property
    def value(self) -> int:
        return self.n

    def inc(self, n: int = 1) -> None:
        self.n += n

    def reset(self) -> None:
        self.n = 0

    def is_zero(self) -> bool:
        return self.n == 0

    def snapshot(self):
        return self.n

    def describe(self) -> dict:
        return {"name": self.name, "type": self.kind, "help": self.help}

    def __repr__(self) -> str:
        return f"CounterMetric({self.name!r}, n={self.n})"


class GaugeMetric:
    """A settable point-in-time value (quarantined bytes, shares, ...)."""

    kind = "gauge"
    __slots__ = ("name", "help", "v")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.v = 0

    @property
    def value(self):
        return self.v

    def set(self, value) -> None:
        self.v = value

    def reset(self) -> None:
        self.v = 0

    def is_zero(self) -> bool:
        return self.v == 0

    def snapshot(self):
        return self.v

    def describe(self) -> dict:
        return {"name": self.name, "type": self.kind, "help": self.help}

    def __repr__(self) -> str:
        return f"GaugeMetric({self.name!r}, v={self.v})"


def counter_field(attr: str) -> property:
    """Property pair exposing the CounterMetric at ``self.<attr>`` as a
    plain-int field (the stat views' historical dataclass fields)."""

    def fget(self):
        return getattr(self, attr).n

    def fset(self, value):
        getattr(self, attr).n = value

    return property(fget, fset)


def gauge_field(attr: str) -> property:
    """Property pair exposing the GaugeMetric at ``self.<attr>`` as a
    plain field."""

    def fget(self):
        return getattr(self, attr).v

    def fset(self, value):
        getattr(self, attr).v = value

    return property(fget, fset)


class LabeledCounterMetric(Counter):
    """A counter family keyed by one label (kind, tree level, ...).

    Subclasses :class:`collections.Counter`: missing labels read 0,
    ``metric[label] += n`` registers new labels on the fly, and equality
    against plain Counters/dicts works — so the ``*_by_kind`` call
    sites and tests did not have to change.
    """

    kind = "labeled_counter"

    def __init__(self, name: str, label: str = "label", help: str = ""):
        super().__init__()
        self.name = _check_name(name)
        self.label = label
        self.help = help

    def inc(self, key, n: int = 1) -> None:
        self[key] += n

    @property
    def value(self) -> int:
        """Sum across all labels."""
        return sum(self.values())

    def reset(self) -> None:
        self.clear()

    def is_zero(self) -> bool:
        return not any(self.values())

    def snapshot(self) -> dict:
        """Label -> count with sorted keys (bit-stable JSON export)."""
        return {key: self[key] for key in sorted(self)}

    def describe(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "label": self.label,
            "help": self.help,
        }

    def __repr__(self) -> str:
        return f"LabeledCounterMetric({self.name!r}, {dict(self)!r})"


class HistogramMetric:
    """Fixed-bucket histogram with deterministic percentiles.

    ``buckets`` are finite upper edges; one implicit overflow bucket
    catches everything above the last edge.  Percentiles interpolate
    linearly inside the winning bucket, so they are a pure function of
    the bucket counts — identical across jobs=1 and jobs=N runs.

    Edge semantics (pinned): a value exactly on a bucket edge counts in
    the bucket whose *upper* edge it is (``bisect_left``), i.e. bucket
    ``i`` covers ``(edges[i-1], edges[i]]``.  The vectorized batch path
    (:meth:`observe_batch`, ``numpy.searchsorted(side="left")``) must
    agree with this bit-for-bit — regression-tested in
    ``tests/test_telemetry.py``.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "edges", "counts", "count", "total",
                 "_edges_array")

    def __init__(self, name: str, buckets, help: str = ""):
        edges = tuple(sorted(buckets))
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if len(set(edges)) != len(edges):
            raise ValueError("bucket edges must be distinct")
        self.name = _check_name(name)
        self.help = help
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self._edges_array = None   # lazy numpy mirror for observe_batch

    def observe(self, value) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value

    def observe_batch(self, values) -> None:
        """Observe a whole batch at once, bit-identical to calling
        :meth:`observe` on each value in order.

        ``values`` is a float64 array (the batch engine's latencies,
        in reference order) or any sequence numpy converts to one.
        Bucketing uses ``numpy.searchsorted(side="left")`` (the exact
        vector analogue of ``bisect_left``).  ``total`` folds with one
        ``numpy.add.accumulate`` over ``[total, *values]``, which adds
        strictly left to right like the per-value ``+=`` chain, so the
        float rounding matches exactly (``numpy.sum``, pairwise, or
        ``math.fsum``, exact, would round differently).
        """
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if not len(values):
            return
        if self._edges_array is None:
            self._edges_array = np.asarray(self.edges, dtype=np.float64)
        indices = np.searchsorted(self._edges_array, values, side="left")
        bincount = np.bincount(indices, minlength=len(self.counts))
        counts = self.counts
        for index, n in enumerate(bincount.tolist()):
            if n:
                counts[index] += n
        self.count += len(values)
        running = np.empty(len(values) + 1)
        running[0] = self.total
        running[1:] = values
        self.total = float(np.add.accumulate(running, out=running)[-1])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def overflow(self) -> int:
        """Observations above the last finite edge (the implicit
        overflow bucket).  A percentile that lands here is *truncated*
        at the last edge — consumers must read this count alongside the
        percentiles to know when the tail has been cut off."""
        return self.counts[-1]

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) from the bucket counts.

        A quantile falling in the overflow bucket has no finite upper
        edge to interpolate toward, so the last finite edge is returned
        as an honest lower bound; ``summary()['overflow']`` carries the
        count that tells consumers the estimate is truncated.
        """
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == len(self.edges):
                    # Overflow bucket: truncated at the last finite
                    # edge (see docstring; overflow count reported in
                    # summary()).
                    return float(self.edges[-1])
                lower = self.edges[index - 1] if index > 0 else 0.0
                upper = self.edges[index]
                inside = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, inside)
            cumulative += bucket_count
        return float(self.edges[-1])

    def summary(self) -> dict:
        """count/mean/p50/p95/p99/overflow — the figure-facing digest.

        ``overflow`` is the number of observations above the last
        finite bucket edge; when it is non-zero, any percentile equal
        to the last edge is a truncated lower bound, not an estimate.
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "overflow": self.overflow,
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0

    def is_zero(self) -> bool:
        return self.count == 0

    def snapshot(self) -> dict:
        return self.summary()

    def describe(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "buckets": list(self.edges),
            "help": self.help,
        }

    def __repr__(self) -> str:
        return f"HistogramMetric({self.name!r}, count={self.count})"


class MetricRegistry:
    """Hierarchically namespaced instruments with atomic snapshot/reset.

    One registry per simulated system: the CPU caches, the metadata
    cache, the controller, and the NVM device all register their
    instruments into it at construction, so registry-wide operations
    cover every stat domain by construction.
    """

    def __init__(self):
        self._metrics: dict = {}

    # -- registration --------------------------------------------------

    def register(self, metric):
        """Register an existing instrument; duplicate names are an
        error (two owners fighting over one time series)."""
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> CounterMetric:
        return self.register(CounterMetric(name, help=help))

    def labeled_counter(
        self, name: str, label: str = "label", help: str = ""
    ) -> LabeledCounterMetric:
        return self.register(LabeledCounterMetric(name, label=label, help=help))

    def gauge(self, name: str, help: str = "") -> GaugeMetric:
        return self.register(GaugeMetric(name, help=help))

    def histogram(self, name: str, buckets, help: str = "") -> HistogramMetric:
        return self.register(HistogramMetric(name, buckets, help=help))

    def ensure(self, kind: str, name: str, **kwargs):
        """Get-or-create: return the named instrument if registered,
        else create it via the ``kind`` factory (``"counter"``,
        ``"labeled_counter"``, ``"gauge"``, ``"histogram"``).

        Lets several engine instances share one registry (e.g. the
        per-wave sweep engines of a Monte-Carlo campaign accumulating
        into one ``runtime.*`` time series) without tripping the
        duplicate-registration error.
        """
        if name in self._metrics:
            return self._metrics[name]
        return getattr(self, kind)(name, **kwargs)

    def adopt(self, metrics) -> None:
        """Register instruments created elsewhere (e.g. a pre-built
        ``NvmDevice`` handed to a controller), so registry-wide
        reset/snapshot still covers them."""
        for metric in metrics:
            if metric.name not in self._metrics:
                self.register(metric)

    # -- lookup --------------------------------------------------------

    def get(self, name: str):
        return self._metrics[name]

    def names(self) -> list:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- registry-wide operations --------------------------------------

    def reset(self) -> None:
        """Zero every registered instrument (the warmup checkpoint)."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> dict:
        """Name -> value for every instrument, sorted by name."""
        return {
            name: self._metrics[name].snapshot() for name in sorted(self._metrics)
        }

    def delta(self, since: dict) -> dict:
        """Change relative to an earlier :meth:`snapshot`.

        Counters and labeled counters subtract; histograms report the
        count difference; gauges report their current value (a gauge
        has no meaningful rate).  Instruments absent from ``since``
        (registered later) diff against zero.
        """
        out = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            now = metric.snapshot()
            then = since.get(name)
            if metric.kind == "counter":
                out[name] = now - (then or 0)
            elif metric.kind == "labeled_counter":
                then = then or {}
                keys = sorted(set(now) | set(then), key=str)
                out[name] = {k: now.get(k, 0) - then.get(k, 0) for k in keys}
            elif metric.kind == "histogram":
                out[name] = {
                    "count": now["count"] - (then or {}).get("count", 0)
                }
            else:  # gauge
                out[name] = now
        return out

    def to_json(self, indent: int = 2) -> str:
        """Schema-stamped, sorted-key JSON export of the snapshot."""
        return json.dumps(
            {"schema": SCHEMA_VERSION, "metrics": self.snapshot()},
            indent=indent,
            sort_keys=True,
        )

    def manifest(self) -> dict:
        """Machine-readable description of every registered instrument."""
        return {
            "schema": SCHEMA_VERSION,
            "metrics": [
                self._metrics[name].describe() for name in sorted(self._metrics)
            ],
        }
