"""Outside-in span tracing for the benchmark's traced repetition.

Wrappers are installed with ``setattr`` on the program's classes and
module globals, from the benchmark's own files: nothing under ``src/``
knows it is being traced.  Each call through a wrapped function records
one span (layer, start, end, parent span, request id) into compact
in-memory arrays.  A span's *self time* is its duration minus the time
its direct child spans cover, so the self times of every span add up to
the duration of the root spans.

Install the wrappers before the program state is built: ``BatchEngine``
binds ``controller.read``/``write`` once per run, and a method bound
before installation bypasses the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from types import FunctionType

import numpy as np

#: (layer, module, class or None for module globals, attributes).  An
#: attribute tuple of ``None`` wraps every public method the class
#: defines itself.  Layer names are the repo's module names.
HOOKS = (
    ("sim.engine", "repro.sim.system", "SecureSystem", ("run",)),
    ("telemetry", "repro.telemetry.registry", "HistogramMetric",
     ("observe_batch",)),
    ("telemetry", "repro.telemetry.trace", "Tracer", ("emit",)),
    ("controller.read", "repro.controller.secure_controller",
     "SecureMemoryController", ("read",)),
    ("controller.write", "repro.controller.secure_controller",
     "SecureMemoryController", ("write",)),
    ("cache.metadata_cache", "repro.cache.metadata_cache", "MetadataCache",
     None),
    ("counters", "repro.counters.split_counter", "SplitCounterBlock",
     ("increment", "to_bytes", "from_bytes")),
    ("counters", "repro.counters.toc_node", "TocNode",
     ("increment", "to_bytes", "from_bytes")),
    ("controller.shadow", "repro.controller.shadow", "ShadowManager",
     ("write_entry", "record_mac")),
    ("controller.shadow", "repro.controller.shadow", "AnubisShadowCodec",
     ("encode",)),
    ("memory.address_map", "repro.memory.address_map", "AddressMap", None),
    ("memory.nvm", "repro.memory.nvm", "NvmDevice", None),
    ("memory.wpq", "repro.memory.wpq", "WritePendingQueue", None),
    # The Monte-Carlo stages are reached through module-global lookup
    # inside repro.faults.mc, so the module attributes are patched.
    ("faults.mc.sample_batch", "repro.faults.mc", None, ("sample_batch",)),
    ("faults.mc.candidates", "repro.faults.mc", None, ("_candidates",)),
    ("faults.mc.evaluate_batch", "repro.faults.mc", None,
     ("evaluate_batch",)),
    ("faults.mc.union", "repro.faults.mc", None, ("_union_regions",)),
    ("faults.mc.fold", "repro.faults.mc", None, ("run_mc_batch",)),
    ("faults.mc.fold", "repro.faults.streaming", "McEstimatorState",
     ("add",)),
    ("sim.sweep", "repro.sim.sweep", "SweepEngine", ("run",)),
    ("runtime.store.get", "repro.runtime.store", "ResultStore", ("get",)),
    ("runtime.store.put", "repro.runtime.store", "ResultStore", ("put",)),
    ("runtime.checkpoint.record", "repro.runtime.checkpoint",
     "CheckpointJournal", ("record",)),
    ("figures.perf_campaign", "repro.figures", None, ("run_perf_campaign",)),
    ("figures.fault_sweep", "repro.figures", None, ("run_fault_sweep",)),
    ("figures.mc_trajectory", "repro.figures", None,
     ("mc_trajectory_rows",)),
    # run_all imports the study function from the package at call time.
    ("figures.scheme_study", "repro.schemes", None, ("run_scheme_study",)),
)

#: The layer of the root span around one traced repetition: harness
#: code of the benchmark itself, outside every program layer.
ROOT_LAYER = "bench"

#: The outermost span of one of these layers starts a new request id;
#: every span nested inside it shares that id.
REQUEST_LAYERS = frozenset({"controller.read", "controller.write",
                            "faults.mc.fold"})

#: Calls whose return value says whether the layer did useful work:
#: a metadata-cache ``get`` returns ``None`` on a miss.
HIT_TESTS = {"MetadataCache.get": lambda result: result is not None}

#: Spans written to the trace file; statistics use every span.
SPAN_FILE_LIMIT = 100_000

LAYERS = tuple(dict.fromkeys(
    [ROOT_LAYER] + [layer for layer, *_ in HOOKS]))


def _hook_targets():
    """Yield ``(layer, owner, attribute name, original)`` per hook."""
    for layer, module_name, class_name, names in HOOKS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        members = vars(owner)
        if names is None:
            names = [
                name for name, value in members.items()
                if not name.startswith("_")
                and isinstance(value, (FunctionType, classmethod,
                                       staticmethod))
            ]
        for name in names:
            yield layer, owner, name, members[name]


class SpanRecorder:
    """Records spans while its wrappers are installed.

    Use as a context manager: entering installs every hook, leaving
    restores each patched attribute to the exact original object.
    """

    def __init__(self):
        self.layer_ids = {name: index for index, name in enumerate(LAYERS)}
        self.start, self.end = array("d"), array("d")
        self.layer, self.parent, self.group = (
            array("i"), array("i"), array("i"))
        self.hits = [0] * len(LAYERS)
        self.hit_calls = [0] * len(LAYERS)
        self._patches = []
        self._stack = []

    def reset(self) -> None:
        """Forget every recorded span.  Everything is emptied in place:
        the installed wrappers hold references to these objects."""
        for column in (self.start, self.end, self.layer, self.parent,
                       self.group):
            del column[:]
        self.hits[:] = [0] * len(LAYERS)
        self.hit_calls[:] = [0] * len(LAYERS)
        self._stack.clear()

    # -- installation --------------------------------------------------

    def __enter__(self):
        try:
            for layer, owner, name, original in _hook_targets():
                setattr(owner, name, self._wrap_member(original, layer))
                self._patches.append((owner, name, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap_member(self, member, layer: str):
        layer_id = self.layer_ids[layer]
        if isinstance(member, (classmethod, staticmethod)):
            return type(member)(self._wrap(member.__func__, layer_id))
        return self._wrap(member, layer_id)

    # -- recording -----------------------------------------------------

    def _count_hits(self, func, layer_id: int, hit_test):
        hits, hit_calls = self.hits, self.hit_calls

        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            hit_calls[layer_id] += 1
            if hit_test(result):
                hits[layer_id] += 1
            return result
        return counted

    def _wrap(self, func, layer_id: int):
        # Every per-call lookup is hoisted into the closure: the wrapper
        # runs millions of times per traced repetition.
        hit_test = HIT_TESTS.get(func.__qualname__)
        inner = (func if hit_test is None
                 else self._count_hits(func, layer_id, hit_test))
        request = LAYERS[layer_id] in REQUEST_LAYERS
        stack, groups, ends = self._stack, self.group, self.end
        push, pop = stack.append, stack.pop
        add_layer, add_parent = self.layer.append, self.parent.append
        add_group, add_end = groups.append, ends.append
        add_start, clock = self.start.append, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(ends)
            if stack:
                parent = stack[-1]
                group = groups[parent]
                if group < 0 and request:
                    group = index
            else:
                parent = -1
                group = index if request else -1
            add_layer(layer_id)
            add_parent(parent)
            add_group(group)
            add_end(0.0)
            push(index)
            add_start(clock())
            try:
                return inner(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()
        return wrapper

    def run_root(self, fn):
        """Call ``fn()`` under one root span: a traced repetition."""
        return self._wrap(fn, self.layer_ids[ROOT_LAYER])()

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns (a view would pin the arrays'
        buffers and make the next ``reset`` fail)."""
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "layer": np.array(self.layer, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "group": np.array(self.group, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per layer: calls, self time, inclusive time, and the
        durations of its outermost spans (a layer's spans nested in
        another span of the same layer count once toward inclusive)."""
        a = self.arrays()
        layer, parent = a["layer"], a["parent"]
        duration = a["end"] - a["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=len(layer))
        self_time = duration - covered
        outermost = ~nested
        outermost[nested] = layer[parent[nested]] != layer[nested]
        count = len(LAYERS)
        calls = np.bincount(layer, minlength=count)
        self_s = np.bincount(layer, weights=self_time, minlength=count)
        incl_s = np.bincount(layer[outermost], weights=duration[outermost],
                             minlength=count)
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "incl_s": float(incl_s[i]),
                "hits": self.hits[i],
                "hit_calls": self.hit_calls[i],
                "durations": duration[(layer == i) & outermost],
            }
            for i, name in enumerate(LAYERS)
        }

    def to_json(self) -> dict:
        """The spans as columns (times in ns from the first span), capped
        at :data:`SPAN_FILE_LIMIT` rows."""
        a = self.arrays()
        n = min(len(a["layer"]), SPAN_FILE_LIMIT)
        origin = a["start"][0] if n else 0.0

        def ns(values):
            return np.rint((values[:n] - origin) * 1e9).astype(np.int64)

        return {
            "layers": list(LAYERS),
            "count": len(a["layer"]),
            "written": n,
            "start_ns": ns(a["start"]).tolist(),
            "end_ns": ns(a["end"]).tolist(),
            "layer": a["layer"][:n].tolist(),
            "parent": a["parent"][:n].tolist(),
            "group": a["group"][:n].tolist(),
        }


def tail_percentile(n: int):
    """The highest of p99/p95/p90 with at least ten samples beyond it
    (p99 from 1000 calls, p95 from 200, p90 from 100), or ``None``.
    Call counts are exact, so a workload's tail percentile is fixed."""
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return None


#: Per-layer metrics: (name, unit).  ``layer_metrics`` computes each.
PER_LAYER = (
    ("bench.self_s", "s"),
    ("sim.engine.self_s", "s"),
    ("telemetry.calls", "count"),
    ("telemetry.self_s", "s"),
    ("controller.read.calls", "count"),
    ("controller.read.self_s", "s"),
    ("controller.read.p50_us", "us"),
    ("controller.read.tail_us", "us"),
    ("controller.write.calls", "count"),
    ("controller.write.self_s", "s"),
    ("controller.write.p50_us", "us"),
    ("controller.write.tail_us", "us"),
    ("controller.us_per_miss", "us"),
    ("cache.metadata_cache.calls", "count"),
    ("cache.metadata_cache.self_s", "s"),
    ("cache.metadata_cache.hit_ratio", "ratio"),
    ("counters.calls", "count"),
    ("counters.self_s", "s"),
    ("controller.shadow.calls", "count"),
    ("controller.shadow.self_s", "s"),
    ("memory.address_map.calls", "count"),
    ("memory.address_map.self_s", "s"),
    ("memory.nvm.calls", "count"),
    ("memory.nvm.self_s", "s"),
    ("memory.wpq.calls", "count"),
    ("memory.wpq.self_s", "s"),
    ("faults.mc.sample_batch.calls", "count"),
    ("faults.mc.sample_batch.self_s", "s"),
    ("faults.mc.candidates.self_s", "s"),
    ("faults.mc.evaluate_batch.self_s", "s"),
    ("faults.mc.union.calls", "count"),
    ("faults.mc.union.self_s", "s"),
    ("faults.mc.fold.self_s", "s"),
    ("faults.mc.union_fallback_ratio", "ratio"),
    ("sim.sweep.self_s", "s"),
    ("runtime.store.get.calls", "count"),
    ("runtime.store.get.self_s", "s"),
    ("runtime.store.put.calls", "count"),
    ("runtime.store.put.self_s", "s"),
    ("runtime.checkpoint.record.calls", "count"),
    ("runtime.checkpoint.record.self_s", "s"),
    ("runtime.overhead_fraction", "ratio"),
    ("runtime.resume_served_ratio", "ratio"),
    ("figures.perf_campaign_s", "s"),
    ("figures.fault_sweep_s", "s"),
    ("figures.mc_trajectory_s", "s"),
    ("figures.scheme_study_s", "s"),
    ("figures.self_s", "s"),
    ("model.nvm_reads", "count"),
    ("model.nvm_writes", "count"),
    ("model.clone_writes", "count"),
    ("model.metadata_miss_rate", "ratio"),
    ("model.exec_time_ns", "sim_ns"),
    ("model.sac_slowdown_pct", "%"),
    ("model.sac_write_overhead_pct", "%"),
    ("model.sac_udr", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float,
                  facts: dict, scale: float = 1.0) -> dict:
    """Every :data:`PER_LAYER` metric from a recorder summary.

    ``facts`` carries what the workload read off the program's outputs:
    the ``model.*`` values, ``runtime.resume_served_ratio`` and
    ``faults.mc.approximated``.  Host times (units ``s`` and ``us``)
    are multiplied by ``scale``, the traced repetition's factor to the
    reference host speed at which ``untraced_wall`` was already given.
    A layer the workload never entered reports zero calls and zero time.
    """
    metrics = {}
    for layer, stats in summary.items():
        metrics[f"{layer}.calls"] = stats["calls"]
        metrics[f"{layer}.self_s"] = stats["self_s"]
    for kind in ("read", "write"):
        durations = summary[f"controller.{kind}"]["durations"] * 1e6
        tail = tail_percentile(len(durations))
        prefix = f"controller.{kind}"
        metrics[f"{prefix}.p50_us"] = (
            float(np.percentile(durations, 50)) if len(durations) else 0.0)
        metrics[f"{prefix}.tail_us"] = (
            float(np.percentile(durations, tail)) if tail else 0.0)
    read, write = summary["controller.read"], summary["controller.write"]
    metrics["controller.us_per_miss"] = 1e6 * _ratio(
        read["incl_s"] + write["incl_s"], read["calls"] + write["calls"])
    cache = summary["cache.metadata_cache"]
    metrics["cache.metadata_cache.hit_ratio"] = _ratio(
        cache["hits"], cache["hit_calls"])
    approximated = facts.get("faults.mc.approximated", 0)
    metrics["faults.mc.union_fallback_ratio"] = _ratio(
        approximated, approximated + summary["faults.mc.union"]["calls"])
    runtime_s = sum(summary[name]["self_s"] for name in (
        "sim.sweep", "runtime.store.get", "runtime.store.put",
        "runtime.checkpoint.record"))
    metrics["runtime.overhead_fraction"] = _ratio(
        runtime_s, summary["sim.sweep"]["incl_s"])
    stages = [f"figures.{stage}" for stage in (
        "perf_campaign", "fault_sweep", "mc_trajectory", "scheme_study")]
    for stage in stages:
        metrics[f"{stage}_s"] = summary[stage]["incl_s"]
    # Figure-stage code outside every wrapped layer (row building, CSV
    # export, the analytic models) is one layer: repro.figures.
    metrics["figures.self_s"] = sum(summary[s]["self_s"] for s in stages)
    metrics["trace.overhead_ratio"] = _ratio(traced_wall * scale,
                                             untraced_wall)
    metrics["trace.spans"] = sum(s["calls"] for s in summary.values())
    metrics["trace.wall_s"] = traced_wall
    metrics.update(facts)
    return {
        name: metrics.get(name, 0) * (scale if unit in ("s", "us") else 1)
        for name, unit in PER_LAYER
    }
