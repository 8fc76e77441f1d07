"""Engine contract tests: the vector engine vs its pinned replay corpus.

The engine's contract is **bit identity** with its own recorded
behavior, not statistical closeness: same ``SimResult`` (floats
included), same registry snapshot, same cache residency, same typed
error when a run dies.  The scalar reference loop the engine was
originally proven against is retired; the committed replay fixture
(``tests/fixtures/engine_replay.json``) now carries that evidence, and
``repro engine-diff`` (tests below run its suite) enforces it over the
fuzz corpus, pinned sweeps, and chaos runs.  These tests also pin that
no engine selector remains: an ``engine=`` argument fails loudly.
Where the fixture's configurations cannot see a float fold's order,
the per-reference loop the batch fold replaced
(``tests/reference_engine.py``) is the reference instead.
"""

import inspect
import json
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cache
import repro.sim.system
from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.cache.hierarchy import LevelConfig
from repro.sim import SecureSystem, SystemConfig
from repro.sim import engine as sim_engine
from repro.sim.engine import run_batched
from repro.verify.engine_diff import (
    DEFAULT_FIXTURE,
    ENGINE_DIFF_SCHEMA,
    REPLAY_SCHEMA,
    load_fixture,
    run_engine_diff,
)
from repro.workloads import make_workload
from repro.workloads.base import Workload

from tests.reference_engine import ReferenceEngine

GCC = ("gcc", (), {"footprint_bytes": 1 << 20, "num_refs": 1500})
UBENCH = ("ubench", (128,), {"footprint_bytes": 1 << 20, "num_refs": 1500})
MCF = ("mcf", (), {"footprint_bytes": 1 << 20, "num_refs": 1500})


def _system(scheme="src", seed=7, memory_mb=16, **kwargs):
    return SecureSystem(
        scheme=scheme,
        config=SystemConfig.scaled(memory_mb=memory_mb),
        rng=np.random.default_rng(seed),
        **kwargs,
    )


def _observe(scheme, spec, seed=7, system_kwargs=None, **run_kwargs):
    """Run one cell; return everything observable."""
    system = _system(scheme=scheme, seed=seed, **(system_kwargs or {}))
    workload = make_workload(spec, seed=seed + 1)
    result = error = None
    try:
        result = asdict(system.run(workload, **run_kwargs))
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return {
        "result": result,
        "error": error,
        "registry": system.registry.snapshot(),
        "resident": [
            cache.resident_addresses() for cache in system.hierarchy.caches
        ],
    }


class TestEngineSelection:
    """The batched engine is the only loop: there is nothing to select."""

    def test_invalid_engine_argument_rejected(self):
        system = _system()
        with pytest.raises(TypeError, match="engine"):
            system.run(make_workload(GCC, seed=1), engine="vector")

    def test_scalar_loop_is_gone(self):
        assert not hasattr(SecureSystem, "_run_scalar")
        parameters = inspect.signature(SecureSystem.run).parameters
        assert "engine" not in parameters and "op_hook" not in parameters
        for name in ("resolve_engine", "default_engine", "ENGINE_ENV_VAR"):
            assert not hasattr(sim_engine, name)
        assert not hasattr(sim_engine.BatchEngine, "export_state")
        for name in ("reference_batches", "array_generator"):
            assert not hasattr(Workload, name)
        # The cache model that only the scalar loop drove.
        for name in ("CacheLine", "Eviction", "HierarchyResult"):
            assert not hasattr(repro.cache, name)
        for name in ("contains", "peek", "access", "update_payload",
                     "invalidate", "flush_all", "export_sets",
                     "import_sets", "set_index", "tag_of", "address_of"):
            assert not hasattr(SetAssociativeCache, name)
        for name in ("access", "flush_dirty"):
            assert not hasattr(CacheHierarchy, name)


class TestEngineInvariance:
    """Vector-engine invariants that once rode the scalar A/B leg."""

    def test_batch_size_invariance(self):
        """Totals and registry state cannot depend on where batch
        boundaries fall (including a batch size of 1)."""
        observations = []
        for batch_size in (1, 7, 256, 100_000):
            system = _system(scheme="src", seed=7)
            workload = make_workload(GCC, seed=8)
            totals = run_batched(
                system, workload, warmup_refs=100, batch_size=batch_size
            )
            observations.append({
                "totals": totals,
                "registry": system.registry.snapshot(),
                "resident": [
                    cache.resident_addresses()
                    for cache in system.hierarchy.caches
                ],
            })
        assert all(o == observations[0] for o in observations[1:])

    def test_hierarchy_state_reusable_after_run(self):
        """The engine runs on the caches' own sets: a second run
        layered on a warmed system is deterministic — warm-then-run
        twice from the same seeds produces identical observations."""
        finals = []
        for _ in range(2):
            system = _system(scheme="src", seed=7)
            system.run(make_workload(GCC, seed=8))
            result = system.run(make_workload(UBENCH, seed=9))
            finals.append(
                (asdict(result), system.registry.snapshot())
            )
        assert finals[0] == finals[1]

    @pytest.mark.parametrize("scheme", ["baseline", "src", "sac"])
    def test_run_is_deterministic_across_schemes(self, scheme):
        first = _observe(scheme, GCC)
        second = _observe(scheme, GCC)
        assert first == second
        assert first["error"] is None
        assert first["result"]["memory_requests"] == 1500


class TestAbortedRun:
    """A run that raises keeps the cache counters and latencies of the
    references it touched, so the registry agrees with the caches'
    residency and the controller's own counts."""

    def _run_until_raise(self, system):
        with pytest.raises(RuntimeError, match="injected"):
            system.run(make_workload(
                ("gcc", (), {"footprint_bytes": 2 << 20, "num_refs": 20_000})
            ))
        snapshot = system.registry.snapshot()
        return {key: snapshot[key] for key in snapshot
                if key.startswith("cache.L") or key.startswith("latency.")}

    def _assert_chain(self, snap):
        assert snap["cache.L2.hits"] + snap["cache.L2.misses"] \
            == snap["cache.L1.misses"]
        assert snap["cache.LLC.hits"] + snap["cache.LLC.misses"] \
            == snap["cache.L2.misses"]

    def test_controller_raise(self):
        system = _system(scheme="src", seed=0, memory_mb=32)
        controller = system.controller
        read = controller.read
        calls = []

        def failing_read(block):
            calls.append(block)
            if len(calls) == 501:
                raise RuntimeError("injected")
            return read(block)

        controller.read = failing_read
        snap = self._run_until_raise(system)
        self._assert_chain(snap)
        assert snap["cache.LLC.misses"] == controller.stats.data_reads + 1
        assert snap["cache.LLC.misses"] == len(
            system.hierarchy.caches[-1].resident_addresses())
        # Every touched reference but the failing one completed.
        assert (snap["latency.read"]["count"]
                + snap["latency.write"]["count"]
                == snap["cache.L1.hits"] + snap["cache.L1.misses"] - 1)

    def test_op_event_raise(self):
        """A reference whose op event raises was never probed."""
        system = _system(scheme="src", seed=0, memory_mb=32)

        def on_op(event):
            if event.index == 700:
                raise RuntimeError("injected")

        system.tracer.subscribe("op", on_op)
        snap = self._run_until_raise(system)
        self._assert_chain(snap)
        assert snap["cache.L1.hits"] + snap["cache.L1.misses"] == 700
        assert (snap["latency.read"]["count"]
                + snap["latency.write"]["count"]) == 700


class TestReplaySuite:
    def test_committed_fixture_replays_identical(self):
        """The committed fixture must replay clean — the same gate the
        engine-replay CI job enforces (quick subset)."""
        report = run_engine_diff(quick=True)
        assert report["schema"] == ENGINE_DIFF_SCHEMA
        failed = [row["name"] for row in report["cases"]
                  if not row["identical"]]
        assert failed == []
        assert report["identical"] is True
        kinds = {row["kind"] for row in report["cases"]}
        assert kinds == {"corpus", "sweep", "chaos"}

    def test_committed_fixture_schema(self):
        fixture = load_fixture(DEFAULT_FIXTURE, REPLAY_SCHEMA)
        assert fixture["schema"] == REPLAY_SCHEMA
        assert fixture["refs"] == 4000
        assert len(fixture["cases"]) >= 10
        for observation in fixture["cases"].values():
            assert set(observation) >= {
                "result", "error", "registry", "resident_sha256"
            }

    def test_record_then_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "replay.json")
        recorded = run_engine_diff(quick=True, refs=600, fixture=path,
                                   record=True)
        assert recorded["recorded"] is True
        replayed = run_engine_diff(quick=True, fixture=path)
        assert replayed["identical"] is True
        assert replayed["total"] == recorded["total"]

    def test_tampered_fixture_detected(self, tmp_path):
        """A drifted pinned observation must surface as a mismatch —
        the fixture is the contract, not a suggestion."""
        path = str(tmp_path / "replay.json")
        run_engine_diff(quick=True, refs=600, fixture=path, record=True)
        with open(path) as fh:
            fixture = json.load(fh)
        name = next(n for n in fixture["cases"] if n.startswith("sweep:"))
        fixture["cases"][name]["resident_sha256"] = "0" * 64
        fixture["cases"][name]["result"]["cpu_cycles"] += 1.0
        with open(path, "w") as fh:
            json.dump(fixture, fh)
        report = run_engine_diff(quick=True, fixture=path)
        assert report["identical"] is False
        row = next(r for r in report["cases"] if r["name"] == name)
        assert set(row["mismatched"]) == {"result", "resident_sha256"}

    def test_unrecorded_case_flagged(self, tmp_path):
        path = str(tmp_path / "replay.json")
        run_engine_diff(quick=True, refs=600, fixture=path, record=True)
        with open(path) as fh:
            fixture = json.load(fh)
        name, dropped = sorted(fixture["cases"].items())[0]
        del fixture["cases"][name]
        with open(path, "w") as fh:
            json.dump(fixture, fh)
        report = run_engine_diff(quick=True, fixture=path)
        row = next(r for r in report["cases"] if r["name"] == name)
        assert row["mismatched"] == ["missing-from-fixture"]

    def test_mismatching_refs_rejected(self, tmp_path):
        path = str(tmp_path / "replay.json")
        run_engine_diff(quick=True, refs=600, fixture=path, record=True)
        with pytest.raises(ValueError, match="pinned at refs=600"):
            run_engine_diff(quick=True, refs=900, fixture=path)


# The property-based sweep: randomized cells drawn across workloads
# (closed-form and stateful kernels), schemes, seeds, and warmup
# windows.
CELLS = st.tuples(
    st.sampled_from([
        ("gcc", (), {"footprint_bytes": 256 << 10}),
        ("ubench", (64,), {"footprint_bytes": 256 << 10}),
        ("milc", (), {"footprint_bytes": 256 << 10}),
        ("lbm", (), {"footprint_bytes": 256 << 10}),
        ("mcf", (), {"footprint_bytes": 256 << 10}),
        ("hashmap", (), {"footprint_bytes": 256 << 10}),
    ]),
    st.sampled_from(["baseline", "src", "sac"]),
    st.integers(min_value=0, max_value=2 ** 16),   # seed
    st.sampled_from([0, 1, 97, 400]),              # warmup_refs
)


class TestPropertyDeterminism:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cell=CELLS)
    def test_engine_is_a_pure_function_of_the_cell(self, cell):
        """Replay-ability rests on determinism: re-running any cell
        must reproduce every observable bit (the property the content-
        addressed result store and the replay fixture both lean on)."""
        (name, args, kwargs), scheme, seed, warmup = cell
        spec = (name, args, {**kwargs, "num_refs": 500})
        first = _observe(scheme, spec, seed=seed,
                         system_kwargs={"memory_mb": 4},
                         warmup_refs=warmup)
        second = _observe(scheme, spec, seed=seed,
                          system_kwargs={"memory_mb": 4},
                          warmup_refs=warmup)
        assert second == first


# -- the batch fold against the per-reference loop it replaced ----------

#: 1-, 2- and 3-level hierarchies small enough that a few hundred
#: references hit, miss and evict at every level.
HIERARCHIES = (
    (LevelConfig("L1", 256, 2, 2),),
    (LevelConfig("L1", 128, 1, 2), LevelConfig("L2", 512, 2, 20)),
    (LevelConfig("L1", 128, 2, 2), LevelConfig("L2", 512, 2, 20),
     LevelConfig("LLC", 2048, 4, 32)),
)


def _fold_config(levels) -> SystemConfig:
    """A read latency of 151 ns at 3.1 GHz is 468.1 cycles, a float with
    a full mantissa: partial sums of ``cpu_cycles`` and the latency
    totals round at every step, so a reordered fold changes them.  (The
    pinned configurations' 400.5 cycles keep every partial sum a
    multiple of 0.5, exact in any order.)"""
    return SystemConfig(name="fold", cpu_ghz=3.1, pcm_read_ns=151,
                        cache_levels=levels, memory_bytes=1 << 20,
                        metadata_cache_bytes=2048, metadata_ways=2)


class _Arrays:
    def __init__(self, arrays):
        self.name = "fold"
        self.arrays = arrays

    def reference_arrays(self):
        return self.arrays


def _fold_observation(engine_class, case) -> dict:
    """Run one case on a fresh system whose engine is ``engine_class``;
    return every observable, floats by repr."""
    system = SecureSystem(scheme=case["scheme"],
                          config=_fold_config(case["levels"]),
                          rng=np.random.default_rng(5))
    ops = []
    if case["subscribe"]:
        system.tracer.subscribe("op", lambda event: ops.append(event.index))
    if case["fail_at"]:
        read = system.controller.read
        calls = []

        def failing_read(block):
            calls.append(block)
            if len(calls) == case["fail_at"]:
                raise RuntimeError("injected")
            return read(block)

        system.controller.read = failing_read
    result = error = None
    with mock.patch.object(sim_engine, "BatchEngine", engine_class), \
            mock.patch.object(repro.sim.system, "REFERENCE_BATCH",
                              case["batch"]):
        try:
            result = {key: repr(value) for key, value in
                      asdict(system.run(_Arrays(case["arrays"]),
                                        warmup_refs=case["warmup"])).items()}
        except RuntimeError as exc:
            error = str(exc)
    return {
        "result": result,
        "error": error,
        "registry": json.dumps(system.registry.snapshot(), sort_keys=True),
        "totals": [repr(system.registry.get(name).total)
                   for name in ("latency.read", "latency.write")],
        # Every set's {tag: dirty} items in LRU order.
        "sets": [[list(lines.items()) for lines in cache.sets]
                 for cache in system.hierarchy.caches],
        "ops": ops,
    }


@st.composite
def fold_cases(draw):
    refs = draw(st.integers(min_value=1, max_value=400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lines = draw(st.sampled_from([4, 24, 96]))
    arrays = (
        rng.integers(0, lines, refs) * 64 + rng.integers(0, 64, refs),
        rng.random(refs) < draw(st.sampled_from([0.0, 0.3, 0.8])),
        rng.integers(0, draw(st.sampled_from([1, 9, 300])), refs),
    )
    return {
        "levels": draw(st.sampled_from(HIERARCHIES)),
        "scheme": draw(st.sampled_from(["baseline", "src"])),
        "arrays": arrays,
        "warmup": draw(st.sampled_from([0, 1, refs // 3, refs + 2])),
        "batch": draw(st.sampled_from([1, 3, 64, 8192])),
        "subscribe": draw(st.booleans()),
        "fail_at": draw(st.sampled_from([0, 0, 1, 5, 17])),
    }


class TestFoldMatchesReference:
    """The engine that folds counts, cycles and latencies per batch in
    numpy against the per-reference loop it replaced
    (``tests/reference_engine.py``), on random traces and on a
    configuration whose float sums depend on their order."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=fold_cases())
    def test_engine_matches_reference_loop(self, case):
        expected = _fold_observation(ReferenceEngine, case)
        observed = _fold_observation(sim_engine.BatchEngine, case)
        assert observed == expected

    def test_fold_config_sums_depend_on_order(self):
        """The property's configuration can see a reordered fold: the
        same addends summed in another order round differently."""
        cycles = _fold_config(HIERARCHIES[2]).ns_to_cycles(151)
        addends = [cycles, 7, 54, cycles * 3, 22, 5] * 50
        in_order = 0.0
        for addend in addends:
            in_order += addend
        assert in_order != float(np.sum(addends))
