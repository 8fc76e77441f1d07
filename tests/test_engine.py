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
"""

import inspect
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        assert "engine" not in inspect.signature(SecureSystem.run).parameters
        for name in ("resolve_engine", "default_engine", "ENGINE_ENV_VAR"):
            assert not hasattr(sim_engine, name)


class TestEngineInvariance:
    """Vector-engine invariants that once rode the scalar A/B leg."""

    def test_array_source_matches_generator_source(self):
        """The vector engine consumes pre-generated arrays when the
        workload has a vectorized twin and the raw generator when not;
        both sources must produce the same run."""
        results = []
        for strip_arrays in (False, True):
            system = _system(scheme="src", seed=7)
            workload = make_workload(GCC, seed=8)
            if strip_arrays:
                workload.array_generator = None
                assert workload.reference_arrays() is None
            else:
                assert workload.reference_arrays() is not None
            results.append({
                "result": asdict(system.run(workload, warmup_refs=200)),
                "registry": system.registry.snapshot(),
            })
        assert results[0] == results[1]

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
        """export_state leaves the caches authoritative: a second run
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
# (vectorized and generator-only), schemes, seeds, and warmup windows.
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
