"""Adversarial scenario engine: catalog hygiene, oracle-clean
execution, determinism (serial == parallel == resumed), and phase
semantics (power cuts, shrink/regrow, quarantine pressure)."""

import pytest

from repro.faults import (
    CATALOG,
    SCENARIO_SCHEMA,
    Phase,
    Scenario,
    ScenarioConfig,
    SilentCorruptionError,
    get_scenario,
    list_scenarios,
    run_scenario,
    run_scenario_campaign,
)
from repro.faults.scenarios import report_to_json
from repro.runtime import SimulatedCrashError, set_failpoint

KB = 1024

#: Small device so the whole catalog stays test-speed.
QUICK = dict(data_bytes=32 * KB)


def _crash_after_writes(writes):
    """Arm the atomic writer to die like a power cut once ``writes``
    writes have landed (the checkpoint manifest is the first)."""
    landed = []

    def failpoint(site):
        if site == "before_rename":
            if len(landed) == writes:
                set_failpoint(None)
                raise SimulatedCrashError(
                    f"injected crash in atomic write #{writes + 1}")
            landed.append(site)

    set_failpoint(failpoint)


class TestCatalog:
    def test_catalog_size_and_lookup(self):
        assert 6 <= len(CATALOG) <= 8
        assert list_scenarios() == CATALOG
        for scenario in CATALOG:
            assert get_scenario(scenario.name) is scenario
            assert scenario.description and scenario.models
            assert scenario.expected and scenario.phases

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("meteor-strike")
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioConfig(scenarios=("meteor-strike",))

    def test_phase_validation(self):
        with pytest.raises(ValueError, match="phase kind"):
            Phase(kind="comet")
        with pytest.raises(ValueError, match="arrival"):
            Phase(arrival="tsunami")
        with pytest.raises(ValueError, match="unknown targets"):
            Phase(targets=("bogus",))
        with pytest.raises(ValueError, match="offline_fraction"):
            Phase(kind="offline", offline_fraction=1.5)

    def test_scenario_total_ops_counts_cut_gaps(self):
        scenario = Scenario(
            name="x", description="d", models="m", expected="e",
            phases=(Phase(kind="ops", ops=100),
                    Phase(kind="power_cut", cuts=3, ops=50)),
        )
        assert scenario.total_ops == 250


class TestCatalogOracleClean:
    """ISSUE acceptance: every cataloged scenario runs under the
    Oracle + InvariantChecker with zero silent corruptions."""

    @pytest.mark.parametrize(
        "name", [scenario.name for scenario in CATALOG]
    )
    def test_scenario_is_oracle_clean(self, name):
        config = ScenarioConfig(**QUICK)
        for scheme in ("src", "sac"):
            result = run_scenario(config, name, scheme)
            assert result["violations"] == [], (name, scheme)
            assert result["verify"]["ok"], (name, scheme)
            assert result["invariant_ok"]
            # The trichotomy covers the whole mirror.
            audit = result["audit"]
            assert sum(audit.values()) == config.data_bytes // 64


class TestPhaseSemantics:
    def test_powercut_storm_loses_nothing_on_clean_cuts(self):
        result = run_scenario(
            ScenarioConfig(**QUICK), "powercut-storm", "src"
        )
        assert result["recovery"] == ["ok", "ok", "ok"]
        assert result["audit"]["intact"] == 32 * KB // 64
        assert result["run_errors"] == {
            "data_due": 0, "quarantined": 0, "integrity": 0
        }

    def test_dimm_offline_blocks_fault_typed_until_rewritten(self):
        result = run_scenario(
            ScenarioConfig(**QUICK), "dimm-offline", "src"
        )
        audit = result["audit"]
        # The offline slice surfaces as typed DUEs (mid-run and at
        # audit) unless the post-regrow phase rewrote a block.
        assert audit["data_due"] > 0
        assert result["violations"] == []
        offline = [p for p in result["phases"] if p["kind"] == "offline"]
        assert offline and offline[0]["offline_blocks"] > 0

    def test_quarantine_pressure_degrades_gracefully(self):
        # Clone-less scheme + cold metadata cache: scrub repairs fail,
        # quarantine grows, and the run still ends violation-free.
        config = ScenarioConfig(
            data_bytes=256 * KB, metadata_cache_bytes=512,
            schemes=("baseline",),
        )
        result = run_scenario(config, "quarantine-pressure", "baseline")
        assert result["violations"] == []
        assert result["stats"]["quarantined_nodes"] > 0
        assert result["audit"]["quarantined"] > 0

    def test_trace_driven_scenario(self):
        config = ScenarioConfig(
            **QUICK, trace="tests/fixtures/interleaved.trace"
        )
        result = run_scenario(config, "scrub-race", "src")
        assert result["violations"] == []
        assert result["ops"] == get_scenario("scrub-race").total_ops


class TestDeterminism:
    """ISSUE acceptance: jobs=1 == jobs=N, and an interrupted-then-
    resumed campaign merges bit-identically to an uninterrupted one."""

    CONFIG = dict(
        data_bytes=32 * KB, schemes=("src",),
        scenarios=("ramp-siege", "crash-during-recovery"),
    )

    def test_single_run_is_bit_reproducible(self):
        config = ScenarioConfig(**QUICK)
        a = run_scenario(config, "bank-storm", "src")
        b = run_scenario(config, "bank-storm", "src")
        assert a == b

    def test_seed_changes_the_run(self):
        a = run_scenario(ScenarioConfig(**QUICK), "bank-storm", "src")
        b = run_scenario(ScenarioConfig(seed=77, **QUICK),
                         "bank-storm", "src")
        assert a["phases"] != b["phases"]

    def test_jobs_parallel_bit_identical_to_serial(self):
        config = ScenarioConfig(**self.CONFIG)
        serial = run_scenario_campaign(config, jobs=1)
        parallel = run_scenario_campaign(config, jobs=2)
        assert report_to_json(serial) == report_to_json(parallel)

    def test_interrupted_resume_bit_identical(self, tmp_path):
        config = ScenarioConfig(**self.CONFIG)
        clean = run_scenario_campaign(config, jobs=1)

        ckpt = str(tmp_path / "ckpt")
        # Crash after the manifest + 1 published cell.
        _crash_after_writes(2)
        try:
            with pytest.raises(SimulatedCrashError):
                run_scenario_campaign(config, jobs=1, checkpoint=ckpt)
        finally:
            set_failpoint(None)
        resumed = run_scenario_campaign(
            config, jobs=1, checkpoint=ckpt, resume=True
        )
        assert resumed["salvage"]["resumed"] == 1
        # Identical modulo the runtime's resumed-cell telemetry.
        assert resumed["runs"] == clean["runs"]
        assert resumed["scenarios"] == clean["scenarios"]
        assert resumed["invariant_ok"] == clean["invariant_ok"]


class TestReportSchema:
    def test_scenario_report_shape(self):
        config = ScenarioConfig(
            data_bytes=32 * KB, schemes=("src",),
            scenarios=("scrub-race",),
        )
        report = run_scenario_campaign(config, jobs=1)
        assert report["schema"] == SCENARIO_SCHEMA == "scenario/v1"
        assert report["invariant_ok"] is True
        assert report["config"]["scenarios"] == ["scrub-race"]
        (run,) = report["runs"]
        for key in ("scenario", "scheme", "seed", "phases", "audit",
                    "violations", "verify", "stats", "empirical_udr",
                    "run_errors", "recovery", "quarantine"):
            assert key in run, key
        # JSON-stable end to end.
        import json

        assert json.loads(report_to_json(report)) == report

    def test_enforce_invariant_raises_on_violation(self, monkeypatch):
        import repro.faults.scenarios as scenarios_module

        def corrupt_cell(cell):
            result = scenarios_module.run_scenario(*cell)
            result["violations"] = [{"phase": "test", "op": 0}]
            return result

        monkeypatch.setattr(
            scenarios_module, "_scenario_cell", corrupt_cell
        )
        config = ScenarioConfig(
            data_bytes=32 * KB, schemes=("src",),
            scenarios=("scrub-race",),
        )
        with pytest.raises(SilentCorruptionError):
            run_scenario_campaign(config, jobs=1)
        report = run_scenario_campaign(
            ScenarioConfig(
                data_bytes=32 * KB, schemes=("src",),
                scenarios=("scrub-race",), enforce_invariant=False,
            ),
            jobs=1,
        )
        assert report["invariant_ok"] is False
