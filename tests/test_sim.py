"""Tests for the trace-driven timing simulator."""

from dataclasses import asdict

import pytest

from repro.sim import SecureSystem, SimResult, SystemConfig, run_schemes
from repro.workloads import gcc, ubench


class TestSystemConfig:
    def test_table3_values(self):
        config = SystemConfig.table3()
        assert config.cpu_ghz == 2.67
        assert config.memory_bytes == 16 << 30
        assert config.metadata_cache_bytes == 512 * 1024
        names = [lvl.name for lvl in config.cache_levels]
        assert names == ["L1", "L2", "LLC"]
        l1, l2, llc = config.cache_levels
        assert (l1.latency_cycles, l2.latency_cycles, llc.latency_cycles) == (2, 20, 32)

    def test_scaled_preserves_structure(self):
        config = SystemConfig.scaled(32)
        assert config.memory_bytes == 32 << 20
        assert len(config.cache_levels) == 3
        assert config.metadata_cache_bytes < 512 * 1024

    def test_cycle_conversion(self):
        config = SystemConfig.table3()
        assert config.ns_to_cycles(150) == pytest.approx(150 * 2.67)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(memory_bytes=100)
        with pytest.raises(ValueError):
            SystemConfig(cpu_ghz=0)
        with pytest.raises(ValueError):
            SystemConfig.scaled(0)


class TestSecureSystem:
    @pytest.fixture
    def config(self):
        return SystemConfig.scaled(16)

    def test_run_produces_result(self, config):
        system = SecureSystem("baseline", config=config)
        result = system.run(ubench(64, footprint_bytes=1 << 20, num_refs=2000))
        assert isinstance(result, SimResult)
        assert result.memory_requests == 2000
        assert result.instructions >= 2000
        assert result.exec_time_ns > 0
        assert result.nvm_reads > 0

    def test_cache_filtering_reduces_traffic(self, config):
        """A tiny working set mostly hits the caches: far fewer NVM
        reads than requests."""
        system = SecureSystem("baseline", config=config)
        result = system.run(gcc(footprint_bytes=1 << 20, num_refs=4000))
        assert result.nvm_reads < result.memory_requests

    def test_exec_time_is_max_of_paths(self, config):
        system = SecureSystem("baseline", config=config)
        result = system.run(ubench(128, footprint_bytes=2 << 20, num_refs=2000))
        cpu_ns = result.cpu_cycles * config.cycle_ns
        assert result.exec_time_ns == pytest.approx(
            max(cpu_ns, result.channel_busy_ns)
        )

    def test_soteria_overhead_small_but_present(self, config):
        out = run_schemes(
            lambda: ubench(128, footprint_bytes=4 << 20, num_refs=6000),
            config=config,
        )
        base = out["baseline"]
        for scheme in ("src", "sac"):
            slowdown = out[scheme].slowdown_vs(base)
            assert 0 <= slowdown < 0.25
            assert out[scheme].nvm_writes >= base.nvm_writes

    def test_sac_writes_at_least_src(self, config):
        out = run_schemes(
            lambda: ubench(128, footprint_bytes=4 << 20, num_refs=6000),
            config=config,
        )
        assert out["sac"].nvm_writes >= out["src"].nvm_writes

    def test_identical_trace_identical_baseline_behavior(self, config):
        a = SecureSystem("baseline", config=config).run(
            gcc(footprint_bytes=1 << 20, num_refs=2000)
        )
        b = SecureSystem("baseline", config=config).run(
            gcc(footprint_bytes=1 << 20, num_refs=2000)
        )
        assert a.nvm_reads == b.nvm_reads
        assert a.exec_time_ns == b.exec_time_ns

    def test_result_metrics(self, config):
        result = SecureSystem("baseline", config=config).run(
            ubench(64, footprint_bytes=1 << 20, num_refs=1000)
        )
        assert 0 < result.ipc
        assert result.slowdown_vs(result) == 0.0
        assert result.write_overhead_vs(result) == 0.0
        assert 0 <= result.evictions_per_request

    def test_warmup_excluded_from_measurement(self, config):
        """With warmup, cold-start compulsory misses don't pollute the
        measured window: fewer memory requests, warmer caches."""
        cold = SecureSystem("baseline", config=config).run(
            gcc(footprint_bytes=1 << 20, num_refs=4000)
        )
        warmed = SecureSystem("baseline", config=config).run(
            gcc(footprint_bytes=1 << 20, num_refs=4000), warmup_refs=2000
        )
        assert warmed.memory_requests == 2000
        # Same stream, warmed caches: measured NVM reads per request drop.
        assert (
            warmed.nvm_reads / warmed.memory_requests
            < cold.nvm_reads / cold.memory_requests
        )

    def test_warmup_longer_than_trace(self, config):
        result = SecureSystem("baseline", config=config).run(
            gcc(footprint_bytes=1 << 20, num_refs=100), warmup_refs=1000
        )
        assert result.memory_requests == 0
        assert result.exec_time_ns == 0.0

    def test_negative_warmup_rejected(self, config):
        """A negative warm-up would slice the stream from its end and
        measure only its last references; it fails before any
        reference runs."""
        system = SecureSystem("src", config=config)
        with pytest.raises(ValueError, match="warmup_refs"):
            system.run(gcc(footprint_bytes=1 << 20, num_refs=1000),
                       warmup_refs=-5)
        assert all(not lines for cache in system.hierarchy.caches
                   for lines in cache.sets)
        assert system.controller.stats.total_nvm_reads == 0
        assert system.registry.snapshot()["latency.read"]["count"] == 0

    def test_negative_warmup_rejected_through_sim_cell(self, config):
        from repro.sim.sweep import SimCell, SweepEngine, run_sim_cell

        spec = ("gcc", (), {"footprint_bytes": 1 << 20, "num_refs": 1000})
        cell = SimCell(workload=spec, scheme="src", config=config,
                       warmup_refs=-5)
        with pytest.raises(ValueError, match="warmup_refs"):
            run_sim_cell(cell)
        [outcome] = SweepEngine([cell], retries=0).run()
        assert not outcome.ok
        assert "warmup_refs" in outcome.error

    def test_warmup_resets_every_stat_domain(self, config):
        """Regression: the warmup checkpoint used to reset only the
        controller stats and NVM counters, so warmup accesses leaked
        into ``metadata_miss_rate`` and the CPU cache hit rates."""
        system = SecureSystem("baseline", config=config)
        system.run(
            gcc(footprint_bytes=1 << 20, num_refs=200), warmup_refs=200
        )
        # The whole trace was warmup: every measured stat domain is zero.
        assert system.controller.metadata_cache.stats.accesses == 0
        assert system.controller.stats.total_nvm_reads == 0
        assert system.controller.nvm.read_count == 0
        for cache in system.hierarchy.caches:
            assert cache.stats.accesses == 0

    def test_warmup_miss_rate_excludes_cold_start(self, config):
        """The measured metadata miss rate must come from the warmed
        window only — it cannot equal the cold full-trace rate, and the
        measured access count must cover just the measured window."""
        cold_system = SecureSystem("baseline", config=config)
        cold_system.run(gcc(footprint_bytes=1 << 20, num_refs=4000))
        cold_accesses = cold_system.controller.metadata_cache.stats.accesses

        warm_system = SecureSystem("baseline", config=config)
        warmed = warm_system.run(
            gcc(footprint_bytes=1 << 20, num_refs=4000), warmup_refs=2000
        )
        warm_stats = warm_system.controller.metadata_cache.stats
        assert 0 < warm_stats.accesses < cold_accesses
        assert warmed.metadata_miss_rate == warm_stats.miss_rate

    def test_run_schemes_seed_is_reproducible(self, config):
        """Regression: ``run_schemes`` used to accept ``seed`` and
        silently ignore it.  Same seed -> bit-equal results; different
        seeds -> different traces (gcc draws addresses from the rng)."""
        factory = lambda: gcc(footprint_bytes=1 << 20, num_refs=1500)  # noqa: E731
        a = run_schemes(factory, config=config, seed=42)
        b = run_schemes(factory, config=config, seed=42)
        c = run_schemes(factory, config=config, seed=43)
        assert {k: asdict(v) for k, v in a.items()} == {
            k: asdict(v) for k, v in b.items()
        }
        assert asdict(a["baseline"]) != asdict(c["baseline"])

    def test_run_schemes_default_seed_preserves_pinned_streams(self, config):
        """seed=0 (the default) must reproduce the historical default
        workload stream (Workload.seed == 1) the figures are pinned to."""
        direct = SecureSystem("baseline", config=config).run(
            gcc(footprint_bytes=1 << 20, num_refs=1500)
        )
        threaded = run_schemes(
            lambda: gcc(footprint_bytes=1 << 20, num_refs=1500),
            schemes=("baseline",), config=config,
        )
        assert asdict(direct) == asdict(threaded["baseline"])

    def test_functional_crypto_mode_matches_fast_mode_traffic(self, config):
        fast = SecureSystem("src", config=config, functional_crypto=False).run(
            ubench(128, footprint_bytes=2 << 20, num_refs=1500)
        )
        slow = SecureSystem("src", config=config, functional_crypto=True).run(
            ubench(128, footprint_bytes=2 << 20, num_refs=1500)
        )
        assert fast.nvm_reads == slow.nvm_reads
        assert fast.nvm_writes == slow.nvm_writes
