"""Tests for trace capture, persistence, statistics, and mixing."""

import pytest

from repro.sim import SecureSystem, SystemConfig
from repro.workloads import Trace, interleave, libquantum, ubench, ycsb_a


@pytest.fixture
def small_trace():
    return Trace.from_workload(ubench(64, footprint_bytes=1 << 16, num_refs=200))


class TestTrace:
    def test_from_workload_materializes(self, small_trace):
        assert len(small_trace) == 200
        assert small_trace.name == "ubench64"

    def test_iteration_yields_triples(self, small_trace):
        address, is_write, gap = next(iter(small_trace))
        assert isinstance(address, int)
        assert isinstance(is_write, bool)
        assert isinstance(gap, int)

    def test_as_workload_replays_identically(self, small_trace):
        replay = small_trace.as_workload()
        assert list(replay.references()) == small_trace.references

    def test_as_workload_runs_in_simulator(self, small_trace):
        system = SecureSystem("baseline", config=SystemConfig.scaled(16))
        result = system.run(small_trace.as_workload())
        assert result.memory_requests == 200

    def test_save_load_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.txt"
        small_trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == small_trace.name
        assert loaded.references == small_trace.references

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("64 X 1\n")
        with pytest.raises(ValueError):
            Trace.load(path)

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# trace: custom\n\n128 W 3\n64 R 0\n")
        trace = Trace.load(path)
        assert trace.name == "custom"
        assert trace.references == [(128, True, 3), (64, False, 0)]


class TestTraceStats:
    def test_empty_trace(self):
        stats = Trace("empty", []).stats()
        assert stats.references == 0
        assert stats.write_fraction == 0.0

    def test_ubench_characteristics(self):
        trace = Trace.from_workload(
            ubench(64, footprint_bytes=1 << 20, num_refs=1000)
        )
        stats = trace.stats()
        assert stats.write_fraction == pytest.approx(0.5)
        assert stats.sequential_fraction > 0.9  # pure sweep
        assert stats.unique_blocks == 1000

    def test_libquantum_is_streaming(self):
        stats = Trace.from_workload(libquantum(num_refs=1000)).stats()
        assert stats.sequential_fraction > 0.95
        assert stats.write_fraction < 0.1

    def test_ycsb_is_skewed(self):
        stats = Trace.from_workload(ycsb_a(num_refs=3000)).stats()
        assert stats.top_block_share > 0.05  # Zipf head
        assert stats.sequential_fraction < 0.5

    def test_footprint_matches_unique_blocks(self, small_trace):
        stats = small_trace.stats()
        assert stats.footprint_bytes == stats.unique_blocks * 64


class TestInterleave:
    def test_round_robin_order(self):
        a = Trace("a", [(0, False, 0), (64, False, 0)])
        b = Trace("b", [(128, True, 0), (192, True, 0)])
        mix = interleave([a, b])
        assert mix.references == [
            (0, False, 0), (128, True, 0), (64, False, 0), (192, True, 0)
        ]

    def test_chunked_interleave(self):
        a = Trace("a", [(0, False, 0)] * 4)
        b = Trace("b", [(64, True, 0)] * 2)
        mix = interleave([a, b], chunk=2)
        kinds = [w for _, w, _ in mix.references]
        assert kinds == [False, False, True, True, False, False]

    def test_uneven_lengths_all_consumed(self):
        a = Trace("a", [(0, False, 0)] * 5)
        b = Trace("b", [(64, True, 0)] * 2)
        mix = interleave([a, b])
        assert len(mix) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            interleave([])
        with pytest.raises(ValueError):
            interleave([Trace("a", [])], chunk=0)

    def test_mix_runs_in_simulator(self):
        a = Trace.from_workload(ubench(64, footprint_bytes=1 << 18, num_refs=300))
        b = Trace.from_workload(ycsb_a(footprint_bytes=1 << 18, num_refs=300))
        mix = interleave([a, b], name="ubench+ycsb")
        system = SecureSystem("src", config=SystemConfig.scaled(16))
        result = system.run(mix.as_workload(footprint_bytes=1 << 18))
        assert result.memory_requests == 600
        assert result.workload == "ubench+ycsb"


class TestLoadExternal:
    """External/recorded trace ingestion: native, generic, and
    multi-core interleaved captures through one frontend."""

    FIXTURE = "tests/fixtures/interleaved.trace"

    def test_native_format_roundtrips(self, small_trace, tmp_path):
        from repro.workloads import load_external

        path = tmp_path / "native.trace"
        small_trace.save(path)
        loaded = load_external(path)
        assert loaded.references == small_trace.references

    def test_generic_two_field_lines(self, tmp_path):
        from repro.workloads import load_external

        path = tmp_path / "generic.trace"
        path.write_text(
            "// recorded capture\n"
            "R 0x1000\n"
            "W 0x1040\n"
            "0x1080 W\n"
            "write 4096\n"
            "read, 0x1000\n"
        )
        trace = load_external(path)
        assert trace.references == [
            (0x1000, False, 0), (0x1040, True, 0), (0x1080, True, 0),
            (4096, True, 0), (0x1000, False, 0),
        ]

    def test_multicore_fixture_demuxes_round_robin(self):
        from repro.workloads import load_external

        trace = load_external(self.FIXTURE)
        assert trace.name == "interleaved-sample"
        assert len(trace) == 20
        # Round-robin: core 0 and core 1 references alternate.
        cores = [0 if a < 0x4000 else 1 for a, _, _ in trace.references]
        assert cores == [0, 1] * 10

    def test_multicore_chunked(self):
        from repro.workloads import load_external

        trace = load_external(self.FIXTURE, chunk=2)
        cores = [0 if a < 0x4000 else 1 for a, _, _ in trace.references]
        assert cores[:8] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_explicit_multicore_decimal_addresses(self, tmp_path):
        from repro.workloads import load_external

        path = tmp_path / "decimal.trace"
        path.write_text("0 R 64\n1 W 128\n0 W 192\n1 R 256\n")
        trace = load_external(path, fmt="multicore")
        assert trace.references == [
            (64, False, 0), (128, True, 0), (192, True, 0), (256, False, 0),
        ]
        # The same lines parse as native (addr R/W gap) by default.
        native = load_external(path)
        assert native.references[0] == (0, False, 64)

    def test_malformed_lines_rejected(self, tmp_path):
        from repro.workloads import load_external

        for bad in ("X 0x1000\n", "R W 0x10\n", "0x10 R extra 0x20 4\n",
                    "R nonsense\n"):
            path = tmp_path / "bad.trace"
            path.write_text(bad)
            with pytest.raises(ValueError):
                load_external(path)
        path.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no references"):
            load_external(path)
        with pytest.raises(ValueError, match="unknown trace format"):
            load_external(path, fmt="exotic")

    @pytest.mark.parametrize("line, field", [
        ("4096 R -300", "gap"),
        ("-64 R 2", "address"),
        ("W -0x40", "address"),
    ])
    def test_negative_address_or_gap_rejected(self, tmp_path, line, field):
        """A negative gap would subtract instructions and a negative
        address would wrap to the top of the data region: both are
        parse errors naming their line."""
        from repro.workloads import load_external

        path = tmp_path / "negative.trace"
        path.write_text(f"64 R 1\n128 W 2\n{line}\n")
        with pytest.raises(ValueError, match=f"line 3: negative {field}"):
            load_external(path)

    def test_zero_address_and_gap_accepted(self, tmp_path):
        from repro.workloads import load_external

        path = tmp_path / "zero.trace"
        path.write_text("0 R 0\n0 W 0\n")
        assert load_external(path).references == [(0, False, 0),
                                                  (0, True, 0)]

    def test_trace_workload_runs_in_simulator(self):
        from repro.workloads import trace_workload

        workload = trace_workload(self.FIXTURE)
        system = SecureSystem("src", config=SystemConfig.scaled(16))
        result = system.run(workload)
        assert result.memory_requests == 20
        assert result.workload == "interleaved-sample"

    def test_trace_workload_spec_is_picklable(self):
        import pickle

        from repro.workloads import make_workload

        spec = ("trace_workload", (self.FIXTURE,), {"chunk": 2})
        workload = make_workload(pickle.loads(pickle.dumps(spec)))
        assert workload.num_refs == 20
