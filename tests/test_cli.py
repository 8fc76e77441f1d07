"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_size, build_parser, main


class TestParseSize:
    def test_units(self):
        assert _parse_size("1tb") == 1 << 40
        assert _parse_size("16GB") == 16 << 30
        assert _parse_size("512mb") == 512 << 20
        assert _parse_size("64kb") == 64 << 10
        assert _parse_size("4096") == 4096
        assert _parse_size("1.5gb") == int(1.5 * (1 << 30))

    def test_invalid(self):
        with pytest.raises(ValueError):
            _parse_size("lots")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("info", "perf", "reliability", "crash-test", "figures",
                    "chaos"):
            args = parser.parse_args([cmd])
            assert callable(args.func)

    def test_runtime_flags_parse(self):
        parser = build_parser()
        for cmd in ("perf", "reliability", "chaos"):
            args = parser.parse_args([
                cmd, "--checkpoint", "ckpt", "--cell-timeout", "30",
                "--max-failures", "5",
            ])
            assert args.checkpoint == "ckpt"
            assert args.cell_timeout == 30.0
            assert args.max_failures == 5
            args = parser.parse_args([cmd, "--resume", "ckpt"])
            assert args.resume == "ckpt"

    def test_conflicting_checkpoint_dirs_rejected(self):
        with pytest.raises(SystemExit):
            main(["perf", "--checkpoint", "a", "--resume", "b",
                  "--workloads", "gcc"])

    def test_figures_command_wiring(self, tmp_path, monkeypatch, capsys):
        """The figures command delegates to repro.figures.run_all with
        the chosen directory and quick/full mode."""
        import repro.figures as figures

        calls = {}

        def fake_run_all(outdir, quick):
            calls["outdir"] = str(outdir)
            calls["quick"] = quick
            return {}

        monkeypatch.setattr(figures, "run_all", fake_run_all)
        assert main(["figures", "--out", str(tmp_path)]) == 0
        assert calls == {"outdir": str(tmp_path), "quick": True}
        assert main(["figures", "--out", str(tmp_path), "--full"]) == 0
        assert calls["quick"] is False


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--size", "1gb"]) == 0
        out = capsys.readouterr().out
        assert "tree levels" in out
        assert "metadata storage overhead" in out

    def test_perf_subset(self, capsys):
        code = main([
            "perf", "--memory-mb", "16", "--footprint-mb", "2",
            "--refs", "1500", "--workloads", "gcc",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gcc" in out

    def test_perf_unknown_workload(self, capsys):
        assert main(["perf", "--workloads", "doom"]) == 1

    def test_perf_checkpoint_resume_roundtrip(self, capsys, tmp_path):
        """A checkpointed perf sweep resumed from its journal emits a
        sweep/v1 report whose results are bit-identical to a clean run."""
        import json

        base = ["perf", "--memory-mb", "16", "--footprint-mb", "1",
                "--refs", "800", "--workloads", "gcc"]
        ckpt = tmp_path / "ckpt"
        clean_out = tmp_path / "clean.json"
        resumed_out = tmp_path / "resumed.json"

        assert main(base + ["--out", str(clean_out)]) == 0
        assert main(base + ["--checkpoint", str(ckpt)]) == 0
        assert (ckpt / "journal.jsonl").exists()
        assert main(base + ["--resume", str(ckpt),
                            "--out", str(resumed_out)]) == 0
        capsys.readouterr()

        clean = json.loads(clean_out.read_text())
        resumed = json.loads(resumed_out.read_text())
        assert clean["schema"] == resumed["schema"] == "sweep/v1"
        assert clean["kind"] == "perf"
        assert resumed["results"] == clean["results"]
        assert resumed["interrupted"] is False
        assert resumed["salvage"]["resumed"] == 3    # one per scheme
        assert resumed["runtime"]["runtime.cells_resumed"] == 3

    def test_reliability_out_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "rel.json"
        code = main(["reliability", "--size", "1tb", "--fits", "40",
                     "--trials", "2000", "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "sweep/v1"
        assert report["kind"] == "reliability"
        assert report["salvage"]["completed"] == 1

    def test_reliability(self, capsys):
        code = main([
            "reliability", "--size", "1tb", "--fits", "40",
            "--trials", "4000", "--decompose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "loss decomposition" in out

    def test_reliability_seed_is_deterministic(self, capsys):
        argv = ["reliability", "--size", "1tb", "--fits", "40",
                "--trials", "2000", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert main(argv[:-1] + ["10"]) == 0
        assert capsys.readouterr().out != first

    def test_chaos(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "report.json"
        # Enough faults that some land on settled, non-resident counters
        # (the injector now skips WPQ-pending cells, and cache-resident
        # damage is healed by the next dirty writeback).
        code = main([
            "chaos", "--ops", "800", "--faults", "10",
            "--schemes", "baseline", "src",
            "--targets", "counter",
            "--scrub-intervals", "0",
            "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "no-silent-corruption invariant: HELD" in out
        report = json.loads(out_path.read_text())
        assert report["invariant_ok"] is True
        assert report["resilience"]["src"]["ge_10x"]

    def test_chaos_checkpoint_resume(self, capsys, tmp_path):
        import json

        base = ["chaos", "--ops", "150", "--faults", "2",
                "--schemes", "baseline", "src", "--targets", "counter",
                "--scrub-intervals", "0"]
        ckpt = tmp_path / "ckpt"
        first_out = tmp_path / "first.json"
        resumed_out = tmp_path / "resumed.json"
        assert main(base + ["--checkpoint", str(ckpt),
                            "--out", str(first_out)]) == 0
        assert main(base + ["--resume", str(ckpt),
                            "--out", str(resumed_out)]) == 0
        capsys.readouterr()
        first = json.loads(first_out.read_text())
        resumed = json.loads(resumed_out.read_text())
        assert resumed["runs"] == first["runs"]
        assert resumed["schemes"] == first["schemes"]
        assert resumed["salvage"]["resumed"] == 2
        assert resumed["interrupted"] is False

    def test_crash_test_toc(self, capsys):
        code = main([
            "crash-test", "--scheme", "src", "--ops", "300",
            "--corrupt-shadow",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery OK" in out
        assert "repaired" in out

    def test_crash_test_baseline_corrupted_fails(self, capsys):
        code = main([
            "crash-test", "--scheme", "baseline", "--ops", "300",
            "--corrupt-shadow",
        ])
        assert code == 1
        assert "RECOVERY FAILED" in capsys.readouterr().out

    def test_crash_test_bmt(self, capsys):
        code = main([
            "crash-test", "--integrity", "bmt", "--ops", "300",
        ])
        assert code == 0
        assert "regenerated" in capsys.readouterr().out


class TestScenarioCli:
    def test_list_scenarios(self, capsys):
        code = main(["chaos", "--list-scenarios"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("powercut-storm", "scrub-race", "dimm-offline",
                     "compound-siege"):
            assert name in out
        assert "models:" in out

    def test_scenario_run_writes_schema_valid_report(self, capsys,
                                                     tmp_path):
        import json

        out_path = tmp_path / "scenario.json"
        code = main([
            "chaos", "--scenario", "scrub-race", "--schemes", "src",
            "--size", "32kb", "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "no-silent-corruption invariant: HELD" in out
        report = json.loads(out_path.read_text())
        assert report["schema"] == "scenario/v1"
        assert report["invariant_ok"] is True
        assert report["runs"][0]["scenario"] == "scrub-race"

    def test_scenario_with_trace(self, capsys):
        code = main([
            "chaos", "--scenario", "bank-storm", "--schemes", "src",
            "--size", "32kb", "--trace", "tests/fixtures/interleaved.trace",
        ])
        assert code == 0
        assert "HELD" in capsys.readouterr().out

    def test_trace_without_scenario_rejected(self):
        with pytest.raises(SystemExit, match="--trace requires"):
            main(["chaos", "--trace", "tests/fixtures/interleaved.trace"])

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            main(["chaos", "--scenario", "meteor-strike"])

    def test_scenario_checkpoint_resume(self, capsys, tmp_path):
        import json

        base = ["chaos", "--scenario", "ramp-siege", "--schemes", "src",
                "--size", "32kb"]
        clean_out = tmp_path / "clean.json"
        assert main(base + ["--out", str(clean_out)]) == 0
        ckpt = tmp_path / "ckpt"
        first = tmp_path / "first.json"
        assert main(base + ["--checkpoint", str(ckpt),
                            "--out", str(first)]) == 0
        resumed_out = tmp_path / "resumed.json"
        assert main(base + ["--resume", str(ckpt),
                            "--out", str(resumed_out)]) == 0
        clean = json.loads(clean_out.read_text())
        resumed = json.loads(resumed_out.read_text())
        assert resumed["runs"] == clean["runs"]
        assert resumed["scenarios"] == clean["scenarios"]


class TestMcCli:
    def test_parse_count_scientific(self):
        from repro.cli import _parse_count

        assert _parse_count("1e8") == 100_000_000
        assert _parse_count("20000") == 20_000
        assert _parse_count("2.5e3") == 2_500

    def test_mc_diff_quick(self, capsys):
        assert main(["mc-diff", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "BIT-IDENTICAL" in out

    def test_mc_diff_out_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "mc_diff.json"
        assert main(["mc-diff", "--quick", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "mc_diff/v2"
        assert report["recorded"] is False
        assert report["identical"] is True

    def test_reliability_empirical(self, capsys, tmp_path):
        import json

        out = tmp_path / "mc.json"
        code = main([
            "reliability", "--empirical", "--fits", "80",
            "--trials", "3e3", "--batch-trials", "500",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "udr_mc/v1"
        campaign = report["campaigns"][0]
        assert campaign["p_block_due_half_width"] > 0
        assert set(campaign["schemes"])  # per-scheme error bars present
        printed = capsys.readouterr().out
        assert "empirical UDR" in printed

    def test_reliability_empirical_checkpoint_resume(self, capsys,
                                                     tmp_path):
        import json

        ckpt = tmp_path / "ck"
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["reliability", "--empirical", "--fits", "80",
                "--trials", "2e3", "--batch-trials", "500"]
        assert main(base + ["--checkpoint", str(ckpt),
                            "--out", str(out_a)]) == 0
        assert main(base + ["--resume", str(ckpt),
                            "--out", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())

        def estimates(report):
            # Everything but the host-local ``runtime`` telemetry block
            # (the resumed leg restores cells instead of computing them).
            return [{k: v for k, v in c.items() if k != "runtime"}
                    for c in report["campaigns"]]

        assert estimates(a) == estimates(b)
        assert b["campaigns"][0]["runtime"]["runtime.cells_resumed"] > 0

    def test_compare_schemes_empirical_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "compare-schemes", "--empirical-trials", "1e4",
            "--empirical-fit", "40", "--no-empirical",
        ])
        assert args.empirical_trials == 10_000
        assert args.empirical_fit == 40.0
        assert args.no_empirical is True
