"""Checks of the benchmark itself: ``python -m pytest bench/tests``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import harness
import spans
import suite

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == dict(harness.END_TO_END)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == dict(spans.PER_LAYER)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in suite.WORKLOADS]


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    """One smoke run of every workload, untraced and traced."""
    out = tmp_path_factory.mktemp("smoke") / "records.jsonl"
    result = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "7",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    return [json.loads(line) for line in out.read_text().splitlines()]


def test_smoke_run_reports_every_metric(smoke_records):
    names = [w.name for w in suite.WORKLOADS]
    for trace, metrics in ((0, harness.END_TO_END), (1, spans.PER_LAYER)):
        records = [r for r in smoke_records if r["trace"] == trace]
        assert [r["workload"] for r in records] == names
        for record in records:
            assert record["correct"], record["errors"]
            assert set(record["metrics"]) == {name for name, _ in metrics}
    for record in smoke_records:
        if not record["trace"]:
            assert all(v > 0 for v in record["metrics"].values()), record


def test_traced_self_times_account_for_the_wall(smoke_records):
    for record in smoke_records:
        if not record["trace"]:
            continue
        metrics = record["metrics"]
        self_total = sum(v for name, v in metrics.items()
                         if name.endswith(".self_s"))
        assert self_total == pytest.approx(metrics["trace.wall_s"], rel=0.05)
        assert metrics["trace.overhead_ratio"] > 0


def traced(workload_name: str, seed: int = 7):
    workload = suite.BY_NAME[workload_name]
    inputs = workload.prepare(seed, True)
    with harness.scratch_dir() as path, spans.SpanRecorder() as recorder:
        state = workload.build(inputs, path)
        recorder.reset()
        outcome = recorder.run_root(lambda: workload.run(state))
    return recorder, outcome


@pytest.mark.parametrize("name", ["sim-write", "mc-resumable"])
def test_self_time_is_at_most_inclusive_time(name):
    recorder, _ = traced(name)
    summary = recorder.summary()
    a = recorder.arrays()
    duration = a["end"] - a["start"]
    for layer, stats in summary.items():
        assert stats["self_s"] <= stats["incl_s"] + 1e-9, layer
    root = duration[a["parent"] < 0].sum()
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(root)
    assert summary["bench"]["calls"] == 1
    assert (a["end"] >= a["start"]).all()


def test_spans_of_one_controller_call_share_an_id():
    recorder, _ = traced("sim-write")
    a = recorder.arrays()
    ids = {name: i for i, name in enumerate(spans.LAYERS)}
    calls = np.flatnonzero(np.isin(
        a["layer"], [ids["controller.read"], ids["controller.write"]]))
    assert len(calls) > 0
    assert (a["group"][calls] == calls).all()
    nested = np.flatnonzero(a["layer"] == ids["memory.nvm"])
    assert (a["group"][nested] >= 0).all()
    assert np.isin(a["group"][nested], calls).all()


def test_wrappers_restore_every_patched_attribute():
    originals = [(owner, name, original)
                 for _, owner, name, original in spans._hook_targets()]
    assert len(originals) > 30
    with pytest.raises(RuntimeError):
        with spans.SpanRecorder():
            assert any(vars(owner)[name] is not original
                       for owner, name, original in originals)
            raise RuntimeError("leave the block early")
    for owner, name, original in originals:
        assert vars(owner)[name] is original, (owner, name)


def test_array_fed_path_equals_run_sim_cell():
    from repro.sim import SystemConfig
    from repro.sim.sweep import SimCell, run_sim_cell

    for workload in suite.WORKLOADS[:3]:
        inputs = workload.prepare(7, True)
        spec, _, _, seed = inputs
        outcome = workload.run(workload.build(inputs, None))
        for scheme in suite.SCHEMES:
            cell = SimCell(workload=spec, scheme=scheme,
                           config=SystemConfig.scaled(32), seed=seed)
            expected = dataclasses.asdict(run_sim_cell(cell))
            assert outcome.output[scheme] == expected, (workload.name, scheme)


def test_sim_cells_match_the_committed_bench_perf_results():
    """sim-read and sim-write at seed 2021 are the pinned mcf and
    hashmap cells of BENCH_perf.json."""
    results = json.loads((ROOT / "BENCH_perf.json").read_text())["results"]
    for name, label in (("sim-read", "mcf"), ("sim-write", "hashmap")):
        workload = suite.BY_NAME[name]
        outcome = workload.run(workload.build(workload.prepare(2021, False),
                                              None))
        for scheme in suite.SCHEMES:
            assert suite.canonical(outcome.output[scheme]) == \
                suite.canonical(results[f"{label}/{scheme}"]), (name, scheme)


def test_a_perturbed_output_fails_the_check():
    workload = suite.BY_NAME["mc-campaign"]
    runs = []

    def perturbed(state):
        outcome = workload.run(state)
        runs.append(1)
        if len(runs) == 2:
            outcome.output["p_block_due"] *= 1 + 1e-12
        return outcome

    record = harness.measure(dataclasses.replace(workload, run=perturbed),
                             seed=7, seconds=0, smoke=True)
    assert record["failed"] == 1 and not record["correct"]
    assert len(record["digests"]) == 2

    output = workload.run(workload.build(workload.prepare(7, True), None))
    checker = harness.Checker(pinned=suite.digest(output.output))
    checker.check(output.output)
    assert checker.correct
    output.output["total_trials"] += 1
    checker.check(output.output)
    assert checker.failed == 1


def test_pinned_digests_cover_every_workload():
    assert set(harness.expected_digests(2021)) == set(suite.BY_NAME)


def test_compare_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1) == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1) == "unchanged"
    assert compare.verdict(parent, faster[:5], "lower", 0.1) == "unchanged"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1) == "improved"


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert result.stdout == ""
