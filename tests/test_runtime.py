"""Tests for the preemption-tolerant runtime primitives
(:mod:`repro.runtime`): crash-safe atomic writes, the checkpoint/v2
manifest over the result store, the failure taxonomy, and the
retry/backoff policy."""

import json
import signal

import numpy as np
import pytest

from repro.runtime import (
    CheckpointJournal,
    CheckpointMismatchError,
    FatalCellError,
    ResultStore,
    RetryPolicy,
    SignalDrain,
    SimulatedCrashError,
    TooManyFailuresError,
    atomic_write_json,
    atomic_write_text,
    cell_key,
    classify_failure,
    set_failpoint,
    sweep_fingerprint,
)
from repro.sim import CellOutcome, SimCell, SystemConfig


@pytest.fixture(autouse=True)
def _clear_failpoint():
    yield
    set_failpoint(None)


class TestAtomicWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        atomic_write_json(path, {"b": 2, "a": 1})
        assert json.loads(path.read_text()) == {"a": 1, "b": 2}
        # Sorted keys: the byte stream is a pure function of the payload.
        assert path.read_text().index('"a"') < path.read_text().index('"b"')

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "fig.csv"
        atomic_write_text(path, "x,y\n1,2\n")
        assert path.read_text() == "x,y\n1,2\n"

    @pytest.mark.parametrize("site", ["tmp_written", "before_rename"])
    def test_crash_mid_write_keeps_old_contents(self, tmp_path, site):
        """A power cut at any point of the publish leaves the previous
        artifact fully intact and parseable — never a torn file."""
        path = tmp_path / "report.json"
        atomic_write_json(path, {"generation": 1})

        def crash(at):
            if at == site:
                raise SimulatedCrashError(at)

        set_failpoint(crash)
        with pytest.raises(SimulatedCrashError):
            atomic_write_json(path, {"generation": 2})
        set_failpoint(None)
        assert json.loads(path.read_text()) == {"generation": 1}
        # The aborted temp file was cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_crash_on_first_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "fresh.json"
        set_failpoint(lambda at: (_ for _ in ()).throw(
            SimulatedCrashError(at)) if at == "before_rename" else None)
        with pytest.raises(SimulatedCrashError):
            atomic_write_json(path, {"x": 1})
        set_failpoint(None)
        assert not path.exists()

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "r.json"
        for generation in range(3):
            atomic_write_json(path, {"generation": generation})
        assert json.loads(path.read_text()) == {"generation": 2}


class TestCellKey:
    def test_stable_and_content_addressed(self):
        config = SystemConfig.scaled(16)
        a = SimCell(workload=("gcc", (), {}), scheme="src", config=config,
                    seed=3)
        b = SimCell(workload=("gcc", (), {}), scheme="src", config=config,
                    seed=3)
        assert cell_key(a) == cell_key(b)

    def test_any_field_changes_the_key(self):
        config = SystemConfig.scaled(16)
        base = SimCell(workload=("gcc", (), {}), scheme="src",
                       config=config, seed=3)
        variants = [
            SimCell(workload=("gcc", (), {}), scheme="sac", config=config,
                    seed=3),
            SimCell(workload=("mcf", (), {}), scheme="src", config=config,
                    seed=3),
            SimCell(workload=("gcc", (), {}), scheme="src", config=config,
                    seed=4),
            SimCell(workload=("gcc", (), {}), scheme="src", config=config,
                    seed=3, verify=True),
        ]
        keys = {cell_key(cell) for cell in variants}
        assert cell_key(base) not in keys
        assert len(keys) == len(variants)

    def test_runner_identity_mixed_in(self):
        def runner_a(cell):
            return cell

        def runner_b(cell):
            return cell

        assert cell_key(1, runner_a) != cell_key(1, runner_b)

    def test_handles_tuples_dicts_and_numpy(self):
        cell = (np.int64(4), {"b": 2, "a": np.float64(0.5)}, [1, (2, 3)])
        same = (4, {"a": 0.5, "b": 2}, [1, (2, 3)])
        assert cell_key(cell) == cell_key(same)

    def test_fingerprint_is_order_independent(self):
        keys = [cell_key(i) for i in range(5)]
        assert sweep_fingerprint(keys) == sweep_fingerprint(keys[::-1])
        assert sweep_fingerprint(keys) != sweep_fingerprint(keys[:-1])


def _outcome(index=0, label="cell", result=None, attempts=1):
    return CellOutcome(index=index, label=label, ok=True, result=result,
                       attempts=attempts, wall_seconds=0.25)


def _checkpoint(directory, fingerprint="fp", **kwargs):
    """A checkpoint over a store rooted in its own directory."""
    store = ResultStore(directory)
    return store, CheckpointJournal(directory, store=store,
                                    fingerprint=fingerprint, **kwargs)


class TestCheckpointJournal:
    def test_record_and_resume(self, tmp_path):
        store, journal = _checkpoint(tmp_path, total_cells=2)
        journal.record("k0", _outcome(0, "a", {"x": 1}))
        journal.record("k1", _outcome(1, "b", {"y": 2}, attempts=3))
        manifest = json.loads((tmp_path / "checkpoint.json").read_text())
        assert manifest == {"schema": "checkpoint/v2", "fingerprint": "fp",
                            "total_cells": 2, "store": None}

        store, _ = _checkpoint(tmp_path, total_cells=2, resume=True)
        assert store.get("k0")["result"] == {"x": 1}
        assert store.get("k1")["attempts"] == 3

    def test_fingerprint_mismatch_refuses_merge(self, tmp_path):
        _checkpoint(tmp_path, "sweep-A")
        with pytest.raises(CheckpointMismatchError, match="refusing to merge"):
            _checkpoint(tmp_path, "sweep-B", resume=True)

    def test_unreadable_manifest_refuses_resume(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text('{"schema": "checkp')
        with pytest.raises(CheckpointMismatchError, match="unreadable"):
            _checkpoint(tmp_path, resume=True)

    def test_injected_crash_mid_append_is_resumable(self, tmp_path):
        store, journal = _checkpoint(tmp_path)
        journal.record("k0", _outcome(0, "a", 1))

        def crash(at):
            if at == "before_rename":
                raise SimulatedCrashError(at)

        set_failpoint(crash)
        with pytest.raises(SimulatedCrashError):
            journal.record("k1", _outcome(1, "b", 2))
        set_failpoint(None)
        store, _ = _checkpoint(tmp_path, resume=True)
        assert store.get("k0")["result"] == 1
        assert store.get("k1") is None
        # The crashed publish left no temp file and no torn entry.
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) \
            == ["checkpoint.json", "k0.json"]

    def test_pickle_restores_exact_objects(self, tmp_path):
        result = {"nested": [1.5, {"deep": (1, 2)}], "bytes": b"\x00\xff"}
        _, journal = _checkpoint(tmp_path)
        journal.record("k", _outcome(result=result))
        store, _ = _checkpoint(tmp_path, resume=True)
        assert store.get("k")["result"] == result


class TestFailureTaxonomy:
    def test_classification(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_failure(BrokenProcessPool()) == "crashed"
        assert classify_failure(MemoryError()) == "oom"
        assert classify_failure(FatalCellError("bad config")) == "fatal"
        assert classify_failure(ValueError("boom")) == "retryable"
        assert classify_failure(
            ValueError("boom"), fatal_types=(ValueError,)) == "fatal"

    def test_policy_budgets(self):
        policy = RetryPolicy(retries=2, oom_retries=1, timeout_retries=3)
        assert policy.max_attempts("retryable") == 3
        assert policy.max_attempts("timeout") == 4
        assert policy.max_attempts("oom") == 2
        assert policy.max_attempts("crashed") == 3   # follows retries
        assert policy.max_attempts("fatal") == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.5)
        for attempt in (1, 2, 5):
            first = policy.delay("cell-key", attempt)
            assert first == policy.delay("cell-key", attempt)
            assert 0.01 <= first <= 0.5
        # Different keys decorrelate.
        assert policy.delay("a", 3) != policy.delay("b", 3)

    def test_zero_base_delay_never_sleeps(self):
        policy = RetryPolicy(base_delay=0.0, max_delay=0.0)
        assert policy.delay("k", 4) == 0.0

    def test_too_many_failures_error_summarizes_classes(self):
        failures = [
            CellOutcome(index=i, label=f"c{i}", ok=False,
                        failure_class="timeout" if i % 2 else "retryable")
            for i in range(4)
        ]
        err = TooManyFailuresError(4, failures)
        assert err.limit == 4
        assert "timeout=2" in str(err)
        assert "retryable=2" in str(err)
        assert "--max-failures" in str(err)


class TestSignalDrain:
    def test_first_signal_requests_drain(self):
        with SignalDrain() as drain:
            assert not drain.requested
            signal.raise_signal(signal.SIGTERM)
            assert drain.requested
            assert drain.signal_name == "SIGTERM"
            assert drain.signal_count == 1

    def test_second_signal_hard_stops(self):
        with SignalDrain() as drain:
            signal.raise_signal(signal.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)
            assert drain.signal_count == 2

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with SignalDrain():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_on_signal_callback(self):
        seen = []
        with SignalDrain(on_signal=lambda name, n: seen.append((name, n))):
            signal.raise_signal(signal.SIGTERM)
        assert seen == [("SIGTERM", 1)]
