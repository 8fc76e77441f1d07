"""The Monte-Carlo replay prover (repro mc-diff) and its fixture."""

import json

import pytest

from repro.verify.mc_diff import (
    DEFAULT_FIXTURE,
    DEFAULT_TRIALS,
    MC_DIFF_SCHEMA,
    REPLAY_SCHEMA,
    build_cases,
    diff_configs,
    load_fixture,
    run_case,
    run_mc_diff,
)


@pytest.fixture(scope="module")
def quick_report():
    return run_mc_diff(quick=True)


@pytest.fixture(scope="module")
def pinned():
    return load_fixture(DEFAULT_FIXTURE, REPLAY_SCHEMA)


def _case(pinned, name):
    case = next(c for c in build_cases(pinned["trials"])
                if c["name"] == name)
    return run_case(case, pinned["cases"].get(name))


class TestCorpus:
    def test_corpus_covers_every_ecc_model(self):
        repairs = {config.repair for _, config, _ in diff_configs()}
        assert repairs == {"chipkill", "chipkill2", "secded", "none"}

    def test_corpus_pins_degenerate_geometry(self):
        names = [name for name, _, _ in diff_configs()]
        assert any("tiny-geometry" in name for name in names)

    def test_corpus_reaches_the_fallback_bucket(self):
        assert any(8 in ks for _, _, ks in diff_configs())

    def test_committed_fixture_covers_the_full_corpus(self, pinned):
        assert pinned["schema"] == REPLAY_SCHEMA
        assert pinned["trials"] == 1500
        cases = build_cases(pinned["trials"])
        assert len(cases) == 54
        assert set(pinned["cases"]) == {
            c["name"] for c in cases if c["kind"] != "batching"
        }
        # The fallback bucket really fell back when it was recorded.
        assert pinned["cases"]["trial:chipkill/hopper/k8"]["approximations"]


class TestQuickSuite:
    def test_everything_identical(self, quick_report):
        assert quick_report["schema"] == MC_DIFF_SCHEMA
        assert quick_report["recorded"] is False
        assert quick_report["identical"] is True
        for row in quick_report["cases"]:
            assert row["identical"], row

    def test_covers_all_layers(self, quick_report):
        kinds = {row["kind"] for row in quick_report["cases"]}
        assert kinds == {"rng", "sampler", "trial", "result", "batching"}
        # importance runs through the trial layer under a marked name
        assert any(
            row["name"].endswith("/importance")
            for row in quick_report["cases"]
        )

    def test_progress_callback_sees_every_row(self):
        seen = []
        report = run_mc_diff(quick=True, progress=seen.append)
        assert len(seen) == report["total"]


class TestSingleCases:
    def test_rng_case_identical(self, pinned):
        assert _case(pinned, "rng:splitmix64")["identical"]

    def test_sampler_case_identical(self, pinned):
        assert _case(pinned, "sampler:chipkill/hopper/k2")["identical"]

    def test_trial_case_identical(self, pinned):
        assert _case(pinned, "trial:chipkill/hopper/k2")["identical"]

    def test_unrecorded_case_flagged(self, pinned):
        case = next(c for c in build_cases(pinned["trials"])
                    if c["kind"] == "result")
        row = run_case(case, None)
        assert row["mismatched"] == ["missing-from-fixture"]


class TestRecordReplay:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("mc_replay") / "mc_replay.json")
        report = run_mc_diff(quick=True, fixture=path, record=True)
        return path, report

    def test_record_then_replay_roundtrip(self, recorded):
        path, report = recorded
        assert report["recorded"] is True
        assert load_fixture(path, REPLAY_SCHEMA)["trials"] == DEFAULT_TRIALS
        replayed = run_mc_diff(quick=True, fixture=path)
        assert replayed["identical"] is True
        assert replayed["recorded"] is False
        assert replayed["total"] == report["total"]

    @pytest.mark.parametrize("name, field", [
        ("rng:splitmix64", "mix64"),
        ("sampler:chipkill/hopper/k5", "batch_sha256"),
        ("trial:chipkill/hopper/k8", "approximations"),
        ("trial:secded/hopper/k8/importance", "weight"),
        ("result:chipkill2/hopper", "p_block_due"),
    ])
    def test_tampered_value_fails_exactly_that_case(self, recorded, tmp_path,
                                                    name, field):
        with open(recorded[0]) as fh:
            fixture = json.load(fh)
        entry = fixture["cases"][name]
        value = entry[field]
        entry[field] = value + ([1] if isinstance(value, list) else "0")
        path = str(tmp_path / "tampered.json")
        with open(path, "w") as fh:
            json.dump(fixture, fh)
        report = run_mc_diff(quick=True, fixture=path)
        assert report["identical"] is False
        failed = [r for r in report["cases"] if not r["identical"]]
        assert [(r["name"], r["mismatched"]) for r in failed] == [
            (name, [field])
        ]
