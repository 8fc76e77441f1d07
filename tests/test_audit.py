"""The block classifier end to end: a wrong block must fail every harness.

The other silent-corruption tests overwrite a harness's result after the
fact.  Here the controller itself lies: an XOR ``bit_flipper`` mask sits
on the read path, between the verified plaintext and the caller, and
flips one bit of one mirrored block on every read without raising.
Each harness must reach its verdict through its own stream and
:func:`repro.verify.audit.audit_mirror`, and report the lie.
"""

import pytest

from repro.controller import SecureMemoryController
from repro.faults import (
    CampaignConfig,
    ScenarioConfig,
    SilentCorruptionError,
    run_campaign,
    run_scenario_campaign,
)
from repro.schemes import resolve_scheme
from repro.schemes.study import _run_recovery
from repro.verify import CrashPointConfig, VerificationError, run_crash_points
from repro.verify import crashpoints

KB = 1024

#: XORed onto the returned plaintext: flips bit 0 of byte 0.
BIT_FLIPPER = bytes([0x01]) + bytes(63)


@pytest.fixture
def bit_flipper(monkeypatch):
    """Every controller returns the first block written under this
    fixture with one bit flipped, and raises nothing."""
    target = {}
    write, read = SecureMemoryController.write, SecureMemoryController.read

    def tracking_write(self, block_index, data):
        target.setdefault("block", block_index)
        return write(self, block_index, data)

    def flipping_read(self, block_index):
        result = read(self, block_index)
        if block_index == target.get("block"):
            result.data = bytes(
                a ^ b for a, b in zip(result.data, BIT_FLIPPER)
            )
        return result

    monkeypatch.setattr(SecureMemoryController, "write", tracking_write)
    monkeypatch.setattr(SecureMemoryController, "read", flipping_read)
    return target


def _campaign():
    with pytest.raises(SilentCorruptionError, match="'block': 0"):
        run_campaign(CampaignConfig(
            data_bytes=8 * KB, ops=100, schemes=("src",),
            targets=("counter",), scrub_intervals=(0,),
        ))


def _scenario():
    with pytest.raises(SilentCorruptionError, match="'block': 0"):
        run_scenario_campaign(ScenarioConfig(
            data_bytes=8 * KB, schemes=("src",), scenarios=("scrub-race",),
        ))


def _crash_points():
    with pytest.raises(VerificationError) as excinfo:
        run_crash_points(CrashPointConfig(
            scheme="src", data_bytes=16 * KB, ops=40, num_points=2,
        ))
    assert excinfo.value.report["silent_corruption"] > 0
    assert not excinfo.value.report["ok"]


def _study():
    row = _run_recovery(resolve_scheme("src"), 32 * KB, 2 * KB, 160, 0.55,
                        2021)
    assert row["silent_corruption"] == 1
    assert row["ok"] is False


@pytest.mark.parametrize("harness", [_campaign, _scenario, _crash_points,
                                     _study],
                         ids=["campaign", "scenario", "crash_points",
                              "study"])
def test_a_flipped_bit_fails_every_harness(bit_flipper, harness):
    harness()
    assert "block" in bit_flipper


@pytest.fixture
def odd_block_flipper(monkeypatch):
    """Every read of an odd-numbered block comes back with one bit
    flipped (the same XOR mask), and nothing raises."""
    read = SecureMemoryController.read

    def flipping_read(self, block_index):
        result = read(self, block_index)
        if block_index % 2:
            result.data = bytes(
                a ^ b for a, b in zip(result.data, BIT_FLIPPER)
            )
        return result

    monkeypatch.setattr(SecureMemoryController, "read", flipping_read)


def test_crash_points_count_every_silent_block(odd_block_flipper,
                                               monkeypatch):
    """``silent_corruption`` counts blocks, not the per-point records
    the report keeps (at most 20), so the outcome buckets and the silent
    count add up to the audited blocks."""
    audited = []
    audit = crashpoints.audit_mirror

    def recording_audit(controller, mirror):
        audited.append(sorted(mirror))
        return audit(controller, mirror)

    monkeypatch.setattr(crashpoints, "audit_mirror", recording_audit)
    report = run_crash_points(CrashPointConfig(
        scheme="src", data_bytes=16 * KB, ops=240, num_points=1,
    ), raise_on_failure=False)
    [blocks] = audited
    flipped = sum(1 for block in blocks if block % 2)
    assert flipped > crashpoints._MAX_SILENT_RECORDS
    assert report["silent_corruption"] == flipped
    [point] = report["failed_points"]
    assert len(point["silent"]) == crashpoints._MAX_SILENT_RECORDS
    outcomes = report["outcomes"]
    assert outcomes["recovered"] == len(blocks) - flipped
    assert (outcomes["recovered"] + outcomes["reported_lost"]
            + outcomes["quarantined"] + report["silent_corruption"]
            == len(blocks))
