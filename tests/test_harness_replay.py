"""Bit-identity pin of the four mirror harnesses.

Soteria's resilience evidence comes from four adversarial harnesses
that drive a seeded stream against a functional controller, keep a
plaintext mirror, and classify every block at the end: the chaos
campaign (:func:`repro.faults.run_campaign`), the chaos scenarios
(:func:`repro.faults.run_scenario_campaign`), the crash-point harness
(:func:`repro.verify.run_crash_points`) and the scheme study's crash
recovery rows.  This fixture pins each one's canonical report by
sha256, so a refactor of the shared op loop, first-touch driver or
block audit must reproduce every report bit for bit.

A canonical report is the report's JSON with sorted keys and the
host-local ``runtime`` block left out.  The cases cover:

* the chaos campaign in ``direct`` and ``ecc`` mode, with the oracle on
  and off, every injection target (``shadow`` included), scrub
  intervals 0 and 50, and the three paper schemes;
* every catalog scenario on two schemes, plus one scenario driven by
  ``tests/fixtures/interleaved.trace`` (named relative to its folder,
  since the report records the path as given);
* crash points for all five schemes under ``toc`` and ``bmt``, with
  faulted points and ``recover_twice``;
* the scheme study's recovery row for every registered scheme.

The fixture (``tests/fixtures/harness_replay.json``) is recorded by
running this module as a script (``python tests/test_harness_replay.py
--record [CASE ...]``, every case when none is named); re-record it
only for a reviewed behaviour change.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys

import pytest

from repro.faults import (
    INJECTION_TARGETS,
    CampaignConfig,
    ScenarioConfig,
    run_campaign,
    run_scenario_campaign,
)
from repro.schemes import PAPER_SCHEMES, resolve_scheme, scheme_names
from repro.verify import CrashPointConfig, run_crash_points

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
FIXTURE = os.path.join(FIXTURES, "harness_replay.json")
#: Opened from inside FIXTURES: the report records the path as given,
#: so a relative name keeps the digest the same in every checkout.
TRACE = "interleaved.trace"
SCHEMA = "harness_replay/v1"

KB = 1024

#: One small chaos-campaign sweep per (mode, oracle) pair.
CAMPAIGN = dict(data_bytes=16 * KB, metadata_cache_bytes=1 * KB,
                ops=240, num_faults=4,
                schemes=PAPER_SCHEMES, targets=INJECTION_TARGETS,
                scrub_intervals=(0, 50), enforce_invariant=False)
SCENARIO = dict(data_bytes=16 * KB, metadata_cache_bytes=1 * KB,
                enforce_invariant=False)
CRASH = dict(data_bytes=16 * KB, metadata_cache_bytes=2 * KB, ops=120,
             num_points=6)
#: The scheme study's default crash-recovery stream.
STUDY = dict(data_bytes=32 * KB, cache_bytes=2 * KB, ops=160,
             write_fraction=0.55, seed=2021)


def _campaign(mode: str, oracle: bool) -> dict:
    config = CampaignConfig(mode=mode, oracle=oracle, **CAMPAIGN)
    return run_campaign(config).to_dict()


@contextlib.contextmanager
def _working_directory(path: str):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _scenarios(schemes: tuple, trace: str = None,
               scenarios: tuple = ()) -> dict:
    config = ScenarioConfig(schemes=schemes, trace=trace,
                            scenarios=scenarios, **SCENARIO)
    if trace is None:
        return run_scenario_campaign(config)
    with _working_directory(FIXTURES):
        return run_scenario_campaign(config)


def _crash_points(scheme: str, mode: str, fault_every: int,
                  recover_twice: bool) -> dict:
    config = CrashPointConfig(scheme=scheme, integrity_mode=mode,
                              fault_every=fault_every,
                              recover_twice=recover_twice, **CRASH)
    return run_crash_points(config, raise_on_failure=False)


def _study_recovery(scheme: str) -> dict:
    from repro.schemes.study import _run_recovery

    return _run_recovery(
        resolve_scheme(scheme), STUDY["data_bytes"], STUDY["cache_bytes"],
        STUDY["ops"], STUDY["write_fraction"], STUDY["seed"],
    )


def cases() -> dict:
    """{case name: zero-argument callable returning its report}."""
    out = {}
    for mode in ("direct", "ecc"):
        for oracle in (False, True):
            name = f"campaign/{mode}/oracle={int(oracle)}"
            out[name] = functools.partial(_campaign, mode, oracle)
    out["scenarios/baseline+src"] = functools.partial(
        _scenarios, ("baseline", "src"))
    out["scenarios/trace/scrub-race/src"] = functools.partial(
        _scenarios, ("src",), TRACE, ("scrub-race",))
    for scheme in scheme_names():
        for index, mode in enumerate(("toc", "bmt")):
            # Faulted every 2nd point under toc, every 3rd under bmt;
            # bmt also crashes again right after recovering.
            fault_every = 2 + index
            recover_twice = mode == "bmt"
            name = (f"crash/{scheme}/{mode}/fault_every={fault_every}"
                    f"/twice={int(recover_twice)}")
            out[name] = functools.partial(
                _crash_points, scheme, mode, fault_every, recover_twice)
    for scheme in scheme_names():
        out[f"study/{scheme}"] = functools.partial(_study_recovery, scheme)
    return out


def canonical_sha256(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "runtime"}
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=1)
def pinned() -> dict:
    with open(FIXTURE) as fh:
        data = json.load(fh)
    assert data["schema"] == SCHEMA
    return data["cases"]


def test_fixture_covers_every_case():
    assert sorted(pinned()) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_harness_replay(name):
    assert canonical_sha256(cases()[name]()) == pinned()[name]


def record(names=()) -> None:
    """Re-pin the named cases (every case when ``names`` is empty);
    the other pinned digests are kept as they are."""
    runs = cases()
    unknown = sorted(set(names) - set(runs))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    digests = dict(pinned()) if names else {}
    for name in names or sorted(runs):
        digests[name] = canonical_sha256(runs[name]())
    with open(FIXTURE, "w") as fh:
        json.dump({"schema": SCHEMA, "cases": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        raise SystemExit("usage: test_harness_replay.py --record [CASE ...]")
    record(sys.argv[2:])
