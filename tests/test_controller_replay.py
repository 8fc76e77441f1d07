"""Bit-identity pin of the secure controller itself.

``engine_replay.json`` pins whole timing-mode simulations; this fixture
pins the controller directly, over every registered scheme, both
``functional_crypto`` settings, both NVM devices (plain and Start-Gap)
and a clean and a faulted run.  Each case drives a 64 KiB controller
with a 2 KiB 4-way metadata cache through a seeded stream of reads and
writes that overflows one minor counter and flushes half way.  Faulted
cases poison or corrupt metadata and data that is not cached at the
time, so the fetch chain, the clone and sidecar repairs and quarantine
all run.

Every case runs twice, once untraced and once with a subscriber on every
controller event kind; both runs must reproduce the pinned digest of:
per-op results (data and cost, or the error type), the controller and
metadata-cache instruments, the NVM image (touched bytes and poison set;
the backing device under Start-Gap), the WPQ in order, the metadata
cache's residency with dirty bits and payloads, and the on-chip roots.
The traced run must also reproduce the pinned event stream.

The fixture (``tests/fixtures/controller_replay.json``) is recorded by
calling :func:`observe` for each of :func:`cases` and storing the
result; re-record it only for a reviewed behaviour change.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

from repro.controller import SecureMemoryController
from repro.controller.errors import SecureMemoryError
from repro.memory import NvmDevice, WearLevelingNvm
from repro.schemes import resolve_scheme

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "controller_replay.json")
SCHEMA = "controller_replay/v1"

#: Every builtin scheme: the paper trio and the two related-work ones.
SCHEMES = ("baseline", "src", "sac", "phoenix", "triad")

DATA_BYTES = 64 * 1024
CACHE_BYTES = 2 * 1024
CACHE_WAYS = 4
NUM_OPS = 1500
WRITE_SHARE = 0.4
#: Every eighth op writes this block: 187 writes overflow its minor.
HOT_BLOCK = 77
FLUSH_AT = 750
#: Start-Gap moves its gap every PSI writes, through the live data.
PSI = 5
#: Op index -> a fault placed before that op, or before the first later
#: op at which a target is quiet (faulted cases).
FAULTS = {300: "counter", 500: "tree", 650: "data", 900: "sidecar",
          1100: "flip", 1300: "counter"}
#: Every event kind the controller emits.
EVENT_KINDS = ("demand_read", "data_read", "data_write", "data_write_failed",
               "metadata_miss", "metadata_eviction", "clone_repair",
               "sidecar_repair", "quarantine", "rekey")


def cases() -> list:
    return [
        {"scheme": scheme, "functional": functional, "device": device,
         "faulted": faulted}
        for scheme in SCHEMES
        for functional in (True, False)
        for device in ("nvm", "startgap")
        for faulted in (False, True)
    ]


def case_name(case: dict) -> str:
    return "-".join((
        case["scheme"],
        "functional" if case["functional"] else "timing",
        case["device"],
        "faulted" if case["faulted"] else "clean",
    ))


def _ops() -> list:
    rng = np.random.default_rng(2021)
    blocks = rng.integers(0, DATA_BYTES // 64, NUM_OPS)
    writes = rng.random(NUM_OPS) < WRITE_SHARE
    ops = []
    for i in range(NUM_OPS):
        if i % 8 == 3:
            ops.append(("write", HOT_BLOCK, rng.bytes(64)))
        elif writes[i]:
            ops.append(("write", int(blocks[i]), rng.bytes(64)))
        else:
            ops.append(("read", int(blocks[i]), None))
    return ops


def _build(case: dict) -> SecureMemoryController:
    scheme = resolve_scheme(case["scheme"])
    sizes = {"metadata_cache_bytes": CACHE_BYTES, "metadata_ways": CACHE_WAYS}
    nvm = None
    if case["device"] == "startgap":
        total = scheme.build(DATA_BYTES, **sizes).amap.total_bytes
        nvm = WearLevelingNvm(NvmDevice(capacity_bytes=total + 64), psi=PSI)
    return scheme.build(
        DATA_BYTES, nvm=nvm, functional_crypto=case["functional"],
        quarantine=case["faulted"], rng=np.random.default_rng(7), **sizes,
    )


def _quiet(ctrl, address: int) -> bool:
    """True when ``address`` is written, not cached and not queued, so
    a fault there is seen by the next fetch."""
    return (
        ctrl.nvm.is_touched(address)
        and not ctrl.metadata_cache.contains(address)
        and ctrl.wpq.lookup(address) is None
    )


def _place_fault(ctrl, kind: str, op_index: int) -> bool:
    """Fault the first quiet target of ``kind``; False if none is."""
    amap = ctrl.amap
    if kind in ("counter", "flip"):
        candidates = [amap.node_addr(1, i) for i in range(amap.level_sizes[0])]
    elif kind == "tree":
        candidates = [amap.node_addr(2, i) for i in range(amap.level_sizes[1])]
    elif kind == "sidecar":
        candidates = [amap.counter_mac_copies(i)[0]
                      for i in range(amap.num_counter_mac_blocks)]
    else:
        candidates = [amap.data_addr(i) for i in range(amap.num_data_blocks)]
    start = op_index % len(candidates)
    for address in candidates[start:] + candidates[:start]:
        if _quiet(ctrl, address):
            if kind == "flip":
                ctrl.nvm.flip_bits(address, [3, 100, 301])
            else:
                ctrl.nvm.poison_block(address)
            return True
    return False


def _payload_bytes(payload) -> str:
    if hasattr(payload, "block"):
        return (payload.block.to_bytes() + payload.mac).hex() + repr(
            payload.slot_updates)
    if hasattr(payload, "node"):
        return payload.node.to_bytes().hex() + f"@{payload.level}"
    return payload.to_bytes().hex()


def _event_repr(event) -> str:
    fields = sorted(event.fields.items())
    return repr((event.kind, [(k, v.hex() if isinstance(v, bytes) else v)
                              for k, v in fields]))


def observe(case: dict, traced: bool) -> dict:
    """Run one case and return its pinned observation."""
    ctrl = _build(case)
    events = hashlib.sha256()
    if traced:
        def collect(event):
            events.update(_event_repr(event).encode())
        for kind in EVENT_KINDS:
            ctrl.tracer.subscribe(kind, collect)
    ops_digest = hashlib.sha256()
    errors = Counter()
    pending = []
    for i, (op, block, data) in enumerate(_ops()):
        if case["faulted"] and i in FAULTS:
            pending.append(FAULTS[i])
        pending = [kind for kind in pending
                   if not _place_fault(ctrl, kind, i)]
        if i == FLUSH_AT:
            cost = ctrl.flush()
            ops_digest.update(repr(("flush", cost.blocking_reads,
                                    cost.posted_writes)).encode())
        try:
            if op == "read":
                result = ctrl.read(block)
                record = (op, block, result.data.hex(),
                          result.cost.blocking_reads, result.cost.posted_writes)
            else:
                cost = ctrl.write(block, data)
                record = (op, block, cost.blocking_reads, cost.posted_writes)
        except SecureMemoryError as exc:
            errors[type(exc).__name__] += 1
            record = (op, block, type(exc).__name__)
        ops_digest.update(repr(record).encode())

    device = getattr(ctrl.nvm, "backing", ctrl.nvm)
    controller = {m.name: m.snapshot() for m in ctrl.stats.metrics()}
    state = {
        "ops": ops_digest.hexdigest(),
        "controller": controller,
        "metadata_cache": {m.name: m.snapshot()
                           for m in ctrl.metadata_cache.stats.metrics()},
        "nvm_traffic": [device.read_count, device.write_count],
        "nvm_image": [(a, device.peek_block(a).hex())
                      for a in device.touched_addresses()],
        "poisoned": sorted(device.poisoned_addresses),
        # The WPQ has no public view of its queue order.
        "wpq": [(a, d.hex()) for a, d in ctrl.wpq._queue],
        "resident": [
            (a, list(ctrl.metadata_cache.location_of(a)), dirty,
             _payload_bytes(payload))
            for a, payload, dirty in ctrl.metadata_cache.resident()
        ],
        "victims": [(a, e.dirty) for a, e in ctrl.victims.items()],
        "root": ctrl.root.to_bytes().hex(),
        "shadow_root": ctrl.shadow.tree.root.hex(),
    }
    blob = json.dumps(state, sort_keys=True, default=str).encode()
    return json.loads(json.dumps({
        "sha256": hashlib.sha256(blob).hexdigest(),
        "controller": controller,
        "errors": dict(sorted(errors.items())),
        "events_sha256": events.hexdigest() if traced else None,
    }, sort_keys=True))


@functools.lru_cache(maxsize=None)
def pinned() -> dict:
    with open(FIXTURE) as fh:
        fixture = json.load(fh)
    assert fixture["schema"] == SCHEMA
    return {row["name"]: row for row in fixture["cases"]}


def test_fixture_covers_every_case():
    assert sorted(pinned()) == sorted(case_name(c) for c in cases())


@pytest.mark.parametrize("case", cases(), ids=case_name)
def test_controller_replay(case):
    row = pinned()[case_name(case)]
    untraced = observe(case, traced=False)
    traced = observe(case, traced=True)
    for observed in (untraced, traced):
        assert observed["sha256"] == row["sha256"]
        assert observed["controller"] == row["controller"]
        assert observed["errors"] == row["errors"]
    assert traced["events_sha256"] == row["events_sha256"]


def _stat(row: dict, name: str) -> int:
    return row["controller"][f"controller.{name}"]


@pytest.mark.parametrize("functional", (True, False))
@pytest.mark.parametrize("device", ("nvm", "startgap"))
def test_faulted_cases_exercise_the_repair_paths(functional, device):
    """The faults land where they matter: Soteria's clones repair them,
    the clone-less baseline surfaces typed errors or quarantines."""
    def row(scheme, faulted=True):
        return pinned()[case_name({"scheme": scheme, "functional": functional,
                                 "device": device, "faulted": faulted})]

    for scheme in ("src", "sac"):
        assert _stat(row(scheme), "clone_repairs") > 0
        assert _stat(row(scheme), "sidecar_repairs") > 0
        assert _stat(row(scheme, faulted=False), "clone_repairs") == 0
    baseline = row("baseline")
    assert _stat(baseline, "clone_repairs") == 0
    assert sum(baseline["errors"].values()) > 0
    assert _stat(baseline, "quarantined_nodes") > 0
    for scheme in SCHEMES:
        assert _stat(row(scheme), "page_reencryptions") > 0
        assert _stat(row(scheme, faulted=False), "page_reencryptions") > 0
        assert row(scheme, faulted=False)["errors"] == {}


@pytest.mark.parametrize("case", [c for c in cases()
                                  if c["device"] == "startgap"],
                         ids=case_name)
def test_start_gap_is_transparent_to_the_controller(case):
    """A gap move carries each line's written state and poison with it,
    so the controller sees the same device either way."""
    row = pinned()[case_name(case)]
    twin = pinned()[case_name(dict(case, device="nvm"))]
    for key in ("controller", "errors", "events_sha256"):
        assert row[key] == twin[key]
