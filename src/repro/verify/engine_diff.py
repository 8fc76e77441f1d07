"""Replay prover: the vector engine vs its pinned behavior corpus.

The vectorized batch engine (:mod:`repro.sim.engine`) was developed as
a bit-identical replacement for the original scalar interpreter loop
and soaked under a live differential prover until the evidence was
unanimous; the scalar loop is now retired.  What remains is the
contract itself: the engine's *observable behavior* — the full
``SimResult`` (every float included), the registry snapshot (latency
histograms, cache counters, controller traffic), the cache residency
digest, and the typed error if a run dies — is pinned in a committed
replay fixture (``tests/fixtures/engine_replay.json``, schema
``engine_replay/v1``).  This module re-runs the engine over the same
three surfaces and compares everything against the fixture:

* **corpus** — the committed fuzz corpus (``tests/corpus/*.json``):
  each case's read/write op skeleton becomes a reference trace (tiled
  so residency and LRU reuse matter), executed under the full
  differential oracle (``verify=True``), so the embedded verify report
  is part of the compared payload;
* **sweep** — pinned-seed workload x scheme x warmup cells over the
  standard generators (the same grid family ``repro bench`` and the
  figures pin);
* **chaos** — fault-injection runs wired through the per-op trace
  event (:class:`~repro.faults.FaultInjector` subscribed to ``"op"``),
  where the engine must corrupt the same blocks at the same op indices
  and surface the same outcome — including raising the same typed
  error at the same point when the damage is fatal.

Any refactor of the hot loop that shifts a float accumulation, reorders
an eviction, or drops a histogram observation diverges from the fixture
and fails the suite.  Intentional behavior changes re-pin the corpus
with ``repro engine-diff --record`` (review the fixture diff like any
golden-file change).

``repro engine-diff`` runs the whole suite from the shell; the
``engine-replay`` CI job gates merges on it.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import asdict

import numpy as np

from repro.sim.config import SystemConfig
from repro.sim.system import SecureSystem
from repro.verify.replay_fixture import (
    load_fixture,
    replay_report,
    write_fixture,
)
from repro.workloads.trace import Trace

#: Schema stamp for :func:`run_engine_diff` payloads.
ENGINE_DIFF_SCHEMA = "engine_diff/v2"

#: Schema stamp for the committed replay fixture.
REPLAY_SCHEMA = "engine_replay/v1"

#: Where the pinned behavior corpus lives (repo-relative, like the
#: default ``tests/corpus`` the fuzzer uses).
DEFAULT_FIXTURE = os.path.join("tests", "fixtures", "engine_replay.json")

#: How many times a corpus case's op skeleton is tiled into a trace —
#: enough repetition for cache reuse and LRU churn to matter.
CORPUS_TILE = 25

_COMPARED_KEYS = ("result", "error", "registry", "resident_sha256")


def corpus_trace(path: str, tile: int = CORPUS_TILE):
    """The read/write skeleton of a corpus case as (refs, config).

    Non-memory ops (faults, crashes, scrubs) are dropped — they drive
    :class:`~repro.verify.replay.ReplayContext`, not the reference hot
    loop — leaving the address/write pattern the fuzzer shrank to.
    Returns ``None`` when the case has no read/write ops.
    """
    from repro.verify.replay import load_case

    config, ops, _note = load_case(path)
    skeleton = [
        (op["block"] * 64, op["op"] == "write")
        for op in ops
        if op.get("op") in ("read", "write")
    ]
    if not skeleton:
        return None
    refs = [
        (address, is_write, (i % 5) + 1)
        for i, (address, is_write) in enumerate(skeleton * tile)
    ]
    return refs, config


def _normalize(payload):
    """Canonicalise a payload the way the fixture stores it.

    A JSON round-trip maps tuples to lists and non-string dict keys to
    strings, so a live observation compares bit-equal against the same
    observation after a trip through the fixture file.
    """
    return json.loads(json.dumps(payload, sort_keys=True))


def _observe(build) -> dict:
    """Everything observable about one run of the vector engine.

    Cache residency (every resident address per level, sorted) is
    folded to a sha256 digest so the committed fixture stays small
    while still pinning the exact post-run cache state.
    """
    system, workload, kwargs = build()
    result = error = None
    try:
        result = asdict(system.run(workload, **kwargs))
    except Exception as exc:  # compared, not hidden: same error = pass
        error = f"{type(exc).__name__}: {exc}"
    resident = [
        cache.resident_addresses()
        for cache in system.hierarchy.caches
    ]
    digest = hashlib.sha256(
        json.dumps(resident, sort_keys=True).encode()
    ).hexdigest()
    return _normalize({
        "result": result,
        "error": error,
        "registry": system.registry.snapshot(),
        "resident_sha256": digest,
    })


def _row(case: dict, mismatched: list, observed: dict) -> dict:
    return {
        "name": case["name"],
        "kind": case["kind"],
        "identical": not mismatched,
        "mismatched": mismatched,
        "error": observed["error"],
    }


def run_case(case: dict, pinned) -> dict:
    """Run one case and diff it against its pinned observation.

    ``pinned`` is the fixture entry for this case, or ``None`` when the
    fixture has never recorded it (a new case ⇒ re-pin with
    ``--record``).
    """
    observed = _observe(case["build"])
    if pinned is None:
        mismatched = ["missing-from-fixture"]
    else:
        mismatched = [
            key for key in _COMPARED_KEYS if observed[key] != pinned.get(key)
        ]
    return _row(case, mismatched, observed)


# ----------------------------------------------------------------------
# case builders


def corpus_cases(corpus_dir: str = "tests/corpus") -> list:
    cases = []
    for path in sorted(glob.glob(os.path.join(corpus_dir, "*.json"))):
        trace = corpus_trace(path)
        if trace is None:
            continue
        refs, config = trace

        def build(refs=refs, config=config):
            system = SecureSystem(
                scheme=config.scheme,
                config=SystemConfig.scaled(memory_mb=1),
                functional_crypto=True,
                rng=np.random.default_rng(config.seed),
            )
            workload = Trace("corpus", refs).as_workload(
                footprint_bytes=config.data_bytes
            )
            return system, workload, {"verify": True}

        cases.append({
            "name": f"corpus:{os.path.basename(path)}",
            "kind": "corpus",
            "build": build,
        })
    return cases


def sweep_cases(refs: int = 4000, quick: bool = False) -> list:
    """Pinned-seed scheme-sweep cells over the standard generators."""
    from repro.workloads import make_workload

    grid = [
        ("gcc", (), {"footprint_bytes": 2 << 20}, "baseline", 0, 2021),
        ("gcc", (), {"footprint_bytes": 2 << 20}, "sac", 513, 2021),
        ("ubench", (128,), {"footprint_bytes": 8 << 20}, "src", 0, 7),
        ("mcf", (), {"footprint_bytes": 8 << 20}, "sac", 0, 11),
        ("ctree", (), {"footprint_bytes": 8 << 20}, "src", 257, 3),
        ("lbm", (), {"footprint_bytes": 8 << 20}, "baseline", 0, 5),
        ("milc", (), {"footprint_bytes": 8 << 20}, "src", 129, 13),
        ("hashmap", (), {"footprint_bytes": 8 << 20}, "sac", 0, 17),
    ]
    if quick:
        grid = grid[:4]
    cases = []
    for name, args, kwargs, scheme, warmup, seed in grid:
        spec = (name, args, {**kwargs, "num_refs": refs})

        def build(spec=spec, scheme=scheme, warmup=warmup, seed=seed):
            system = SecureSystem(
                scheme=scheme,
                config=SystemConfig.scaled(memory_mb=32),
                rng=np.random.default_rng(seed),
            )
            workload = make_workload(spec, seed=seed + 1)
            return system, workload, {"warmup_refs": warmup}

        label = f"{name}{''.join(str(a) for a in args)}"
        cases.append({
            "name": f"sweep:{label}/{scheme}/warmup{warmup}",
            "kind": "sweep",
            "build": build,
        })
    return cases


def chaos_cases(refs: int = 4000) -> list:
    """Fault-injection runs through the per-op trace event.

    The injector is polled from the tracer's ``"op"`` event, which the
    engine emits per post-warmup reference, so corruption
    lands at pinned op indices; the engine must then reproduce every
    downstream consequence the fixture recorded (repairs, quarantines,
    or the same typed error at the same op).
    """
    from repro.faults.injector import FaultInjector
    from repro.workloads import make_workload

    grid = [
        ("counter-faults", ("counter",), "src", 19),
        ("tree-faults", ("tree",), "sac", 23),
    ]
    cases = []
    for label, targets, scheme, seed in grid:
        def build(targets=targets, scheme=scheme, seed=seed):
            system = SecureSystem(
                scheme=scheme,
                config=SystemConfig.scaled(memory_mb=32),
                functional_crypto=True,
                rng=np.random.default_rng(seed),
            )
            injector = FaultInjector(
                system.controller, targets=targets, seed=seed,
                num_faults=6, horizon_ops=refs, mode="direct",
            )
            workload = make_workload(
                ("gcc", (), {"footprint_bytes": 2 << 20,
                             "num_refs": refs}),
                seed=seed + 1,
            )
            system.tracer.subscribe(
                "op", lambda event: injector.poll(event.index)
            )
            return system, workload, {}

        cases.append({
            "name": f"chaos:{label}/{scheme}",
            "kind": "chaos",
            "build": build,
        })
    return cases


# ----------------------------------------------------------------------
# the suite


def run_engine_diff(corpus_dir: str = "tests/corpus", refs: int = None,
                    quick: bool = False, progress=None,
                    fixture: str = DEFAULT_FIXTURE,
                    record: bool = False) -> dict:
    """Run the replay suite; returns the report payload.

    ``identical`` is the headline verdict: True iff *every* case —
    corpus, sweep, and chaos — reproduced its pinned observation
    bit-for-bit.  ``refs=None`` defers to the fixture's pinned trace
    length; an explicit mismatching ``refs`` is refused (the traces
    would legitimately differ and every case would "fail").

    ``record=True`` re-pins the fixture instead of comparing — the
    sanctioned path for intentional behavior changes; the fixture diff
    is reviewed like any golden file.
    """
    if record:
        refs = refs or 4000
    else:
        pinned = load_fixture(fixture, REPLAY_SCHEMA)
        pinned_refs = pinned.get("refs", 4000)
        if refs is not None and refs != pinned_refs:
            raise ValueError(
                f"refs={refs} but the fixture is pinned at "
                f"refs={pinned_refs}; omit --refs to replay at the pinned "
                "length, or re-pin with --record"
            )
        refs = pinned_refs
    cases = (
        corpus_cases(corpus_dir)
        + sweep_cases(refs=refs, quick=quick)
        + chaos_cases(refs=refs)
    )
    rows = []
    observations = {}
    for case in cases:
        if record:
            observed = observations[case["name"]] = _observe(case["build"])
            row = _row(case, [], observed)
        else:
            row = run_case(case, pinned["cases"].get(case["name"]))
        rows.append(row)
        if progress is not None:
            progress(row)
    if record:
        write_fixture(fixture, {
            "schema": REPLAY_SCHEMA,
            "refs": refs,
            "corpus_tile": CORPUS_TILE,
            "cases": observations,
        })
    return replay_report(ENGINE_DIFF_SCHEMA, fixture, rows, record)
