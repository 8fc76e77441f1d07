"""Replay prover: the Monte-Carlo core vs its pinned behavior corpus.

The vectorized Monte-Carlo core (:mod:`repro.faults.mc`) was developed
as a bit-identical replacement for a scalar reference engine (the same
counter-based RNG driving an object model of faults, ECC classes and
inclusion-exclusion union).  That engine and its object model are
deleted; ``mc._candidates`` is the one ECC evaluator left, and the
live fault injector and ``monte_carlo_udr`` use it too.  The committed
replay fixture
(``tests/fixtures/mc_replay.json``, schema ``mc_replay/v1``) was
recorded by the live vector-vs-scalar prover with every case
identical; it is the contract the core is held to, layer by layer, so
a mismatch localizes the drift:

* **rng** — SplitMix64 probe words, derived stream keys, and digests of
  keyed draw streams;
* **sampler** — a sha256 of every array of a sampled
  :class:`~repro.faults.mc.FaultBatch`;
* **trial** — per-trial ``u_total``/``per_rank``/``weight`` digests and
  the multiset of >14-region additive fallback events;
* **result** — every :class:`~repro.faults.faultsim.FaultSimResult`
  float of ``FaultSimulator.run``, as its exact repr;
* **importance** — the trial layer under a biased class distribution,
  which pins the likelihood-ratio weights;
* **batching** — a live self-consistency check with no fixture entry:
  ragged chunkings of a trial range equal one contiguous run.

The corpus pins seeds, every ECC model, a degenerate geometry, and a
fault-count bucket that exercises the additive union fallback.
``repro mc-diff`` replays it from the shell; ``repro mc-diff --record``
re-pins it after an intentional behavior change (review the fixture
diff like any golden file).
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import asdict

import numpy as np

from repro.faults import mc
from repro.faults.config import FaultSimConfig
from repro.faults.faultsim import FaultSimulator
from repro.memory.geometry import DimmGeometry
from repro.verify.replay_fixture import (
    load_fixture,
    replay_report,
    write_fixture,
)

#: Schema stamp for :func:`run_mc_diff` payloads.
MC_DIFF_SCHEMA = "mc_diff/v2"

#: Schema stamp for the committed replay fixture.
REPLAY_SCHEMA = "mc_replay/v1"

#: Where the pinned behavior corpus lives (repo-relative).
DEFAULT_FIXTURE = os.path.join("tests", "fixtures", "mc_replay.json")

#: Trials per trial/batching case the fixture is recorded at; the
#: other layers derive their sizes from it (see :func:`build_cases`).
DEFAULT_TRIALS = 1500


def _row(name: str, kind: str, mismatched: list) -> dict:
    return {
        "name": name,
        "kind": kind,
        "identical": not mismatched,
        "mismatched": mismatched,
    }


# ----------------------------------------------------------------------
# pinned corpus


def _tiny_geometry() -> DimmGeometry:
    """A degenerate DIMM where fault extents collide constantly."""
    return DimmGeometry(
        chips=8, chips_per_rank=4, ranks=2, banks=2, rows=4, cols=256
    )


def diff_configs() -> list:
    """The pinned (name, config, k-buckets) corpus."""
    return [
        (
            "chipkill/hopper",
            FaultSimConfig(fit_per_device=80, trials=4000, seed=3),
            (2, 5, 8),
        ),
        (
            "chipkill2/hopper",
            FaultSimConfig(
                fit_per_device=80, trials=4000, seed=11, repair="chipkill2"
            ),
            (3, 8),
        ),
        (
            "secded/hopper",
            FaultSimConfig(
                fit_per_device=40, trials=4000, seed=7, repair="secded"
            ),
            (1, 4, 8),
        ),
        (
            "none/hopper",
            FaultSimConfig(
                fit_per_device=40, trials=4000, seed=9, repair="none"
            ),
            (1, 8),
        ),
        (
            "secded/bit-word",
            FaultSimConfig(
                fit_per_device=40,
                trials=4000,
                seed=13,
                repair="secded",
                relative_rates={"bit": 0.5, "word": 0.5},
            ),
            (1, 2),
        ),
        (
            "chipkill/tiny-geometry",
            FaultSimConfig(
                geometry=_tiny_geometry(),
                fit_per_device=200,
                trials=4000,
                seed=5,
            ),
            (2, 8),
        ),
        (
            "secded/tiny-geometry",
            FaultSimConfig(
                geometry=_tiny_geometry(),
                fit_per_device=200,
                trials=4000,
                seed=17,
                repair="secded",
            ),
            (4, 8),
        ),
    ]


# ----------------------------------------------------------------------
# observations


def _sha256(*arrays) -> str:
    """Digest of arrays' dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _exact(value):
    """JSON-able copy with every float spelled as its exact repr."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(key): _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


_RNG_PROBES = (0, 1, 2021, 1 << 32, (1 << 63) + 12345, (1 << 64) - 1)
_RNG_KEYS = ((2021, 2, 0, mc.F_CLASS), (3, 8, 7, mc.F_ROW),
             (17, 5, 3, mc.F_NBANK_SCORE, 63))
_BATCH_FIELDS = ("class_index", "rank", "chip", "bank_mask", "row",
                 "group", "multibit", "weight")


def observe_rng() -> dict:
    """SplitMix64 words, stream keys, and 512-word draw digests."""
    words = mc.mix64_array(np.array(_RNG_PROBES, dtype=np.uint64))
    trials = np.arange(0, 512, dtype=np.uint64)
    return {
        "mix64": [f"{int(word):#018x}" for word in words],
        "stream_keys": [
            f"{mc.stream_key(*parts):#018x}" for parts in _RNG_KEYS
        ],
        "draws": [
            _sha256(mc.draw_array(mc.stream_key(*parts), trials))
            for parts in _RNG_KEYS
        ],
    }


def observe_sampler(config, k, trials: int) -> dict:
    batch = mc.sample_batch(config, k, 0, trials)
    return {
        "batch_sha256": _sha256(
            *(getattr(batch, name) for name in _BATCH_FIELDS)
        )
    }


def observe_trial(config, k, trials: int, q=None) -> dict:
    """Per-trial DUE integers, weights, and fallback events."""
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u_total, per_rank, weight = mc.batch_outputs(
            config, k, 0, trials, q=q, on_approximation=events.append
        )
    return {
        "u_total": _sha256(u_total),
        "per_rank": _sha256(per_rank),
        "weight": _sha256(weight),
        "approximations": sorted(events),
    }


def observe_result(config, trials_per_k: int) -> dict:
    """Every ``FaultSimResult`` field except the input config."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = asdict(FaultSimulator(config).run(trials_per_k=trials_per_k))
    del result["config"]
    return _exact(result)


def check_batching(config, k, trials: int) -> list:
    """Chunkings whose stitched outputs differ from one contiguous run."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        whole = mc.batch_outputs(config, k, 0, trials)
        mismatched = []
        for split_name, raw_edges in (
            ("thirds", [0, trials // 3, 2 * trials // 3, trials]),
            ("ragged", [0, 1, 38, 39, 293, trials]),
        ):
            edges = sorted({min(edge, trials) for edge in raw_edges})
            parts = [
                mc.batch_outputs(config, k, lo, hi - lo)
                for lo, hi in zip(edges, edges[1:])
                if hi > lo
            ]
            stitched = tuple(
                np.concatenate([p[i] for p in parts]) for i in range(3)
            )
            if not all(
                np.array_equal(whole[i], stitched[i]) for i in range(3)
            ):
                mismatched.append(split_name)
    return mismatched


def build_cases(trials: int = DEFAULT_TRIALS, quick: bool = False) -> list:
    """The corpus as ``{"name", "kind", "observe"}`` cases.

    ``observe()`` returns the case's pinned observation, except for
    ``batching`` cases, whose ``observe()`` returns the list of
    mismatched chunkings (a live check with no fixture entry).
    """
    corpus = diff_configs()
    if quick:
        corpus = corpus[:3]
    sampler_trials = min(trials, 400)
    small_trials = min(trials, 800)
    cases = [{"name": "rng:splitmix64", "kind": "rng",
              "observe": observe_rng}]

    def add(name, kind, observe, *args, **kwargs):
        cases.append({
            "name": name,
            "kind": kind,
            "observe": lambda: observe(*args, **kwargs),
        })

    for name, config, ks in corpus:
        for k in ks:
            add(f"sampler:{name}/k{k}", "sampler", observe_sampler,
                config, k, sampler_trials)
            add(f"trial:{name}/k{k}", "trial", observe_trial,
                config, k, trials)
        add(f"result:{name}", "result", observe_result, config,
            small_trials)
        add(f"batching:{name}/k{ks[-1]}", "batching", check_batching,
            config, ks[-1], trials)
        q = mc.importance_distribution(config.relative_rates, tilt=0.6)
        add(f"trial:{name}/k{ks[-1]}/importance", "trial", observe_trial,
            config, ks[-1], small_trials, q=q)
    return cases


def run_case(case: dict, pinned) -> dict:
    """Run one case and diff it against its pinned observation.

    ``pinned`` is the fixture entry for this case, or ``None`` when the
    fixture has never recorded it (a new case ⇒ re-pin with
    ``--record``).  Batching cases ignore ``pinned``.
    """
    observed = case["observe"]()
    if case["kind"] == "batching":
        mismatched = observed
    elif pinned is None:
        mismatched = ["missing-from-fixture"]
    else:
        mismatched = [
            key for key in observed if observed[key] != pinned.get(key)
        ]
    return _row(case["name"], case["kind"], mismatched)


# ----------------------------------------------------------------------
# the suite


def run_mc_diff(quick: bool = False, progress=None,
                fixture: str = DEFAULT_FIXTURE, record: bool = False) -> dict:
    """Replay the corpus against the fixture; returns the report.

    ``identical`` is the headline verdict: True iff every case matched
    its pinned observation and every batching check held.

    ``record=True`` re-pins the fixture (at :data:`DEFAULT_TRIALS`)
    from the current core instead of comparing — the sanctioned path
    for intentional behavior changes.  The fixture is written only if
    every batching check holds; ``quick`` records the quick subset.
    """
    if record:
        pinned = {"trials": DEFAULT_TRIALS, "cases": {}}
    else:
        pinned = load_fixture(fixture, REPLAY_SCHEMA)
    rows = []
    observations = {}
    for case in build_cases(pinned["trials"], quick=quick):
        if record and case["kind"] != "batching":
            observations[case["name"]] = case["observe"]()
            row = _row(case["name"], case["kind"], [])
        else:
            row = run_case(case, pinned["cases"].get(case["name"]))
        rows.append(row)
        if progress is not None:
            progress(row)
    recorded = record and all(row["identical"] for row in rows)
    if recorded:
        write_fixture(fixture, {
            "schema": REPLAY_SCHEMA,
            "trials": DEFAULT_TRIALS,
            "cases": observations,
        })
    return replay_report(MC_DIFF_SCHEMA, fixture, rows, recorded)
