"""The benchmark's six workloads, driven through the public API only.

Each workload is a closed loop with one client: ``prepare`` makes the
inputs from the seed, ``build`` constructs one repetition's program
state, and ``run`` is the timed region.  Every repetition builds fresh
``SecureSystem``/campaign state, so the modelled caches start empty.

Seeds follow ``run_sim_cell``: the reference stream is seeded with
``seed + 1``, the controller rng with ``default_rng(seed)``, and
Monte-Carlo campaigns with ``FaultSimConfig(seed=seed)``.
``repro.figures.run_all`` takes no seed, so ``paper-figures`` is the
same program for every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SCHEMES = ("baseline", "src", "sac")
MIB = 1 << 20
KIB = 1 << 10


@dataclass
class Outcome:
    """What one repetition produced."""

    #: Canonical-JSON-able output; its sha256 is the correctness check.
    output: object
    #: Units of the workload's own work done (see ``Workload.unit``).
    work: int
    #: Values read off the program's outputs for the per-layer report.
    facts: dict = field(default_factory=dict)
    #: Non-empty when an internal consistency check failed.
    error: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: What ``work_per_s`` counts on this workload.
    unit: str
    prepare: Callable      # (seed, smoke) -> inputs
    build: Callable        # (inputs, workdir) -> state
    run: Callable          # state -> Outcome (the timed region)
    #: Optional (inputs, workdir) -> output computed another way; its
    #: digest must equal the repetitions' digest.
    reference: Callable = None


def canonical(value) -> str:
    """JSON with sorted keys and exact float reprs (dict keys become
    strings, tuples become lists), the form every digest is taken of."""
    return json.dumps(json.loads(json.dumps(value)), sort_keys=True,
                      separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# timing simulator: sim-read, sim-write, sim-resident
# ---------------------------------------------------------------------------

class ArrayTrace:
    """A pre-generated reference stream: the minimal object
    ``SecureSystem.run`` consumes (a name and three arrays)."""

    def __init__(self, name: str, arrays):
        self.name = name
        self.arrays = arrays

    def reference_arrays(self):
        return self.arrays


def trace_arrays(spec: tuple, seed: int) -> ArrayTrace:
    """Generate a workload's stream once, as int64/bool/int64 arrays."""
    from repro.workloads import make_workload

    workload = make_workload(spec, seed=seed + 1)
    arrays = workload.reference_arrays()
    if arrays is None:
        addresses, writes, gaps = zip(*workload.references())
        arrays = (np.array(addresses, dtype=np.int64),
                  np.array(writes, dtype=bool),
                  np.array(gaps, dtype=np.int64))
    return ArrayTrace(workload.name, arrays)


def sim_spec(factory: str, footprint: int, refs: int) -> tuple:
    return (factory, (), {"footprint_bytes": footprint, "num_refs": refs})


def _sim_workload(name, why, factory, footprint, refs, smoke_refs):
    def prepare(seed, smoke):
        from repro.sim import SystemConfig

        spec = sim_spec(factory, footprint, smoke_refs if smoke else refs)
        return spec, trace_arrays(spec, seed), SystemConfig.scaled(32), seed

    def build(inputs, workdir):
        from repro.sim.system import SecureSystem

        _, trace, config, seed = inputs
        systems = [
            SecureSystem(scheme=scheme, config=config,
                         rng=np.random.default_rng(seed))
            for scheme in SCHEMES
        ]
        return systems, trace

    def run(state):
        systems, trace = state
        results = {system.scheme: system.run(trace) for system in systems}
        base, sac = results["baseline"], results["sac"]
        refs_done = sum(r.memory_requests for r in results.values())
        expected = len(trace.arrays[0]) * len(SCHEMES)
        return Outcome(
            output={scheme: asdict(r) for scheme, r in results.items()},
            work=refs_done,
            facts={
                "model.nvm_reads": sac.nvm_reads,
                "model.nvm_writes": sac.nvm_writes,
                "model.clone_writes": sac.writes_by_kind.get("clone", 0),
                "model.metadata_miss_rate": sac.metadata_miss_rate,
                "model.exec_time_ns": sac.exec_time_ns,
                "model.sac_slowdown_pct": 100 * sac.slowdown_vs(base),
                "model.sac_write_overhead_pct":
                    100 * sac.write_overhead_vs(base),
            },
            error="" if refs_done == expected else
            f"simulated {refs_done} references, expected {expected}",
        )

    return Workload(name, why, "refs", prepare, build, run)


# ---------------------------------------------------------------------------
# Monte-Carlo reliability: mc-campaign, mc-resumable
# ---------------------------------------------------------------------------

def mc_output(result) -> dict:
    """The campaign's estimates: ``mc_report`` without the host-local
    ``runtime`` block."""
    from repro.faults import mc_report

    report = mc_report(result)
    report.pop("runtime")
    return report


def _mc_error(result, waves: int) -> str:
    """A failed or interrupted batch leaves its fault-count bucket
    short of one batch per wave."""
    short = [k for k, row in result.by_fault_count.items()
             if row["batches"] != waves]
    if result.interrupted or result.waves != waves or short:
        return (f"campaign incomplete: waves={result.waves}/{waves}, "
                f"short buckets={short}")
    return ""


def _mc_facts(result) -> dict:
    return {"model.sac_udr": result.schemes["sac"]["udr"],
            "faults.mc.approximated": result.approximated_ranks}


def _mc_config(seed):
    from repro.faults import FaultSimConfig

    return FaultSimConfig(fit_per_device=80.0, seed=seed, repair="chipkill")


def _campaign_prepare(seed, smoke):
    from repro.faults import importance_distribution

    config = _mc_config(seed)
    batch_trials, waves = (256, 1) if smoke else (4096, 4)
    return (config, importance_distribution(config.relative_rates),
            batch_trials, waves)


def _campaign_run(state):
    from repro.faults import run_mc_campaign

    config, importance, batch_trials, waves = state
    result = run_mc_campaign(config, batch_trials=batch_trials,
                             max_waves=waves, importance=importance)
    return Outcome(output=mc_output(result), work=result.total_trials,
                   facts=_mc_facts(result), error=_mc_error(result, waves))


def _resumable_prepare(seed, smoke):
    batch_trials, waves = (64, 4) if smoke else (256, 60)
    return _mc_config(seed), batch_trials, waves


def _resumable_campaign(config, batch_trials, waves, workdir=None,
                        resume=False, progress=None):
    from repro.faults import run_mc_campaign

    durable = {}
    if workdir is not None:
        durable = {"checkpoint": str(Path(workdir) / "checkpoint"),
                   "store": str(Path(workdir) / "store"), "resume": resume}
    return run_mc_campaign(config, batch_trials=batch_trials,
                           max_waves=waves, importance=None,
                           progress=progress, **durable)


def _resumable_run(state):
    """A cold checkpointed leg, then a ``resume=True`` leg that must
    serve every cell from disk and return the same estimates."""
    (config, batch_trials, waves), workdir = state
    cold = _resumable_campaign(config, batch_trials, waves, workdir)
    served = []
    warm = _resumable_campaign(
        config, batch_trials, waves, workdir, resume=True,
        progress=lambda p: served.append(p.resumed or p.reused))
    cold_output, warm_output = mc_output(cold), mc_output(warm)
    cells = len(warm.state.batches)
    error = _mc_error(cold, waves) or _mc_error(warm, waves)
    if not error and canonical(cold_output) != canonical(warm_output):
        error = "resumed campaign differs from the cold campaign"
    return Outcome(
        output=cold_output,
        work=len(cold.state.batches) + cells,
        facts={**_mc_facts(cold),
               "runtime.resume_served_ratio":
                   sum(served) / cells if cells else 0},
        error=error,
    )


def _resumable_reference(inputs, workdir):
    """The same campaign with no checkpoint and no store."""
    return mc_output(_resumable_campaign(*inputs))


# ---------------------------------------------------------------------------
# the whole paper: paper-figures
# ---------------------------------------------------------------------------

def _small_figures(outdir):
    """The figure drivers ``run_all`` calls, at sizes for a smoke run
    (``run_all`` has no size below ``quick``)."""
    from repro import figures

    campaign = figures.run_perf_campaign(footprint_bytes=MIB, num_refs=300)
    sweep = figures.run_fault_sweep(fits=(80,), trials=400, trials_per_k=50)
    return {
        "fig3": figures.fig3_rows(),
        "fig10a_performance": figures.fig10a_rows(campaign),
        "fig10b_writes": figures.fig10b_rows(campaign),
        "fig11": figures.fig11_rows(sweep),
        "mc_trajectory": figures.mc_trajectory_rows(batch_trials=64,
                                                    max_waves=1),
    }


def _figures_run(state):
    from repro import figures

    smoke, workdir = state
    if smoke:
        produced = _small_figures(workdir)
    else:
        produced = figures.run_all(workdir, quick=True, echo=lambda *_: None)
    return Outcome(output=produced, work=len(produced))


# ---------------------------------------------------------------------------
# the catalogue
# ---------------------------------------------------------------------------

WORKLOADS = (
    _sim_workload(
        "sim-read",
        "mcf pointer chase, 95% reads, 42% metadata misses: the controller "
        "read path (counter fetch chain, metadata cache, NVM reads)",
        "mcf", 8 * MIB, 20_000, 2_000),
    _sim_workload(
        "sim-write",
        "hashmap, 50% writes: counter increments, Osiris persists, shadow "
        "entries, clone writes and the WPQ on the same controller",
        "hashmap", 8 * MIB, 20_000, 2_000),
    _sim_workload(
        "sim-resident",
        "gcc with an L1-resident working set: engine loop and telemetry "
        "dominate and the controller is bypassed",
        "gcc", 512 * KIB, 400_000, 20_000),
    Workload(
        "mc-campaign",
        "importance-sampled chipkill campaign at FIT 80, 4 waves of "
        "4096-trial batches: Monte-Carlo sampling, ECC and region union",
        "trials", _campaign_prepare,
        lambda inputs, workdir: inputs, _campaign_run),
    Workload(
        "mc-resumable",
        "60 waves of 256-trial batches with checkpoint and store on disk, "
        "cold then resumed: the campaign runtime, journal and fsyncs",
        "cells", _resumable_prepare,
        lambda inputs, workdir: (inputs, workdir), _resumable_run,
        reference=_resumable_reference),
    Workload(
        "paper-figures",
        "repro.figures.run_all(quick=True): every figure of the paper, "
        "the user-level end-to-end run",
        "figures", lambda seed, smoke: smoke,
        lambda smoke, workdir: (smoke, workdir), _figures_run),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
