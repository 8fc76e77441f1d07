"""Cross-scheme study: performance, crash-recovery time, UDR.

``repro compare-schemes`` runs every registered scheme through the same
three instruments and emits one ``scheme_study/v1`` report:

* **performance** — one seeded timing-simulator run per scheme on a
  shared write-heavy workload; slowdown and write overhead are reported
  against the registered reference scheme (Figure 10 style);
* **crash recovery** — one seeded write/read stream per scheme, power
  cut at the end, the scheme's own recovery procedure, and a full audit
  of every written block.  Recovery *time* is a deterministic proxy —
  the NVM read/write traffic recovery issued, priced at the device's
  PCM latencies — so reports are bit-stable across machines;
* **UDR** — the paper's resilience metric from the scheme's clone-depth
  map at a fixed per-block uncorrectability probability, plus (by
  default) an **empirical** UDR column with 95% CI half-widths from one
  shared streaming Monte-Carlo campaign (:mod:`repro.faults.mc`) at a
  fast FIT point — the analytic number is checked to land inside each
  scheme's empirical interval.

Everything here imports the simulator lazily: this module is re-exported
from :mod:`repro.schemes`, which :mod:`repro.core` imports at package
init, and eager ``repro.sim`` imports would close that cycle.
"""

from __future__ import annotations

from dataclasses import asdict

KB = 1024
MB = 1024 * KB

#: Schema stamp for :func:`run_scheme_study` payloads.
SCHEME_STUDY_SCHEMA = "scheme_study/v1"

#: Default study workload: the write-heavy hashmap cell (clone and
#: persist-policy traffic is invisible on a read-dominated stream).
STUDY_WORKLOAD = ("hashmap", (), {"footprint_bytes": 2 * MB,
                                  "num_refs": 4000})


def _scheme_registry_row(scheme, data_bytes: int) -> dict:
    """The registry-derived facts about one scheme (no simulation)."""
    return {
        "description": scheme.description,
        "aliases": list(scheme.aliases),
        "builtin": scheme.builtin,
        "is_reference": scheme.is_reference,
        "clone_policy": scheme.clone_policy().name,
        "clone_depths": {
            str(level): depth
            for level, depth in sorted(scheme.depths_for(data_bytes).items())
        },
        "update_policy": scheme.update_policy or "lazy",
        "integrity_mode": scheme.integrity_mode or "toc",
        "persist_levels": scheme.persist_levels,
        "persist_batch": scheme.persist_batch,
        "recovery_procedure": scheme.recovery_procedure(),
    }


def _run_recovery(scheme, data_bytes: int, cache_bytes: int, ops: int,
                  write_fraction: float, seed: int) -> dict:
    """Crash one seeded stream under ``scheme`` and audit its recovery.

    The recovery-time proxy is the NVM traffic the procedure issued
    (reads/writes against the crash image's device), priced at the
    device's latencies — deterministic, unlike wall clock.
    """
    import numpy as np

    from repro.controller import SecureMemoryError
    from repro.recovery import recover_image, recovery_procedure_for
    from repro.verify.audit import audit_mirror, drive_first_touch

    ctrl = scheme.build(
        data_bytes,
        metadata_cache_bytes=cache_bytes,
        functional_crypto=True,
        rng=np.random.default_rng(seed + 7),
    )
    mirror = drive_first_touch(ctrl, np.random.default_rng(seed + 13), ops,
                               write_fraction)

    image = ctrl.crash()
    nvm = image.nvm
    reads_before, writes_before = nvm.read_count, nvm.write_count
    procedure = recovery_procedure_for(image)
    row = {
        "procedure": procedure,
        "ops": ops,
        "blocks_written": len(mirror),
    }
    try:
        recovered_ctrl, _report = recover_image(image)
    except SecureMemoryError as exc:
        row.update({
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "recovered": 0,
            "reported_lost": len(mirror),
        })
        return row
    nvm_reads = nvm.read_count - reads_before
    nvm_writes = nvm.write_count - writes_before
    audit, violations = audit_mirror(recovered_ctrl, mirror)
    recovered = audit["intact"]
    lost = audit["data_due"] + audit["unverifiable"] + audit["quarantined"]
    silent = len(violations)
    row.update({
        "nvm_reads": nvm_reads,
        "nvm_writes": nvm_writes,
        "recovery_ns": nvm_reads * nvm.read_ns + nvm_writes * nvm.write_ns,
        "recovered": recovered,
        "reported_lost": lost,
        "silent_corruption": silent,
        # A clean power cut (no injected faults) must lose nothing.
        "ok": silent == 0 and lost == 0 and recovered == len(mirror),
    })
    return row


def run_scheme_study(
    schemes=None,
    memory_mb: int = 16,
    workload=STUDY_WORKLOAD,
    crash_data_kb: int = 32,
    crash_cache_kb: int = 2,
    crash_ops: int = 160,
    write_fraction: float = 0.55,
    p_block_due: float = 1e-4,
    seed: int = 2021,
    progress=None,
    empirical: bool = True,
    empirical_trials: int = 12_000,
    empirical_fit: float = 80.0,
    store=None,
    queue=None,
    lease_ttl: float = None,
) -> dict:
    """Run the full study; returns the ``scheme_study/v1`` payload.

    ``schemes`` defaults to every registered scheme.  The registered
    reference scheme is always included (overheads and resilience
    ratios are measured against it).

    With ``empirical`` (the default) one shared importance-sampled MC
    campaign at ``empirical_fit`` FIT/device adds per-scheme empirical
    UDR estimates with CI half-widths (``empirical`` block +
    ``udr.empirical`` per scheme; additive to the schema).

    ``store``/``queue``/``lease_ttl`` arm the fleet substrate for the
    empirical MC campaign (the study's dominant cost): its batches are
    served from / published to the shared content-addressed ``store``,
    and with ``queue`` the per-wave batch grids are published under
    ``<queue>/mc`` for ``repro fleet worker --follow`` processes.
    """
    from repro.analysis import compute_udr
    from repro.schemes.base import (
        reference_scheme,
        resolve_scheme,
        scheme_names,
    )
    from repro.sim import SystemConfig, run_schemes

    reference = reference_scheme()
    names = list(schemes) if schemes else list(scheme_names())
    resolved = {}
    for name in names:
        scheme = resolve_scheme(name)
        resolved.setdefault(scheme.name, scheme)
    resolved.setdefault(reference.name, reference)
    order = [n for n in scheme_names() if n in resolved]

    data_bytes = memory_mb * MB
    if progress is not None:
        progress(f"performance: {len(order)} schemes x 1 workload")
    perf = run_schemes(workload, schemes=order,
                       config=SystemConfig.scaled(memory_mb=memory_mb),
                       seed=seed)
    ref_result = perf[reference.name]

    rows = {}
    ok = True
    for name in order:
        scheme = resolved[name]
        if progress is not None:
            progress(f"crash recovery: {name} "
                     f"({scheme.recovery_procedure()})")
        recovery = _run_recovery(
            scheme, crash_data_kb * KB, crash_cache_kb * KB,
            crash_ops, write_fraction, seed,
        )
        udr = compute_udr(
            p_block_due,
            data_bytes,
            clone_depths=scheme.depths_for(data_bytes),
            scheme=name,
        )
        ref_udr = compute_udr(
            p_block_due,
            data_bytes,
            clone_depths=reference.depths_for(data_bytes),
            scheme=reference.name,
        )
        result = perf[name]
        rows[name] = {
            **_scheme_registry_row(scheme, data_bytes),
            "performance": {
                "exec_time_ns": result.exec_time_ns,
                "nvm_reads": result.nvm_reads,
                "nvm_writes": result.nvm_writes,
                "slowdown_vs_reference": result.slowdown_vs(ref_result),
                "write_overhead_vs_reference":
                    result.write_overhead_vs(ref_result),
                "result": asdict(result),
            },
            "recovery": recovery,
            "udr": {
                "p_block_due": p_block_due,
                "udr": udr.udr,
                "unverifiable_bytes": udr.unverifiable_bytes,
                "resilience_vs_reference": udr.resilience_vs(ref_udr),
            },
        }
        ok = ok and recovery["ok"]

    empirical_block = None
    if empirical:
        from repro.faults import (
            importance_distribution,
            mc_report,
            run_mc_campaign,
        )
        from repro.faults.config import FaultSimConfig

        if progress is not None:
            progress(f"empirical UDR: shared MC campaign at "
                     f"{empirical_fit:g} FIT, {empirical_trials} trials")
        mc_config = FaultSimConfig(
            fit_per_device=empirical_fit,
            trials=empirical_trials,
            seed=seed,
        )
        import os as _os

        campaign = run_mc_campaign(
            mc_config,
            trials=empirical_trials,
            batch_trials=max(256, empirical_trials // 6),
            importance=importance_distribution(mc_config.relative_rates),
            schemes=order,
            data_bytes=data_bytes,
            store=store,
            queue=(_os.path.join(_os.fspath(queue), "mc")
                   if queue is not None else None),
            lease_ttl=lease_ttl,
        )
        empirical_block = mc_report(campaign)
        for name in order:
            rows[name]["udr"]["empirical"] = empirical_block["schemes"][name]

    return {
        "schema": SCHEME_STUDY_SCHEMA,
        "kind": "scheme_study",
        "seed": seed,
        "reference": reference.name,
        "workload": list(workload[:2]) + [dict(workload[2])],
        "memory_mb": memory_mb,
        "crash": {
            "data_kb": crash_data_kb,
            "cache_kb": crash_cache_kb,
            "ops": crash_ops,
            "write_fraction": write_fraction,
        },
        "p_block_due": p_block_due,
        "schemes": rows,
        "empirical": empirical_block,
        "ok": ok,
    }


#: CSV header for :func:`study_report` rows (the per-scheme figure).
#: The two empirical columns appear only when the study ran the MC
#: campaign (the default).
STUDY_CSV_HEADER = (
    "scheme", "slowdown_vs_reference", "write_overhead_vs_reference",
    "recovery_ns", "recovery_ok", "udr", "resilience_vs_reference",
    "empirical_udr", "empirical_ci_half_width",
)


def study_report(study: dict) -> list:
    """Figure rows (one per scheme) from a ``scheme_study/v1`` payload:
    performance overhead, crash-recovery time, and UDR side by side
    (plus the empirical-UDR column with its CI half-width when the
    study ran the MC campaign)."""
    rows = []
    for name, row in study["schemes"].items():
        base = (
            name,
            row["performance"]["slowdown_vs_reference"],
            row["performance"]["write_overhead_vs_reference"],
            row["recovery"].get("recovery_ns"),
            row["recovery"]["ok"],
            row["udr"]["udr"],
            row["udr"]["resilience_vs_reference"],
        )
        empirical = row["udr"].get("empirical")
        if empirical is not None:
            base += (empirical["udr"], empirical["half_width"])
        rows.append(base)
    return rows
