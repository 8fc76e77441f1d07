"""Reusable experiment drivers for every figure in the paper.

The benchmark suite, the CLI (``python -m repro figures``), and any
downstream script all run the *same* experiment code from here; the
benches add assertions, the CLI adds CSV export.

Each ``run_*``/``fig*_rows`` function is pure given its arguments and a
seed, so results are reproducible artifact-to-artifact.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.analysis import (
    compare_schemes,
    expected_loss,
    figure12_table,
    geometric_mean,
)
from repro.faults import FaultSimConfig, FaultSimulator, mtbf_hours
from repro.schemes import PAPER_SCHEMES
from repro.sim import SystemConfig, run_schemes
from repro.workloads import standard_suite_specs

TB = 1 << 40
MB = 1 << 20

SCHEMES = PAPER_SCHEMES
FIT_SWEEP = (1, 5, 10, 20, 40, 80)


# ---------------------------------------------------------------------------
# campaign drivers
# ---------------------------------------------------------------------------

def run_perf_campaign(
    memory_mb: int = 32,
    footprint_bytes: int = 8 * MB,
    num_refs: int = 20_000,
    schemes=SCHEMES,
):
    """Run the full workload suite under every scheme.

    Returns {workload: {scheme: SimResult}} — the raw material for
    Figures 4, 10a, 10b, and 10c.
    """
    config = SystemConfig.scaled(memory_mb=memory_mb)
    campaign = {}
    for spec in standard_suite_specs(
        footprint_bytes=footprint_bytes, num_refs=num_refs
    ):
        results = run_schemes(spec, schemes=schemes, config=config)
        campaign[results[schemes[0]].workload] = results
    return campaign


def run_fault_sweep(
    fits=FIT_SWEEP,
    trials: int = 40_000,
    trials_per_k: int = 5_000,
    seed: int = 2021,
    repair: str = "chipkill",
):
    """FaultSim campaign across a FIT range: {fit: FaultSimResult}."""
    sweep = {}
    for fit in fits:
        sim = FaultSimulator(
            FaultSimConfig(
                fit_per_device=fit, trials=trials, seed=seed, repair=repair
            )
        )
        sweep[fit] = sim.run(trials_per_k=trials_per_k)
    return sweep


# ---------------------------------------------------------------------------
# figure row generators
# ---------------------------------------------------------------------------

def fig3_rows(data_bytes: int = 4 * TB, error_counts=(1, 2, 4, 8, 16, 32)):
    """Figure 3: (errors, non-secure bytes, secure bytes, ratio)."""
    rows = []
    for count in error_counts:
        plain = expected_loss(data_bytes, count, secure=False)
        secure = expected_loss(data_bytes, count, secure=True)
        rows.append((count, plain, secure, secure / plain))
    return rows


def fig4_rows(campaign):
    """Figure 4: (level, evictions, share) aggregated over the suite."""
    totals = {}
    for results in campaign.values():
        for level, count in results["baseline"].evictions_by_level.items():
            if level >= 1:
                totals[level] = totals.get(level, 0) + count
    grand_total = sum(totals.values()) or 1
    return [
        (level, totals[level], totals[level] / grand_total)
        for level in sorted(totals)
    ]


def fig10a_rows(campaign):
    """Figure 10a: (workload, src slowdown, sac slowdown)."""
    return [
        (
            workload,
            results["src"].slowdown_vs(results["baseline"]),
            results["sac"].slowdown_vs(results["baseline"]),
        )
        for workload, results in campaign.items()
    ]


def fig10b_rows(campaign):
    """Figure 10b: (workload, src write ovh, sac write ovh, src clones)."""
    return [
        (
            workload,
            results["src"].write_overhead_vs(results["baseline"]),
            results["sac"].write_overhead_vs(results["baseline"]),
            results["src"].writes_by_kind.get("clone", 0),
        )
        for workload, results in campaign.items()
    ]


def fig10c_rows(campaign):
    """Figure 10c: (workload, evictions/request, metadata miss rate)."""
    return [
        (
            workload,
            results["baseline"].evictions_per_request,
            results["baseline"].metadata_miss_rate,
        )
        for workload, results in campaign.items()
    ]


def fig11_rows(sweep, data_bytes: int = TB):
    """Figure 11: (fit, baseline UDR, src UDR, sac UDR)."""
    rows = []
    for fit in sorted(sweep):
        result = sweep[fit]
        udr = compare_schemes(
            result.p_block_due, data_bytes,
            p_multi_due=result.p_multi_due_cross,
        )
        rows.append(
            (fit, udr["baseline"].udr, udr["src"].udr, udr["sac"].udr)
        )
    return rows


def fig11_gmean_gains(rows):
    """Geometric-mean resilience gains (SRC, SAC) from fig11 rows."""
    src_gains = [b / s for _, b, s, _ in rows if s > 0]
    sac_gains = [b / a for _, b, _, a in rows if a > 0]
    return geometric_mean(src_gains), geometric_mean(sac_gains)


def fig12_rows(fault_result, data_bytes: int = 8 * TB):
    """Figure 12: (scheme, L_error, L_unverifiable, L_total, inflation)."""
    table = figure12_table(fault_result.p_block_due, data_bytes)
    return [
        (
            scheme,
            d.l_error_bytes,
            d.l_unverifiable_bytes,
            d.l_total_bytes,
            d.inflation,
        )
        for scheme, d in table.items()
    ]


def mtbf_rows(fits=FIT_SWEEP):
    """Section 4 calibration: (fit, MTBF hours)."""
    return [(fit, mtbf_hours(fit)) for fit in fits]


def mc_trajectory_rows(fit: float = 80.0, batch_trials: int = 2_000,
                       max_waves: int = 6, seed: int = 2021):
    """CI-vs-trials convergence of the streaming MC estimator:
    (wave, trials, p_block_due, half_width, due_probability)."""
    from repro.faults import importance_distribution, run_mc_campaign

    config = FaultSimConfig(fit_per_device=fit, seed=seed)
    result = run_mc_campaign(
        config,
        batch_trials=batch_trials,
        max_waves=max_waves,
        importance=importance_distribution(config.relative_rates),
        schemes=(),
    )
    return [
        (
            point["wave"],
            point["trials"],
            point["p_block_due"],
            point["half_width"],
            point["due_probability"],
        )
        for point in result.trajectory
    ]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_csv(path, header, rows) -> None:
    """Durably publish one figure CSV (atomic tmp+fsync+rename)."""
    import io

    from repro.runtime import atomic_write_text

    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def run_all(outdir, quick: bool = True, echo=print) -> dict:
    """Regenerate every figure into ``outdir`` as CSV files.

    ``quick`` shrinks trial counts for interactive use; the benchmark
    suite runs the full-size equivalents.  Returns {figure: rows}.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    produced = {}

    echo("fig3: expected loss (analytic)")
    rows = fig3_rows()
    export_csv(outdir / "fig03_expected_loss.csv",
               ["errors", "non_secure_bytes", "secure_bytes", "ratio"], rows)
    produced["fig3"] = rows

    echo("fig4/fig10: performance campaign (this is the slow part)")
    campaign = run_perf_campaign(
        num_refs=6_000 if quick else 20_000
    )
    for name, rows, header in (
        ("fig04_eviction_levels", fig4_rows(campaign),
         ["level", "evictions", "share"]),
        ("fig10a_performance", fig10a_rows(campaign),
         ["workload", "src_slowdown", "sac_slowdown"]),
        ("fig10b_writes", fig10b_rows(campaign),
         ["workload", "src_write_overhead", "sac_write_overhead",
          "src_clone_writes"]),
        ("fig10c_evictions", fig10c_rows(campaign),
         ["workload", "evictions_per_request", "metadata_miss_rate"]),
    ):
        export_csv(outdir / f"{name}.csv", header, rows)
        produced[name] = rows

    echo("fig11/fig12: fault simulation sweep")
    sweep = run_fault_sweep(
        trials=8_000 if quick else 40_000,
        trials_per_k=1_000 if quick else 5_000,
    )
    rows = fig11_rows(sweep)
    export_csv(outdir / "fig11_udr.csv",
               ["fit", "baseline_udr", "src_udr", "sac_udr"], rows)
    produced["fig11"] = rows
    rows = fig12_rows(sweep[max(sweep)])
    export_csv(outdir / "fig12_loss_8tb.csv",
               ["scheme", "l_error", "l_unverifiable", "l_total",
                "inflation"], rows)
    produced["fig12"] = rows

    rows = mtbf_rows()
    export_csv(outdir / "mtbf_calibration.csv", ["fit", "mtbf_hours"], rows)
    produced["mtbf"] = rows

    echo("mc trajectory: streaming-estimator CI vs trials")
    rows = mc_trajectory_rows(
        batch_trials=500 if quick else 2_000,
        max_waves=4 if quick else 6,
    )
    export_csv(outdir / "mc_ci_trajectory.csv",
               ["wave", "trials", "p_block_due", "half_width",
                "due_probability"], rows)
    produced["mc_trajectory"] = rows

    echo("scheme study: every registered scheme "
         "(perf / recovery / UDR)")
    from repro.schemes import (
        STUDY_CSV_HEADER,
        run_scheme_study,
        study_report,
    )

    study = run_scheme_study(
        workload=("hashmap", (), {
            "footprint_bytes": 2 * MB,
            "num_refs": 2_000 if quick else 4_000,
        }),
        empirical_trials=6_000 if quick else 12_000,
    )
    rows = study_report(study)
    export_csv(outdir / "scheme_study.csv", list(STUDY_CSV_HEADER), rows)
    produced["scheme_study"] = rows

    echo(f"wrote {len(produced)} figure CSVs to {outdir}")
    return produced
