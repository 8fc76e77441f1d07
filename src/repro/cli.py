"""Command-line interface: ``python -m repro <command>``.

The main entry points:

* ``info``        — metadata layout and overheads for a memory size;
* ``perf``        — run workloads through the timing simulator and
  compare schemes (Figure 10 style);
* ``bench``       — pinned performance sweep with a cold-store overhead
  leg; emits ``BENCH_perf.json`` (the repo's perf trajectory);
* ``engine-diff`` — replay the vector engine against its pinned
  behavior fixture (corpus + pinned sweeps + chaos fault injection);
* ``mc-diff``     — replay the Monte-Carlo core against its pinned
  behavior fixture (RNG, sampler, trial evaluation, results, batching);
* ``reliability`` — fault simulation + UDR across FIT rates
  (Figure 11/12 style); ``--empirical``/``--target-ci`` switch to the
  streaming Monte-Carlo campaign with confidence intervals
  (``udr_mc/v1``), checkpointable and resumable at 1e8-trial scale;
* ``fleet``       — join (``worker``) or inspect (``status``) a
  multi-host campaign published with ``--queue``;
* ``crash-test``  — functional crash/recovery exercise with optional
  shadow-entry corruption.

``perf``, ``bench``, ``reliability``, and ``chaos`` accept ``--jobs N``
to fan independent sweep cells across worker processes; outputs are
bit-identical to ``--jobs 1`` (see ``repro.sim.sweep``).  The same
commands accept ``--store DIR`` (content-addressed result reuse) and
``--queue DIR`` (publish the campaign for ``repro fleet worker``
processes on other hosts to drain cooperatively).
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis import compare_schemes, figure12_table, level_inventory
from repro.core import make_controller
from repro.faults import FaultSimConfig, FaultSimulator, mtbf_hours
from repro.recovery import recover_image, recovery_procedure_for
from repro.runtime import (
    TooManyFailuresError,
    atomic_write_json,
    atomic_write_text,
)
from repro.schemes import (
    PAPER_SCHEMES,
    all_schemes,
    resolve_scheme,
    scheme_names,
)
from repro.sim import (
    SimCell,
    SweepEngine,
    SystemConfig,
    run_bench,
    sweep_report,
    write_bench,
)
from repro.workloads import make_workload, standard_suite_specs

KB = 1024
MB = 1024 * KB

#: Exit codes for long-running sweeps: a tripped ``--max-failures``
#: circuit breaker, and a graceful SIGINT/SIGTERM drain that salvaged
#: a partial (resumable) result.
EXIT_ABORTED = 2
EXIT_INTERRUPTED = 3


def _add_runtime_args(p) -> None:
    """The preemption-tolerance flags shared by the sweep commands."""
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="journal completed cells to DIR (checkpoint/v1) "
                        "so the sweep can be resumed after a kill")
    p.add_argument("--resume", metavar="DIR", default=None,
                   help="resume from DIR: skip journaled cells, keep "
                        "journaling new ones (merged results are "
                        "bit-identical to an uninterrupted run)")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECS",
                   help="hung-worker watchdog: kill and replace a worker "
                        "whose cell runs longer than SECS (needs --jobs 2+)")
    p.add_argument("--max-failures", type=int, default=None, metavar="N",
                   help="circuit breaker: abort the sweep after N "
                        "terminal cell failures")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="content-addressed result store (store/v1): "
                        "serve already-computed cells from DIR, publish "
                        "fresh ones into it (shareable across hosts)")
    p.add_argument("--queue", metavar="DIR", default=None,
                   help="fleet mode: publish the campaign into DIR "
                        "(queue/v1) and claim cells via fsync'd leases "
                        "so `repro fleet worker --queue DIR` processes "
                        "on other hosts drain it cooperatively")
    p.add_argument("--lease-ttl", type=float, default=None, metavar="SECS",
                   help="fleet lease time-to-live before a dead "
                        "worker's cell is reclaimed (default 60s)")


def _runtime_kwargs(args) -> dict:
    """SweepEngine kwargs from the shared runtime flags."""
    checkpoint = args.checkpoint
    resume = False
    if args.resume:
        if checkpoint and checkpoint != args.resume:
            raise SystemExit(
                "--checkpoint and --resume point at different directories; "
                "--resume already implies journaling into its directory"
            )
        checkpoint = args.resume
        resume = True
    kwargs = {
        "checkpoint": checkpoint,
        "resume": resume,
        "timeout": args.cell_timeout,
        "max_failures": args.max_failures,
        "store": args.store,
        "queue": args.queue,
    }
    # Only override the engine's default TTL when the flag was given —
    # the campaign-level helpers treat None as "use the default".
    if args.lease_ttl is not None:
        kwargs["lease_ttl"] = args.lease_ttl
    return kwargs


def _finish_sweep(engine, outcomes, args, kind: str, code: int) -> int:
    """Shared tail of a sweep command: sweep/v1 report + salvage note."""
    if getattr(args, "out", None):
        atomic_write_json(
            args.out, sweep_report(engine, outcomes, kind=kind)
        )
        print(f"wrote {args.out}")
    if engine.interrupted:
        done = sum(1 for o in outcomes if o.ok)
        print(f"INTERRUPTED by {engine.signal_name}: salvaged "
              f"{done}/{len(outcomes)} cells"
              + (f"; resume with --resume {args.resume or args.checkpoint}"
                 if (args.resume or args.checkpoint) else ""))
        return EXIT_INTERRUPTED
    return code


def _parse_count(text: str) -> int:
    """'1e8' / '20000' -> int (scientific notation for big campaigns)."""
    return int(float(text))


def _parse_size(text: str) -> int:
    """'16gb' / '512mb' / '64kb' / plain bytes -> int."""
    text = text.strip().lower()
    for suffix, scale in (("tb", 1 << 40), ("gb", 1 << 30),
                          ("mb", 1 << 20), ("kb", 1 << 10), ("b", 1)):
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * scale)
    return int(text)


def cmd_info(args) -> int:
    size = _parse_size(args.size)
    inventory = level_inventory(size)
    print(f"memory: {size / (1 << 30):.2f} GiB protected data")
    print(f"tree levels (root excluded): {len(inventory)}")
    print(f"{'level':>6} {'nodes':>14} {'coverage/node':>15}")
    total_nodes = 0
    for info in inventory:
        total_nodes += info.nodes
        print(f"{info.level:>6} {info.nodes:>14,} "
              f"{info.coverage_bytes / (1 << 20):>12.2f} MB")
    overhead = total_nodes * 64 / size
    print(f"metadata storage overhead: {overhead * 100:.2f}% "
          "(paper: ~1.78% incl. counters)")
    for scheme in scheme_names():
        from repro.analysis import scheme_depths

        depths = scheme_depths(scheme, size)
        extra = sum(
            (depths[info.level] - 1) * info.nodes for info in inventory
        )
        print(f"{scheme:>9}: clone depths {list(depths.values())}, "
              f"clone storage {extra * 64 / size * 100:.3f}%")
    return 0


def cmd_perf(args) -> int:
    config = SystemConfig.scaled(memory_mb=args.memory_mb)
    specs = standard_suite_specs(
        footprint_bytes=args.footprint_mb * MB, num_refs=args.refs
    )
    named = [(make_workload(spec).name, spec) for spec in specs]
    if args.workloads:
        wanted = set(args.workloads)
        named = [(name, spec) for name, spec in named if name in wanted]
        if not named:
            print(f"no workloads match {sorted(wanted)}")
            return 1
    schemes = PAPER_SCHEMES
    cells = [
        SimCell(workload=spec, scheme=scheme, config=config, seed=args.seed)
        for _, spec in named
        for scheme in schemes
    ]
    engine = SweepEngine(cells, jobs=args.jobs, **_runtime_kwargs(args))
    try:
        outcomes = engine.run()
    except TooManyFailuresError as exc:
        print(f"ABORTED: {exc}")
        return EXIT_ABORTED
    print(f"{'workload':>12} {'SRC time':>9} {'SAC time':>9} "
          f"{'SRC writes':>11} {'SAC writes':>11}")
    code = 0
    for row, (name, _) in enumerate(named):
        per_scheme = outcomes[row * len(schemes):(row + 1) * len(schemes)]
        if not all(o.ok for o in per_scheme):
            errors = "; ".join(o.error for o in per_scheme if not o.ok)
            print(f"{name:>12} FAILED: {errors}")
            code = 1
            continue
        out = {s: o.result for s, o in zip(schemes, per_scheme)}
        base = out["baseline"]
        print(f"{base.workload:>12} "
              f"{out['src'].slowdown_vs(base) * 100:>8.2f}% "
              f"{out['sac'].slowdown_vs(base) * 100:>8.2f}% "
              f"{out['src'].write_overhead_vs(base) * 100:>10.2f}% "
              f"{out['sac'].write_overhead_vs(base) * 100:>10.2f}%")
    return _finish_sweep(engine, outcomes, args, "perf", code)


def _reliability_cell(cell):
    """One FIT-rate point of the reliability sweep (picklable runner)."""
    fit, trials, repair, seed, size = cell
    sim = FaultSimulator(
        FaultSimConfig(fit_per_device=fit, trials=trials, repair=repair,
                       seed=seed)
    )
    result = sim.run(trials_per_k=max(500, trials // 8))
    udr = compare_schemes(
        result.p_block_due, size, p_multi_due=result.p_multi_due_cross
    )
    return {scheme: r.udr for scheme, r in udr.items()}


def cmd_bench(args) -> int:
    progress = None
    if not args.quiet:
        def progress(p):
            status = "ok" if p.ok else "FAIL"
            # ETA is None until the first fresh (non-resumed) cell
            # completes — unknown rate, not zero.
            eta = ("    ?" if p.eta_seconds is None
                   else f"{p.eta_seconds:5.1f}s")
            print(f"  [{p.done:>2}/{p.total}] {p.label:<16} {status} "
                  f"(elapsed {p.elapsed_seconds:5.1f}s, eta {eta})")
    payload = run_bench(
        refs=args.refs,
        jobs=args.jobs,
        seed=args.seed,
        footprint_mb=args.footprint_mb,
        memory_mb=args.memory_mb,
        progress=progress,
        checkpoint_dir=args.checkpoint,
        store_dir=args.store,
    )
    path = write_bench(payload, args.out)
    print(f"{'cell':<16} {'refs/s':>10}")
    for row in payload["cells"]:
        if row["ok"] and row["refs_per_s"]:
            print(f"{row['label']:<16} {row['refs_per_s']:>10.0f}")
        else:
            print(f"{row['label']:<16} {'FAILED':>10}")
    store = payload["store"]
    print(f"serial wall   {payload['serial_wall_s']:8.2f}s")
    print(f"parallel wall {payload['parallel_wall_s']:8.2f}s "
          f"({args.jobs} jobs)")
    print(f"store wall    {store['wall_s']:8.2f}s (cold, serial)")
    print(f"speedup       {payload['speedup']:8.2f}x (jobs)")
    print(f"store layer   {store['overhead_fraction'] * 100:8.2f}% "
          f"of its leg ({store['writes']} entries published)")
    print(f"identical outputs (jobs=1 vs jobs={args.jobs}): "
          f"{'yes' if payload['identical_outputs'] else 'NO'}")
    print(f"identical outputs (plain vs store leg): "
          f"{'yes' if store['identical_outputs'] else 'NO'}")
    print(f"wrote {path}")
    ok = payload["identical_outputs"] and store["identical_outputs"]
    return 0 if ok else 1


def _reliability_empirical(args) -> int:
    """Streaming MC campaign(s): per-fit udr_mc/v1 with CI half-widths."""
    from pathlib import Path

    from repro.faults import (
        importance_distribution,
        mc_report,
        run_mc_campaign,
    )

    size = _parse_size(args.size)
    runtime = _runtime_kwargs(args)
    reports = []
    interrupted = False
    for fit in args.fits:
        config = FaultSimConfig(
            fit_per_device=fit, trials=args.trials, repair=args.ecc,
            seed=args.seed,
        )
        importance = (
            importance_distribution(config.relative_rates)
            if args.importance == "tree" else None
        )
        checkpoint = runtime["checkpoint"]
        if checkpoint is not None:
            checkpoint = str(Path(checkpoint) / f"fit-{fit:g}")
        result = run_mc_campaign(
            config,
            trials=args.trials,
            batch_trials=args.batch_trials,
            target_ci=args.target_ci,
            importance=importance,
            data_bytes=size,
            jobs=args.jobs,
            checkpoint=checkpoint,
            resume=runtime["resume"],
            max_failures=runtime["max_failures"],
            store=runtime["store"],
            queue=(str(Path(runtime["queue"]) / f"fit-{fit:g}")
                   if runtime["queue"] else None),
            lease_ttl=runtime.get("lease_ttl"),
        )
        report = mc_report(result)
        reports.append(report)
        flag = (" INTERRUPTED" if result.interrupted
                else (" converged" if result.converged else ""))
        print(f"FIT {fit:g}: {result.total_trials} trials in "
              f"{result.waves} wave(s){flag}")
        print(f"  p_block_due   {result.p_block_due:.4e} "
              f"+- {result.p_block_due_half_width:.1e}")
        print(f"  P(any DUE)    {result.due_probability:.4e} "
              f"+- {result.due_probability_half_width:.1e}")
        if result.approximated_ranks:
            print(f"  approximated_ranks {result.approximated_ranks} "
                  "(additive union upper bound)")
        print(f"  {'scheme':<10} {'empirical UDR':>14} {'+-':>10} "
              f"{'analytic':>12}")
        for name, entry in report["schemes"].items():
            print(f"  {name:<10} {entry['udr']:>14.4e} "
                  f"{entry['half_width']:>10.1e} {entry['analytic']:>12.4e}")
        if result.interrupted:
            interrupted = True
            break
    if args.out:
        atomic_write_json(
            args.out,
            {"schema": reports[0]["schema"] if reports else "udr_mc/v1",
             "campaigns": reports},
        )
        print(f"wrote {args.out}")
    if interrupted:
        print("INTERRUPTED: completed batches are journaled"
              + (f"; resume with --resume {args.resume or args.checkpoint}"
                 if (args.resume or args.checkpoint) else ""))
        return EXIT_INTERRUPTED
    return 0


def cmd_reliability(args) -> int:
    if args.empirical or args.target_ci is not None:
        return _reliability_empirical(args)
    size = _parse_size(args.size)
    cells = [
        (fit, args.trials, args.ecc, args.seed, size) for fit in args.fits
    ]
    engine = SweepEngine(
        cells, runner=_reliability_cell, jobs=args.jobs,
        **_runtime_kwargs(args),
    )
    try:
        outcomes = engine.run()
    except TooManyFailuresError as exc:
        print(f"ABORTED: {exc}")
        return EXIT_ABORTED
    print(f"{'FIT':>4} {'MTBF(h)':>9} {'baseline':>12} {'SRC':>12} {'SAC':>12}")
    for fit, outcome in zip(args.fits, outcomes):
        if not outcome.ok:
            print(f"{fit:>4} FAILED: {outcome.error}")
            continue
        udr = outcome.result
        print(f"{fit:>4} {mtbf_hours(fit):>9.1f} "
              f"{udr['baseline']:>12.3e} {udr['src']:>12.3e} "
              f"{udr['sac']:>12.3e}")
    if args.decompose:
        sim = FaultSimulator(
            FaultSimConfig(fit_per_device=args.fits[-1], trials=args.trials,
                           repair=args.ecc, seed=args.seed)
        )
        result = sim.run(trials_per_k=max(500, args.trials // 8))
        print(f"\nloss decomposition at FIT {args.fits[-1]}:")
        for scheme, d in figure12_table(result.p_block_due, size).items():
            print(f"  {scheme:>11}: L_total {d.l_total_bytes / (1 << 20):8.2f} MB "
                  f"({d.inflation:.2f}x vs non-secure)")
    return _finish_sweep(engine, outcomes, args, "reliability", 0)


def _print_scenario_catalog() -> None:
    from repro.faults import list_scenarios

    print(f"{'scenario':<22} {'phases':>6} {'ops':>6}  description")
    for s in list_scenarios():
        print(f"{s.name:<22} {len(s.phases):>6} {s.total_ops:>6}  "
              f"{s.description}")
        print(f"{'':<22} {'':>6} {'':>6}  models: {s.models}")


def _chaos_scenarios(args) -> int:
    from repro.faults import (
        ScenarioConfig,
        SilentCorruptionError,
        run_scenario_campaign,
    )
    from repro.faults.scenarios import report_to_json

    names = tuple(args.scenario)
    if "all" in names:
        names = ()
    config = ScenarioConfig(
        data_bytes=_parse_size(args.size),
        seed=args.seed,
        schemes=tuple(args.schemes),
        scenarios=names,
        mode=args.mode,
        enforce_invariant=not args.no_enforce,
        trace=args.trace,
    )
    runtime = _runtime_kwargs(args)
    try:
        report = run_scenario_campaign(
            config, jobs=args.jobs,
            checkpoint=runtime["checkpoint"], resume=runtime["resume"],
            max_failures=runtime["max_failures"],
            cell_timeout=runtime["timeout"],
            store=runtime["store"], queue=runtime["queue"],
            lease_ttl=runtime.get("lease_ttl"),
        )
    except SilentCorruptionError as exc:
        print(f"INVARIANT VIOLATED: {exc}")
        return 1
    except TooManyFailuresError as exc:
        print(f"ABORTED: {exc}")
        return EXIT_ABORTED

    print(f"{'scenario':<22} {'runs':>5} {'violations':>11} "
          f"{'rec.fail':>9} {'quarantined':>12} {'mean UDR':>9}")
    for name, s in report["scenarios"].items():
        print(f"{name:<22} {s['runs']:>5} {s['violations']:>11} "
              f"{s['recovery_failures']:>9} {s['quarantined_nodes']:>12} "
              f"{s['mean_empirical_udr']:>9.4f}")
    print(f"no-silent-corruption invariant: "
          f"{'HELD' if report['invariant_ok'] else 'VIOLATED'}")
    if args.out:
        atomic_write_text(args.out, report_to_json(report) + "\n")
        print(f"wrote {args.out}")
    if not report["invariant_ok"]:
        return 1
    if report["interrupted"]:
        salvage = report["salvage"]
        print(f"INTERRUPTED: salvaged {salvage.get('completed', 0)}"
              f"/{salvage.get('total', 0)} runs"
              + (f"; resume with --resume {args.resume or args.checkpoint}"
                 if (args.resume or args.checkpoint) else ""))
        return EXIT_INTERRUPTED
    return 0


def cmd_chaos(args) -> int:
    if args.list_scenarios:
        _print_scenario_catalog()
        return 0
    if args.scenario:
        return _chaos_scenarios(args)
    if args.trace:
        raise SystemExit("--trace requires --scenario (external traces "
                         "drive the scenario engine's workload stream)")
    from repro.faults import (
        CampaignConfig,
        SilentCorruptionError,
        run_campaign,
    )

    config = CampaignConfig(
        data_bytes=_parse_size(args.size),
        ops=args.ops,
        num_faults=args.faults,
        seed=args.seed,
        schemes=tuple(args.schemes),
        targets=tuple(args.targets),
        scrub_intervals=tuple(args.scrub_intervals),
        mode=args.mode,
        enforce_invariant=not args.no_enforce,
        oracle=args.oracle,
    )
    runtime = _runtime_kwargs(args)
    try:
        report = run_campaign(
            config, jobs=args.jobs,
            checkpoint=runtime["checkpoint"], resume=runtime["resume"],
            max_failures=runtime["max_failures"],
            cell_timeout=runtime["timeout"],
            store=runtime["store"], queue=runtime["queue"],
            lease_ttl=runtime.get("lease_ttl"),
        )
    except SilentCorruptionError as exc:
        print(f"INVARIANT VIOLATED: {exc}")
        return 1
    except TooManyFailuresError as exc:
        print(f"ABORTED: {exc}")
        return EXIT_ABORTED

    print(f"{'scheme':>9} {'runs':>5} {'mean UDR':>10} {'max UDR':>9} "
          f"{'repairs':>8} {'quarantined':>12} {'violations':>11}")
    for scheme, s in report.schemes.items():
        print(f"{scheme:>9} {s['runs']:>5} {s['mean_empirical_udr']:>10.4f} "
              f"{s['max_empirical_udr']:>9.4f} {s['total_repairs']:>8} "
              f"{s['quarantined_bytes']:>10} B {s['violations']:>11}")
    for scheme, r in report.resilience.items():
        ratio = r["baseline_over_scheme"]
        ratio_text = "inf" if ratio is None else f"{ratio:.1f}x"
        print(f"baseline vs {scheme}: {ratio_text} "
              f"({'>=10x: yes' if r['ge_10x'] else '>=10x: NO'})")
    print(f"no-silent-corruption invariant: "
          f"{'HELD' if report.invariant_ok else 'VIOLATED'}")
    if args.out:
        atomic_write_text(args.out, report.to_json() + "\n")
        print(f"wrote {args.out}")
    if not report.invariant_ok:
        return 1
    if report.interrupted:
        salvage = report.salvage
        print(f"INTERRUPTED: salvaged {salvage.get('completed', 0)}"
              f"/{salvage.get('total', 0)} runs"
              + (f"; resume with --resume {args.resume or args.checkpoint}"
                 if (args.resume or args.checkpoint) else ""))
        return EXIT_INTERRUPTED
    return 0


def cmd_verify(args) -> int:
    """Differential verification: oracle-checked workloads + crash points."""
    from repro.verify import CrashPointConfig, run_crash_points

    if args.replay:
        from repro.verify.replay import load_case, run_ops

        config, ops, note = load_case(args.replay)
        if note:
            print(f"replaying {args.replay}: {note}")
        report = run_ops(config, ops, raise_on_failure=False)
        print(f"replay {'PASSED' if report['ok'] else 'FAILED'}: "
              f"{report['ops_applied']} ops, "
              f"{report['typed_errors']} typed errors")
        if args.out:
            atomic_write_json(args.out, report)
            print(f"wrote {args.out}")
        return 0 if report["ok"] else 1

    refs = 5_000 if args.quick else 20_000
    footprint_mb = 4 if args.quick else 8
    memory_mb = 8 if args.quick else 32
    ops = 160 if args.quick else 400
    config = SystemConfig.scaled(memory_mb=memory_mb)
    specs = standard_suite_specs(
        footprint_bytes=footprint_mb * MB, num_refs=refs
    )
    cells = [
        SimCell(workload=spec, scheme=scheme, config=config,
                seed=args.seed, verify=True)
        for spec in specs
        for scheme in args.schemes
    ]
    print(f"oracle-verified workload sweep: {len(cells)} cells "
          f"({refs} refs each)")
    outcomes = SweepEngine(cells, jobs=args.jobs).run()
    workload_rows = []
    sweep_ok = True
    for cell, outcome in zip(cells, outcomes):
        verify = outcome.result.verify if outcome.ok else None
        row_ok = bool(outcome.ok and verify and verify["ok"])
        sweep_ok &= row_ok
        workload_rows.append({
            "label": outcome.label,
            "ok": row_ok,
            "error": outcome.error,
            "verify": verify,
        })
        status = "ok" if row_ok else "FAIL"
        checked = verify["oracle"]["writes"] + verify["oracle"]["reads"] \
            if verify else 0
        print(f"  {outcome.label:<16} {status}  ({checked} ops checked)")

    crash_reports = {}
    crash_ok = True
    for scheme in args.schemes:
        # Schemes that pin their integrity mode (triad -> bmt, phoenix
        # -> toc) get one campaign; unpinned schemes cover both trees.
        pinned = resolve_scheme(scheme).integrity_mode
        for mode in (pinned,) if pinned else ("toc", "bmt"):
            campaign = CrashPointConfig(
                scheme=scheme,
                integrity_mode=mode,
                ops=ops,
                num_points=args.points,
                seed=args.seed,
                fault_every=args.fault_every,
            )
            report = run_crash_points(campaign, raise_on_failure=False)
            crash_reports[f"{scheme}/{mode}"] = report
            crash_ok &= report["ok"]
            outcomes_row = report["outcomes"]
            print(f"  crash {scheme}/{mode}: {args.points} points "
                  f"{'ok' if report['ok'] else 'FAIL'} "
                  f"(recovered {outcomes_row['recovered']}, "
                  f"lost {outcomes_row['reported_lost']}, "
                  f"quarantined {outcomes_row['quarantined']}, "
                  f"silent {report['silent_corruption']})")

    ok = sweep_ok and crash_ok
    payload = {
        "schema": "verify/v1",
        "kind": "verify",
        "seed": args.seed,
        "quick": args.quick,
        "workloads": workload_rows,
        "crash_points": crash_reports,
        "ok": ok,
    }
    if args.out:
        atomic_write_json(args.out, payload)
        print(f"wrote {args.out}")
    print(f"verification {'PASSED' if ok else 'FAILED'}")
    return 0 if ok else 1


def _replay_cli(args, run, subject: str, scope: str, **kwargs) -> int:
    """Drive a replay prover (engine-diff / mc-diff) from the shell."""

    def progress(row):
        status = "ok" if row["identical"] else "MISMATCH"
        detail = (
            f"  differs in: {', '.join(row['mismatched'])}"
            if row["mismatched"] else ""
        )
        error = (
            f"  (pinned error: {row['error']})" if row.get("error") else ""
        )
        print(f"  {row['name']:<40} {status}{detail}{error}")

    report = run(quick=args.quick, progress=progress, record=args.record,
                 **kwargs)
    if args.out:
        atomic_write_json(args.out, report)
        print(f"wrote {args.out}")
    if report["recorded"]:
        print(f"re-pinned {report['total']} cases into "
              f"{report['fixture']} (review the diff like any golden "
              "file)")
        return 0
    verdict = "BIT-IDENTICAL" if report["identical"] else "DIVERGED"
    print(f"{subject} {verdict} to the pinned replay fixture across "
          f"{report['total']} cases ({scope})")
    return 0 if report["identical"] else 1


def cmd_engine_diff(args) -> int:
    """Replay the vector engine against its pinned behavior fixture."""
    from repro.verify.engine_diff import DEFAULT_FIXTURE, run_engine_diff

    return _replay_cli(
        args, run_engine_diff, "engine", "corpus + pinned sweeps + chaos",
        corpus_dir=args.corpus, refs=args.refs,
        fixture=args.fixture or DEFAULT_FIXTURE,
    )


def cmd_mc_diff(args) -> int:
    """Replay the Monte-Carlo core against its pinned behavior fixture."""
    from repro.verify.mc_diff import run_mc_diff

    return _replay_cli(
        args, run_mc_diff, "MC core",
        "rng + sampler + trial + result + batching + importance",
    )


def cmd_figures(args) -> int:
    from repro.figures import run_all

    run_all(args.out, quick=not args.full)
    return 0


def cmd_metrics(args) -> int:
    """Export telemetry metadata (currently: the metric manifest)."""
    from repro.telemetry import manifest_json

    text = manifest_json()
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_crash_test(args) -> int:
    scheme = resolve_scheme(args.scheme)
    # A scheme that pins its integrity mode wins over --integrity.
    integrity = scheme.integrity_mode or args.integrity
    ctrl = make_controller(
        scheme,
        args.data_kb * KB,
        metadata_cache_bytes=args.cache_kb * KB,
        integrity_mode=integrity,
        rng=np.random.default_rng(args.seed),
    )
    rng = np.random.default_rng(args.seed + 1)
    expect = {}
    for _ in range(args.ops):
        block = int(rng.integers(0, ctrl.num_data_blocks))
        data = bytes(int(x) for x in rng.integers(0, 256, 64))
        ctrl.write(block, data)
        expect[block] = data
    image = ctrl.crash()
    print(f"crashed after {args.ops} writes "
          f"({len(expect)} distinct blocks)")

    if args.corrupt_shadow and integrity == "toc":
        target = None
        for slot in range(ctrl.amap.shadow_entries):
            address = ctrl.amap.shadow_entry_addr(slot)
            if not image.nvm.is_touched(address):
                continue
            raw = image.nvm.read_block(address)
            if any(not r.is_empty
                   for r in ctrl.shadow_codec.decode_candidates(raw)):
                target = address
                break
        if target is not None:
            # Hit the MAC field of the (first) record so the corruption
            # matters: byte 56 in the Anubis layout, 24 in Soteria's.
            mac_byte = 24 if ctrl.shadow_codec.copies > 1 else 56
            image.nvm.flip_bits(target, [mac_byte * 8 + 1])
            print(f"corrupted shadow entry at {target:#x}")

    procedure = recovery_procedure_for(image)
    try:
        recovered, report = recover_image(image)
    except Exception as exc:  # RecoveryError surfaces to the operator
        print(f"RECOVERY FAILED ({procedure}): {exc}")
        return 1
    from dataclasses import asdict

    counters = ", ".join(
        f"{key}={value}" for key, value in asdict(report).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    print(f"recovery OK ({procedure}): {counters}")
    losses = sum(
        1 for block, data in expect.items()
        if recovered.read(block).data != data
    )
    print(f"data check: {len(expect) - losses}/{len(expect)} blocks intact")
    return 0 if losses == 0 else 1


def cmd_schemes(args) -> int:
    """List every registered persistence-security scheme."""
    size = _parse_size(args.size)
    print(f"{'scheme':<10} {'persist policy':<16} {'recovery':<9} "
          f"{'origin':<8} {'clone depths':<16} description")
    for scheme in all_schemes():
        policy = scheme.update_policy or "lazy"
        if policy == "selective":
            policy = f"selective(N={scheme.persist_levels})"
        elif policy == "batched":
            policy = f"batched(B={scheme.persist_batch})"
        depths = scheme.depths_for(size)
        compact = ",".join(
            str(depths[level]) for level in sorted(depths)
        )
        origin = "builtin" if scheme.builtin else "plugin"
        name = scheme.name
        if scheme.is_reference:
            name += "*"
        print(f"{name:<10} {policy:<16} "
              f"{scheme.recovery_procedure():<9} {origin:<8} "
              f"{compact:<16} {scheme.description}")
        if scheme.aliases:
            print(f"{'':<10} aliases: {', '.join(scheme.aliases)}")
    print("(* = reference scheme; clone depths level 1 -> root "
          f"at {args.size})")
    return 0


def cmd_compare_schemes(args) -> int:
    """Cross-scheme study: performance, crash recovery, UDR."""
    from repro.figures import export_csv
    from repro.schemes import (
        STUDY_CSV_HEADER,
        run_scheme_study,
        study_report,
    )

    progress = None if args.quiet else (lambda msg: print(f"  {msg}"))
    study = run_scheme_study(
        schemes=tuple(args.schemes) if args.schemes else None,
        memory_mb=args.memory_mb,
        crash_ops=args.crash_ops,
        p_block_due=args.p_block_due,
        seed=args.seed,
        progress=progress,
        empirical=not args.no_empirical,
        empirical_trials=args.empirical_trials,
        empirical_fit=args.empirical_fit,
        store=args.store,
        queue=args.queue,
        lease_ttl=args.lease_ttl,
    )
    has_empirical = study.get("empirical") is not None
    header = (f"{'scheme':<10} {'slowdown':>9} {'write ovh':>10} "
              f"{'recovery':>12} {'rec ok':>7} {'UDR':>10} {'resil.':>8}")
    if has_empirical:
        header += f" {'empirical UDR':>14} {'+-':>9}"
    print(header)
    for row in study_report(study):
        name, slowdown, write_ovh, recovery_ns, ok, udr, resil = row[:7]
        recovery = ("-" if recovery_ns is None
                    else f"{recovery_ns / 1000:.1f}us")
        resil_text = "inf" if resil == float("inf") else f"{resil:.1f}x"
        line = (f"{name:<10} {slowdown * 100:>8.2f}% "
                f"{write_ovh * 100:>9.2f}% "
                f"{recovery:>12} {'yes' if ok else 'NO':>7} "
                f"{udr:>10.3e} {resil_text:>8}")
        if has_empirical and len(row) > 7:
            empirical_udr, half_width = row[7], row[8]
            line += f" {empirical_udr:>14.3e} {half_width:>9.1e}"
        print(line)
    print(f"reference scheme: {study['reference']}")
    print(f"clean-cut recovery: {'OK' if study['ok'] else 'FAILED'}")
    if has_empirical:
        emp = study["empirical"]
        contained = all(
            entry["analytic_in_ci"] for entry in emp["schemes"].values()
        )
        print(f"empirical UDR: {emp['total_trials']} trials at "
              f"{emp['config']['fit_per_device']:g} FIT/device "
              f"(95% CI); analytic inside every CI: "
              f"{'yes' if contained else 'NO'}")
    if args.out:
        atomic_write_json(args.out, study)
        print(f"wrote {args.out}")
    if args.csv:
        header = list(STUDY_CSV_HEADER)
        if not has_empirical:
            header = header[:7]
        export_csv(args.csv, header, study_report(study))
        print(f"wrote {args.csv}")
    return 0 if study["ok"] else 1


def _fleet_campaign_dirs(root: str, follow: bool) -> list:
    """Queue directories under ``root`` holding a published campaign.

    ``follow`` also scans immediate subdirectories — the layout
    ``run_mc_campaign`` uses for its per-wave queues (``wave-0000/``,
    ``wave-0001/``, ...) and ``repro reliability`` for its per-FIT
    ones — so one worker serves every stage of a multi-phase campaign.
    """
    import os

    from repro.runtime.queue import MANIFEST_NAME

    dirs = []
    if os.path.isfile(os.path.join(root, MANIFEST_NAME)):
        dirs.append(root)
    if follow and os.path.isdir(root):
        for name in sorted(os.listdir(root)):
            sub = os.path.join(root, name)
            if os.path.isfile(os.path.join(sub, MANIFEST_NAME)):
                dirs.append(sub)
    return dirs


def cmd_fleet_worker(args) -> int:
    """Join a published campaign: claim, run, and publish cells."""
    import os
    import time

    from repro.runtime import QueueMismatchError, WorkQueue

    progress = None
    if not args.quiet:
        def progress(p):
            status = "ok" if p.ok else "FAIL"
            source = ("store" if p.reused
                      else "resumed" if p.resumed else "ran")
            print(f"  [{p.done:>3}/{p.total}] {p.label:<20} {status} "
                  f"({source})")

    drained = {}
    reports = []
    idle_since = time.monotonic()
    code = 0
    while True:
        worked = False
        for qdir in _fleet_campaign_dirs(args.queue, args.follow):
            try:
                manifest = WorkQueue(qdir).load_campaign()
            except (QueueMismatchError, OSError) as exc:
                print(f"  skipping {qdir}: {exc}")
                continue
            if drained.get(qdir) == manifest["fingerprint"]:
                continue
            ttl = args.lease_ttl or manifest.get("lease_ttl_s")
            engine_kwargs = {"lease_ttl": float(ttl)} if ttl else {}
            engine = SweepEngine(
                manifest["cells"],
                runner=manifest["runner_callable"],
                jobs=1,
                queue=qdir,
                store=args.store or os.path.join(qdir, "store"),
                progress=progress,
                **engine_kwargs,
            )
            print(f"joining {qdir}: {manifest['total_cells']} cells "
                  f"[{manifest['fingerprint'][:12]}]")
            try:
                outcomes = engine.run()
            except TooManyFailuresError as exc:
                print(f"ABORTED: {exc}")
                return EXIT_ABORTED
            reports.append(sweep_report(engine, outcomes, kind="fleet"))
            if engine.interrupted:
                print(f"INTERRUPTED by {engine.signal_name}; lease(s) "
                      "released — the fleet will finish the campaign")
                code = EXIT_INTERRUPTED
                break
            drained[qdir] = manifest["fingerprint"]
            ran = sum(1 for o in outcomes
                      if o.ok and not o.reused and not o.resumed)
            served = sum(1 for o in outcomes if o.reused)
            failed = sum(1 for o in outcomes if not o.ok)
            print(f"drained {qdir}: ran {ran}, store-served {served}, "
                  f"failed {failed}")
            worked = True
        if code:
            break
        if worked:
            idle_since = time.monotonic()
        if not args.follow:
            if not reports:
                print(f"no campaign published under {args.queue}; "
                      "start one with a sweep command using --queue "
                      "(or use --follow to wait)")
                return 1
            break
        if args.idle_timeout and (
                time.monotonic() - idle_since >= args.idle_timeout):
            print(f"idle for {args.idle_timeout:g}s; exiting")
            break
        time.sleep(min(2.0, args.idle_timeout or 2.0))
    if args.out and reports:
        payload = reports[0] if len(reports) == 1 else {
            "schema": reports[0]["schema"],
            "kind": "fleet",
            "campaigns": reports,
        }
        atomic_write_json(args.out, payload)
        print(f"wrote {args.out}")
    return code


def cmd_fleet_status(args) -> int:
    """Point-in-time view of a fleet campaign's queue + store."""
    import os

    from repro.runtime import ResultStore, WorkQueue

    dirs = _fleet_campaign_dirs(args.queue, follow=True)
    if not dirs:
        print(f"no campaign published under {args.queue}")
        return 1
    statuses = []
    for qdir in dirs:
        status = WorkQueue(qdir).status()
        store_dir = args.store or os.path.join(qdir, "store")
        stored = (ResultStore(store_dir).count()
                  if os.path.isdir(store_dir) else 0)
        status["store_entries"] = stored
        statuses.append(status)
        print(f"{qdir}: {stored}/{status['total_cells']} cells stored, "
              f"{len(status['leases_live'])} live / "
              f"{len(status['leases_stale'])} stale / "
              f"{status['leases_torn']} torn lease(s), "
              f"{status['poisoned']} poisoned "
              f"[{status['fingerprint'][:12]}]")
        for entry in status["leases_live"]:
            print(f"    {entry['key'][:12]}  held by {entry['owner']}  "
                  f"expires in {entry['expires_in_s']:g}s")
        for entry in status["leases_stale"]:
            print(f"    {entry['key'][:12]}  held by {entry['owner']}  "
                  f"EXPIRED {-entry['expires_in_s']:g}s ago "
                  "(reclaimable)")
    if args.out:
        atomic_write_json(
            args.out,
            statuses[0] if len(statuses) == 1 else {
                "schema": statuses[0]["schema"],
                "queues": statuses,
            },
        )
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Soteria (MICRO 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="metadata layout for a memory size")
    p.add_argument("--size", default="1tb", help="protected data size (e.g. 1tb)")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("perf", help="timing simulation across schemes")
    p.add_argument("--memory-mb", type=int, default=32)
    p.add_argument("--footprint-mb", type=int, default=8)
    p.add_argument("--refs", type=int, default=10_000)
    p.add_argument("--workloads", nargs="*", default=None,
                   help="subset of suite names (default: all)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (output identical to --jobs 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="per-cell base seed (same seed -> same table)")
    p.add_argument("--out", default=None,
                   help="write the sweep/v1 JSON report here")
    _add_runtime_args(p)
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser(
        "bench",
        help="pinned 5-workload x 3-scheme sweep with a cold-store "
             "overhead leg; emits BENCH_perf.json",
    )
    p.add_argument("--refs", type=int, default=20_000)
    p.add_argument("--jobs", type=int, default=2,
                   help="worker processes for the parallel leg")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--footprint-mb", type=int, default=8)
    p.add_argument("--memory-mb", type=int, default=32)
    p.add_argument("--out", default="BENCH_perf.json")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress lines")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="journal both legs' cells under DIR so the "
                        "measured overhead includes checkpointing")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="directory for the cold-store leg (default: a "
                        "throwaway temp dir)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("reliability", help="FaultSim + UDR sweep")
    p.add_argument("--size", default="1tb")
    p.add_argument("--fits", type=float, nargs="+", default=[10, 40, 80])
    p.add_argument("--trials", type=_parse_count, default=20_000,
                   help="trial budget; scientific notation OK (1e8)")
    p.add_argument("--ecc", default="chipkill",
                   choices=["chipkill", "chipkill2", "secded", "none"])
    p.add_argument("--decompose", action="store_true",
                   help="print the Figure 12 loss decomposition")
    p.add_argument("--seed", type=int, default=2021,
                   help="Monte-Carlo seed (same seed -> same table)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, one FIT point per cell")
    p.add_argument("--empirical", action="store_true",
                   help="streaming MC campaign (udr_mc/v1): empirical "
                        "UDR with CI half-widths instead of the "
                        "analytic sweep")
    p.add_argument("--target-ci", type=float, default=None, metavar="HW",
                   help="stop each campaign once the p_block_due CI "
                        "half-width drops below HW (implies --empirical)")
    p.add_argument("--batch-trials", type=_parse_count, default=4096,
                   help="trials per checkpointable batch (empirical mode)")
    p.add_argument("--importance", default="tree",
                   choices=["off", "tree"],
                   help="importance sampling: oversample upper-tree-"
                        "node loss classes with exact reweighting "
                        "(default), or plain sampling (off)")
    p.add_argument("--out", default=None,
                   help="write the sweep/v1 (or udr_mc/v1) JSON report")
    _add_runtime_args(p)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser(
        "chaos",
        help="online fault-injection campaign with scrubbing + quarantine",
    )
    p.add_argument("--size", default="64kb",
                   help="protected data size per run (default 64kb)")
    p.add_argument("--ops", type=int, default=3000,
                   help="workload operations per run")
    p.add_argument("--faults", type=int, default=6,
                   help="injected fault events per run")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--schemes", nargs="+", default=list(PAPER_SCHEMES),
                   choices=list(scheme_names()))
    p.add_argument("--targets", nargs="+",
                   default=["counter", "tree", "counter_mac"],
                   help="layout regions to poison (see INJECTION_TARGETS)")
    p.add_argument("--scrub-intervals", type=int, nargs="+",
                   default=[0, 250],
                   help="ops between scrub passes; 0 disables scrubbing")
    p.add_argument("--mode", default="direct", choices=["direct", "ecc"])
    p.add_argument("--out", default=None,
                   help="write the JSON resilience report here")
    p.add_argument("--no-enforce", action="store_true",
                   help="report violations instead of raising")
    p.add_argument("--oracle", action="store_true",
                   help="attach the differential oracle to every run")
    p.add_argument("--scenario", action="append", default=None,
                   metavar="NAME",
                   help="run cataloged adversarial scenario(s) instead of "
                        "the plain campaign (repeatable; 'all' runs the "
                        "full catalog; scenarios are always "
                        "oracle-verified)")
    p.add_argument("--list-scenarios", action="store_true",
                   help="print the scenario catalog and exit")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="drive the scenario workload from an external "
                        "trace file (native, generic R/W+address, or "
                        "multi-core interleaved formats; auto-detected)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, one campaign run per cell")
    _add_runtime_args(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "verify",
        help="differential oracle sweep + crash-point recovery harness",
    )
    p.add_argument("--quick", action="store_true",
                   help="CI-sized run (fewer refs/ops; same coverage)")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--points", type=int, default=200,
                   help="sampled power-cut points per scheme/mode")
    p.add_argument("--fault-every", type=int, default=4,
                   help="inject faults at every k-th crash point "
                        "(0 = clean cuts only)")
    p.add_argument("--schemes", nargs="+", default=["src", "sac"],
                   choices=list(scheme_names()))
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the workload sweep")
    p.add_argument("--replay", default=None, metavar="CASE.json",
                   help="re-run one serialized replay case instead")
    p.add_argument("--out", default=None,
                   help="write the JSON verify/v1 report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "engine-diff",
        help="replay the vector engine against its pinned behavior "
             "fixture (corpus + pinned sweeps + chaos fault injection)",
    )
    p.add_argument("--corpus", default="tests/corpus",
                   help="fuzz-corpus directory (default: tests/corpus)")
    p.add_argument("--refs", type=int, default=None,
                   help="references per sweep/chaos case (default: the "
                        "fixture's pinned length; only meaningful with "
                        "--record)")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized subset of the sweep grid")
    p.add_argument("--fixture", default=None,
                   help="replay fixture path (default: "
                        "tests/fixtures/engine_replay.json)")
    p.add_argument("--record", action="store_true",
                   help="re-pin the fixture from the current engine "
                        "instead of comparing (for intentional "
                        "behavior changes; review the diff)")
    p.add_argument("--out", default=None,
                   help="write the engine_diff/v2 JSON report here")
    p.set_defaults(func=cmd_engine_diff)

    p = sub.add_parser(
        "fleet",
        help="multi-host campaign fleet: join or inspect a --queue "
             "campaign",
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    w = fleet_sub.add_parser(
        "worker",
        help="claim, run, and publish cells from a published campaign "
             "until it drains (at-least-once execution, exactly-once "
             "results via the content-addressed store)",
    )
    w.add_argument("--queue", required=True, metavar="DIR",
                   help="queue directory the campaign was published to")
    w.add_argument("--store", metavar="DIR", default=None,
                   help="shared result store (default: QUEUE/store)")
    w.add_argument("--lease-ttl", type=float, default=None,
                   metavar="SECS",
                   help="override the campaign's lease TTL")
    w.add_argument("--follow", action="store_true",
                   help="also serve campaigns published in immediate "
                        "subdirectories (e.g. the per-wave queues of a "
                        "Monte-Carlo campaign) and keep polling for "
                        "new ones until idle for --idle-timeout")
    w.add_argument("--idle-timeout", type=float, default=60.0,
                   metavar="SECS",
                   help="with --follow: exit after SECS with nothing "
                        "to serve (0 = poll forever)")
    w.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress lines")
    w.add_argument("--out", default=None,
                   help="write this worker's sweep/v1 report(s) here")
    w.set_defaults(func=cmd_fleet_worker)

    s = fleet_sub.add_parser(
        "status",
        help="show a campaign's leases, poison list, and store fill",
    )
    s.add_argument("--queue", required=True, metavar="DIR",
                   help="queue directory (per-wave subqueues included)")
    s.add_argument("--store", metavar="DIR", default=None,
                   help="result store (default: each QUEUE/store)")
    s.add_argument("--out", default=None,
                   help="write the queue/v1 status JSON here")
    s.set_defaults(func=cmd_fleet_status)

    p = sub.add_parser(
        "mc-diff",
        help="replay the Monte-Carlo core against its pinned behavior "
             "fixture (RNG, sampler, per-trial DUE regions, end-to-end "
             "results, batching, importance weights)",
    )
    p.add_argument("--quick", action="store_true",
                   help="CI-sized subset of the pinned corpus")
    p.add_argument("--record", action="store_true",
                   help="re-pin the fixture from the current core "
                        "instead of comparing (for intentional "
                        "behavior changes; review the diff)")
    p.add_argument("--out", default=None,
                   help="write the mc_diff/v2 JSON report here")
    p.set_defaults(func=cmd_mc_diff)

    p = sub.add_parser(
        "metrics",
        help="telemetry metric manifest (schema-stamped, sorted JSON)",
    )
    p.add_argument("--manifest", action="store_true", default=True,
                   help="emit the metric manifest (default action)")
    p.add_argument("--out", default=None,
                   help="write to a file instead of stdout")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "schemes",
        help="list registered persistence-security schemes",
    )
    p.add_argument("--size", default="1tb",
                   help="memory size for the clone-depth column")
    p.set_defaults(func=cmd_schemes)

    p = sub.add_parser(
        "compare-schemes",
        help="cross-scheme study: performance overhead, crash-recovery "
             "time, UDR (scheme_study/v1)",
    )
    p.add_argument("--schemes", nargs="+", default=None,
                   choices=list(scheme_names()),
                   help="subset to study (default: every registered "
                        "scheme; the reference is always included)")
    p.add_argument("--memory-mb", type=int, default=16,
                   help="timing-simulator memory size")
    p.add_argument("--crash-ops", type=int, default=160,
                   help="ops before the power cut in the recovery leg")
    p.add_argument("--p-block-due", type=float, default=1e-4,
                   help="per-block DUE probability for the UDR column")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-stage progress lines")
    p.add_argument("--empirical-trials", type=_parse_count, default=12_000,
                   help="MC trial budget for the empirical-UDR column")
    p.add_argument("--empirical-fit", type=float, default=80.0,
                   help="FIT/device for the empirical-UDR campaign")
    p.add_argument("--no-empirical", action="store_true",
                   help="skip the empirical-UDR campaign column")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="content-addressed result store for the "
                        "empirical-UDR campaign cells")
    p.add_argument("--queue", metavar="DIR", default=None,
                   help="fleet mode for the empirical-UDR campaign "
                        "(workers: repro fleet worker --queue DIR/mc "
                        "--follow)")
    p.add_argument("--lease-ttl", type=float, default=None,
                   metavar="SECS", help="fleet lease time-to-live")
    p.add_argument("--out", default=None,
                   help="write the scheme_study/v1 JSON report here")
    p.add_argument("--csv", default=None,
                   help="export the per-scheme figure rows as CSV")
    p.set_defaults(func=cmd_compare_schemes)

    p = sub.add_parser("figures", help="regenerate all paper figures as CSV")
    p.add_argument("--out", default="results",
                   help="output directory (default: results/)")
    p.add_argument("--full", action="store_true",
                   help="full-size campaigns (slower; bench-suite scale)")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("crash-test", help="functional crash/recovery run")
    p.add_argument("--scheme", default="src", choices=list(scheme_names()))
    p.add_argument("--integrity", default="toc", choices=["toc", "bmt"])
    p.add_argument("--data-kb", type=int, default=256)
    p.add_argument("--cache-kb", type=int, default=4)
    p.add_argument("--ops", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--corrupt-shadow", action="store_true")
    p.set_defaults(func=cmd_crash_test)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
