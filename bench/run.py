#!/usr/bin/env python3
"""The repo's benchmark of record.

Run every workload, each in its own child process, then a traced pass::

    python3 bench/run.py --seed 2021 [--runs N] [--out FILE] [--record] [--pin]

Measure one workload and print one JSON result as the last line::

    python3 bench/run.py --workload sim-read --seed 7 --seconds 10 --trace 0

See bench/README.md for the workloads, the metrics and how to compare
two commits.
"""

import os

# One thread per process: children run one at a time on a small host,
# and BLAS thread pools would add noise to every host-time metric.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench: the program's source is missing ({SRC / 'repro'}); "
             "run from the root of a checkout of the repository")
sys.path[:0] = [str(SRC), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
from compare import quartiles  # noqa: E402

HISTORY = BENCH / "history.jsonl"
DEFAULT_SECONDS = json.loads(
    (ROOT / "BENCHMARK.json").read_text())["run_seconds"] \
    if (ROOT / "BENCHMARK.json").is_file() else 10
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(suite.BY_NAME),
                   help="measure one workload (default: all, in children)")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="timed-repetition budget per workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="1: report per-layer metrics from a traced "
                        "repetition (all workloads: default 1, traced "
                        "pass after the untraced one)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and two repetitions (ignores "
                        "--seconds): a quick check")
    p.add_argument("--runs", type=int, default=1,
                   help="untraced runs per workload, seeds seed..seed+N-1")
    p.add_argument("--out", help="append one JSON record per run to FILE")
    p.add_argument("--record", action="store_true",
                   help=f"append a summary row to {HISTORY.relative_to(ROOT)}")
    p.add_argument("--pin", action="store_true",
                   help="pin this seed's output digests in bench/expected")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    if args.smoke:
        args.seconds = 0
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    warnings.filterwarnings("ignore", message="evaluate_batch:")
    if args.probe_setup:
        suite.BY_NAME[args.workload].prepare(args.seed, args.smoke)
        return 0
    if args.workload:
        return one_workload(args)
    return all_workloads(args)


def one_workload(args) -> int:
    record = harness.measure(suite.BY_NAME[args.workload], args.seed,
                             args.seconds, trace=bool(args.trace),
                             smoke=args.smoke)
    for error in record["errors"]:
        print(f"bench: {args.workload}: {error}", file=sys.stderr)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    units = dict(spans.PER_LAYER if args.trace else harness.END_TO_END)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record.get("metrics", {}).items()},
    }))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def child(name: str, seed: int, trace: int, args) -> dict:
    """Measure one workload in a fresh interpreter; its record."""
    harness.OUT.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="record-", suffix=".json",
                                dir=harness.OUT)
    os.close(fd)
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", path]
    if args.smoke:
        command.append("--smoke")
    try:
        subprocess.run(command, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)
        text = Path(path).read_text()
    except subprocess.TimeoutExpired:
        text = ""
    finally:
        os.unlink(path)
    if not text:
        return {"workload": name, "seed": seed, "trace": trace,
                "smoke": args.smoke, "correct": False, "attempted": 1,
                "failed": 1, "errors": ["child exited without a record"],
                "digests": []}
    return json.loads(text)


def all_workloads(args) -> int:
    records = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in suite.WORKLOADS:
            records.append(progress(child(workload.name, seed, 0, args)))
    if args.trace != 0:
        for workload in suite.WORKLOADS:
            records.append(progress(child(workload.name, args.seed, 1, args)))
    if args.out:
        with open(args.out, "a") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    untraced = [r for r in records if not r["trace"]]
    print_end_to_end(untraced, args.runs)
    traced = [r for r in records if r["trace"]]
    if traced:
        print_per_layer(traced)
    if args.record:
        append_history(untraced, args)
    if args.pin:
        pin(records, args.seed)
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(f"\noutputs checked: {attempted}, failed: {failed}, error_rate: "
          f"{failed / attempted if attempted else 0:.4g}")
    return 0 if all(r["correct"] for r in records) else 1


def progress(record: dict) -> dict:
    status = "ok" if record["correct"] else "FAILED"
    pinned = "pinned digest" if record.get("pinned") else "unpinned"
    wall = record.get("samples", {}).get("wall_s", [])
    print(f"{record['workload']:<14} seed {record['seed']:<6}"
          f"{' traced' if record['trace'] else '':<8}{status:<7}"
          f"{record['attempted']} outputs checked ({pinned}), "
          f"{len(wall)} timed reps", flush=True)
    for error in record.get("errors", []):
        print(f"    {error.strip()}")
    if not record.get("pinned") and record.get("digests"):
        print(f"    digest {record['digests'][0]}")
    return record


def by_workload(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def print_end_to_end(records, runs: int) -> None:
    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    print("\nend-to-end (untraced; wall_s and work_per_s at the reference "
          "host speed; quartiles over pooled samples"
          f"{'; spread = IQR/median of the per-run values' if runs > 1 else ''})")
    header = (f"{'workload':<14} {'metric':<12} {'unit':<6} {'median':>11} "
              f"{'q1':>11} {'q3':>11} {'n':>4}")
    print(header + (f" {'spread':>7} {'bound':>6}" if runs > 1 else ""))
    # host_wall_s, the unscaled wall time, is shown for reference only.
    shown_metrics = harness.END_TO_END + (("host_wall_s", "s"),)
    for name, group in by_workload(records).items():
        unit = group[0].get("unit", "")
        for metric, metric_unit in shown_metrics:
            if metric == "peak_rss_mb":
                samples = [r["metrics"][metric] for r in group
                           if "metrics" in r]
            else:
                samples = [v for r in group
                           for v in r.get("samples", {}).get(metric, [])]
            if not samples:
                continue
            q1, median, q3 = quartiles(samples)
            shown = f"{unit}/s" if metric == "work_per_s" else metric_unit
            line = (f"{name:<14} {metric:<12} {shown:<6} {median:>11.5g} "
                    f"{q1:>11.5g} {q3:>11.5g} {len(samples):>4}")
            per_run = [r["metrics"][metric] for r in group
                       if metric in r.get("metrics", {})]
            if runs > 1 and len(per_run) > 1:
                r1, rmed, r3 = quartiles(per_run)
                line += f" {(r3 - r1) / rmed:>7.2%} {bounds[metric]:>6.0%}"
            print(line)


def print_per_layer(records) -> None:
    names = [r["workload"] for r in records]
    print("\nper-layer (one traced repetition per workload)")
    print(f"{'metric':<34} {'unit':<10} "
          + " ".join(f"{n:>13}" for n in names))
    for metric, unit in spans.PER_LAYER:
        values = [r.get("metrics", {}).get(metric) for r in records]
        cells = " ".join(f"{v:>13.5g}" if v is not None else f"{'-':>13}"
                         for v in values)
        print(f"{metric:<34} {unit:<10} {cells}")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def git_revision() -> str:
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() or "unknown"


def append_history(records, args) -> None:
    """One compact row: per workload and metric, [median, q1, q3] over
    the runs' values."""
    row = {
        "sha": git_revision(),
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "host": host_fingerprint(),
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    for name, group in by_workload(records).items():
        row["workloads"][name] = {
            metric: [float(f"{v:.6g}") for v in quartiles(
                [r["metrics"][metric] for r in group if "metrics" in r])]
            for metric, _ in harness.END_TO_END
            if any("metrics" in r for r in group)
        }
        row["workloads"][name]["correct"] = all(r["correct"] for r in group)
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    print(f"\nappended a row to {HISTORY.relative_to(ROOT)}")


def pin(records, seed: int) -> None:
    """Pin each workload's digest when every output of this seed agreed."""
    if any(r["smoke"] for r in records):
        print("\nnot pinning: smoke outputs are not the benchmark's")
        return
    digests = {}
    for name, group in by_workload(
            r for r in records if r["seed"] == seed).items():
        seen = {d for r in group for d in r["digests"]}
        failed = [e for r in group for e in r.get("errors", [])
                  if not e.startswith("output digest")]
        if len(seen) != 1 or failed:
            print(f"\nnot pinning {name}: outputs disagree or failed")
            continue
        digests[name] = seen.pop()
    path = harness.EXPECTED / f"seed-{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "digests": digests},
                               indent=2, sort_keys=True) + "\n")
    print(f"\npinned {len(digests)} digests to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
