"""Measure one workload: set-up probes, warm-up, timed repetitions,
output checks and, on request, one traced repetition."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import spans
import suite

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
RUN_PY = BENCH / "run.py"

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Timed repetitions run until the time budget is spent, and at least
#: this many, so every median has three samples.
MIN_REPS = 3
SMOKE_REPS = 2
#: Fresh processes timed from spawn to inputs ready; setup_s is their
#: median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


#: Host-speed calibration.  On a shared host the speed of one core
#: drifts by up to 2x for minutes at a time, so every host time (set-up
#: probes, construction, repetitions) is rescaled by a fixed kernel
#: (interpreter dict work plus a numpy sort, like the program's mix)
#: timed before and after it: wall_s is the wall time a repetition
#: would take on a host where the kernel takes REFERENCE_KERNEL_S.  That is about this kernel's
#: time on the 2-core x86_64 host (Python 3.11, numpy 2.4) where the
#: benchmark was defined, so wall_s reads as seconds on that host.
REFERENCE_KERNEL_S = 0.005
#: The kernel slows about 2x in the host's slow state, the workloads
#: about 1.6-1.7x: a repetition scales as kernel time ** 0.75.  Fitted
#: on one ten-seed set of every workload and checked on another.
KERNEL_EXPONENT = 0.75
KERNEL_RUNS = 10
_KERNEL_ARRAY = np.random.default_rng(1).random(100_000)


def at_reference_speed(seconds: float, kernels) -> float:
    """A host time measured between two kernel timings, rescaled to the
    reference host speed."""
    return seconds * (REFERENCE_KERNEL_S
                      / statistics.fmean(kernels)) ** KERNEL_EXPONENT


def kernel_s() -> float:
    """Mean time of the calibration kernel over KERNEL_RUNS runs: the
    mean, because the host alternates between fast and slow states and
    a repetition pays their average."""
    started = time.perf_counter()
    for _ in range(KERNEL_RUNS):
        table = {}
        for i in range(30_000):
            key = (i * 2654435761) & 4095
            table[key] = table.pop(key, 0) + 1
        _KERNEL_ARRAY.copy().sort()
    return (time.perf_counter() - started) / KERNEL_RUNS


def expected_digests(seed: int) -> dict:
    """Pinned output digests for ``seed`` ({} when none are pinned)."""
    path = EXPECTED / f"seed-{seed}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["digests"]


@contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the program and built the workload's inputs (and exited)."""
    command = [sys.executable, str(RUN_PY), "--probe-setup",
               "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                   timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - started


class Checker:
    """Counts checked outputs and failures; every repetition's digest
    must equal the pinned one, or with none pinned, the first one."""

    def __init__(self, pinned: str = None):
        self.pinned = pinned
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, output, error: str = "") -> None:
        self.attempted += 1
        value = suite.digest(output)
        self.digests.append(value)
        want = self.pinned or self.digests[0]
        if error:
            self.fail(error)
        elif value != want:
            self.fail(f"output digest {value[:12]} != expected {want[:12]}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def measure(workload, seed: int, seconds: float, trace: bool = False,
            smoke: bool = False) -> dict:
    """Run one workload and return its record (see ``bench/README.md``)."""
    started_at = time.time()
    kernels = [kernel_s()]
    host_probes, probes = [], []
    for _ in range(1 if smoke else SETUP_PROBES):
        host_probes.append(probe_setup(workload.name, seed, smoke))
        kernels.append(kernel_s())
        probes.append(at_reference_speed(host_probes[-1], kernels[-2:]))
    inputs = workload.prepare(seed, smoke)
    # Warm-up: one discarded smoke-sized repetition runs every lazy
    # import and first-call path at a fraction of a full one's cost.
    with scratch_dir() as path:
        workload.run(workload.build(workload.prepare(seed, True), path))

    checker = Checker(None if smoke else
                      expected_digests(seed).get(workload.name))
    host_walls, walls, rates, builds = [], [], [], []
    kernels.append(kernel_s())
    min_reps = SMOKE_REPS if smoke else MIN_REPS
    started = time.perf_counter()
    while (checker.attempted < min_reps
           or time.perf_counter() - started < seconds):
        try:
            build, wall, outcome = repetition(workload, inputs)
        except Exception:   # a failed repetition is a result
            checker.attempted += 1
            checker.fail(traceback.format_exc(limit=4))
            outcome = None
        kernels.append(kernel_s())
        if outcome is None:
            continue
        checker.check(outcome.output, outcome.error)
        host_walls.append(wall)
        walls.append(at_reference_speed(wall, kernels[-2:]))
        builds.append(at_reference_speed(build, kernels[-2:]))
        rates.append(outcome.work / walls[-1])

    if workload.reference is not None:
        with scratch_dir() as path:
            checker.check(workload.reference(inputs, path))

    record = {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "trace": int(trace),
        "started": started_at,
        "unit": workload.unit,
        "samples": {
            "wall_s": walls,
            "work_per_s": rates,
            "setup_s": [p + statistics.median(builds or [0.0])
                        for p in probes],
            "host_wall_s": host_walls,
            "host_probe_s": host_probes,
            "kernel_s": kernels,
        },
    }
    if walls:
        record["metrics"] = {
            "wall_s": statistics.median(walls),
            "work_per_s": statistics.median(rates),
            "setup_s": statistics.median(record["samples"]["setup_s"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if trace and walls:
        record["metrics"] = traced_repetition(workload, inputs, seed,
                                              statistics.median(walls),
                                              checker)
    record.update(correct=checker.correct, attempted=checker.attempted,
                  failed=checker.failed, errors=checker.errors,
                  digests=sorted(set(checker.digests)),
                  pinned=checker.pinned is not None)
    return record


def repetition(workload, inputs):
    """One timed repetition: (construction s, wall s, outcome)."""
    with scratch_dir() as path:
        t0 = time.perf_counter()
        state = workload.build(inputs, path)
        t1 = time.perf_counter()
        outcome = workload.run(state)
        t2 = time.perf_counter()
    return t1 - t0, t2 - t1, outcome


def traced_repetition(workload, inputs, seed: int, untraced_wall: float,
                      checker: Checker) -> dict:
    """One repetition under the span recorder; the per-layer metrics.
    ``untraced_wall`` is at the reference host speed, and so are the
    per-layer times."""
    kernels = [kernel_s()]
    with scratch_dir() as path, spans.SpanRecorder() as recorder:
        state = workload.build(inputs, path)
        recorder.reset()    # spans of construction are not the rep's
        started = time.perf_counter()
        outcome = recorder.run_root(lambda: workload.run(state))
        traced_wall = time.perf_counter() - started
    kernels.append(kernel_s())
    checker.check(outcome.output, outcome.error)
    summary = recorder.summary()
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "wall_s": traced_wall,
        "layers": {name: {k: v for k, v in stats.items() if k != "durations"}
                   for name, stats in summary.items()},
        "spans": recorder.to_json(),
    }))
    return spans.layer_metrics(summary, traced_wall, untraced_wall,
                               outcome.facts,
                               scale=at_reference_speed(1.0, kernels))
