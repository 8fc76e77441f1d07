"""Preemption-tolerant parallel engine for (workload x scheme x config)
sweeps.

Every figure and ablation is a grid of independent simulation cells:
describe each cell with picklable data, fan the cells across
``concurrent.futures.ProcessPoolExecutor`` workers, and reassemble the
results in submission order so the output is deterministic regardless
of completion order.

Determinism contract: a cell's result is a pure function of the cell
description (every cell derives its own seed), and ``jobs=1`` executes
the *same* runner in-process, so ``jobs=1`` and ``jobs=N`` produce
bit-identical results.  On top of that, the engine is built on
:mod:`repro.runtime` to survive the failure modes of long campaigns:

* **checkpoint/resume** — with ``checkpoint=<dir>`` every completed
  cell is journaled (``checkpoint/v1``, fsync'd JSONL) under a
  content-addressed key; ``resume=True`` skips journaled cells and
  restores their exact outcomes, so an interrupted sweep resumed later
  merges to results bit-identical to an uninterrupted run.
* **worker supervision** — a watchdog tracks when each in-flight cell
  actually started running (the per-worker heartbeat); a cell over its
  ``timeout`` grace gets its worker killed and replaced.  Failures are
  classified (``timeout`` / ``crashed`` / ``oom`` / ``retryable`` /
  ``fatal``) and retried per class with exponential backoff +
  decorrelated jitter.
* **graceful shutdown** — the first SIGINT/SIGTERM drains in-flight
  cells, flushes the journal, and returns partial outcomes (unfinished
  cells marked ``interrupted``); a second signal hard-stops.
* **circuit breaker** — ``max_failures=N`` raises a typed
  :class:`~repro.runtime.TooManyFailuresError` after N terminal cell
  failures instead of grinding through a doomed matrix.

``run_bench`` runs the pinned benchmark sweep (5 workloads x 3 schemes)
serially, in parallel, and once more with a cold content-addressed
result store attached (the store-overhead leg), verifies bit-equality
across all legs, and emits ``BENCH_perf.json`` (via the crash-safe
atomic writer) so the repo accumulates a perf trajectory.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.runtime import (
    AttemptRecord,
    CheckpointJournal,
    DEFAULT_LEASE_TTL,
    ResultStore,
    RetryPolicy,
    SignalDrain,
    TooManyFailuresError,
    WorkQueue,
    atomic_write_json,
    cell_key,
    register_lease_instruments,
    register_store_instruments,
    sweep_fingerprint,
)
from repro.runtime.supervision import CRASHED, TIMEOUT, CellState
from repro.schemes import PAPER_SCHEMES
from repro.sim.config import SystemConfig
from repro.sim.system import SecureSystem, _workload_seed
from repro.telemetry import SCHEMA_VERSION as TELEMETRY_SCHEMA
from repro.telemetry import MetricRegistry

#: Schema stamp for :func:`sweep_report` payloads.
SWEEP_SCHEMA = "sweep/v1"


@dataclass(frozen=True)
class SimCell:
    """One picklable point of a performance sweep.

    ``workload`` is a ``(factory_name, args, kwargs)`` triple resolved
    against :mod:`repro.workloads` inside the worker (closures cannot
    cross process boundaries).
    """

    workload: tuple
    scheme: str
    config: SystemConfig = None
    seed: int = 0
    warmup_refs: int = 0
    #: Attach the differential oracle for the run (see
    #: ``SecureSystem.run(verify=...)``).  Part of the cell description,
    #: so verified sweeps keep the jobs=1 == jobs=N bit-equality
    #: contract — including the embedded ``verify`` report.
    verify: bool = False

    @property
    def label(self) -> str:
        name, args, _ = self.workload
        suffix = "".join(str(a) for a in args if isinstance(a, int))
        return f"{name}{suffix}/{self.scheme}"


@dataclass
class CellOutcome:
    """What happened to one cell: its result or its classified failure.

    ``attempts`` counts runner *starts* (exact even under jobs=N
    out-of-order completion — each submission increments it exactly
    once); ``attempt_history`` records every failed attempt with its
    failure class and backoff; ``resumed`` marks outcomes restored
    from a checkpoint journal instead of executed this run; ``reused``
    marks outcomes served from the shared content-addressed result
    store (possibly computed by another host).
    """

    index: int
    label: str
    ok: bool
    result: object = None
    error: str = ""
    attempts: int = 1
    wall_seconds: float = 0.0
    failure_class: str = ""
    resumed: bool = False
    reused: bool = False
    attempt_history: list = field(default_factory=list)


@dataclass
class SweepProgress:
    """Snapshot handed to the progress callback after each completion."""

    done: int
    total: int
    elapsed_seconds: float
    #: Seconds left at the mean observed fresh-cell rate, or ``None``
    #: when no fresh cell has completed yet (every done cell was
    #: restored from a checkpoint) and work remains — unknown, not 0.
    eta_seconds: float
    label: str
    ok: bool
    #: True when this cell was restored from the checkpoint journal
    #: rather than executed (resumed cells complete "instantly" and are
    #: excluded from the ETA rate estimate).
    resumed: bool = False
    #: True when this cell was served from the shared result store
    #: (also "instant", also excluded from the ETA rate estimate — a
    #: warm store must not make the remaining fresh cells look free).
    reused: bool = False


def run_sim_cell(cell: SimCell):
    """Execute one simulation cell; pure function of the cell."""
    from repro.workloads import make_workload

    workload = make_workload(cell.workload, seed=_workload_seed(cell.seed))
    system = SecureSystem(
        scheme=cell.scheme,
        config=cell.config,
        functional_crypto=cell.verify,
        rng=np.random.default_rng(cell.seed),
    )
    return system.run(workload, warmup_refs=cell.warmup_refs,
                      verify=cell.verify)


def _timed_call(runner, cell):
    """Worker-side wrapper: (result, in-worker wall seconds)."""
    start = time.perf_counter()
    result = runner(cell)
    return result, time.perf_counter() - start


class SweepEngine:
    """Fan cells across processes; collect deterministic, fault-tolerant
    results.

    Parameters
    ----------
    cells:
        Sequence of picklable cell descriptions (:class:`SimCell` for
        performance sweeps; any picklable object for a custom runner).
    runner:
        Module-level callable ``runner(cell) -> result``.  Must be
        picklable and a pure function of the cell for the
        ``jobs=1 == jobs=N`` determinism guarantee to hold.
    jobs:
        Worker processes.  ``jobs <= 1`` runs in-process (same runner,
        identical results, no pickling requirement).
    timeout:
        Per-cell running-time grace in seconds (None = wait forever).
        The clock starts when the cell is *observed running* on a
        worker — queue wait does not count — and an over-budget cell
        gets its worker killed and replaced, the failure classified
        ``timeout`` and retried per the policy.  Requires ``jobs >= 2``
        (an in-process cell cannot be preempted).
    retries:
        Extra attempts for a failing cell (shorthand for the default
        :class:`~repro.runtime.RetryPolicy`).
    retry_policy:
        Full per-class retry/backoff policy; overrides ``retries``.
    progress:
        Optional callable receiving a :class:`SweepProgress` after each
        cell completes (ETA from mean observed fresh-cell latency).
    checkpoint:
        Checkpoint directory (str/path), or a factory
        ``(fingerprint, total_cells) -> CheckpointJournal`` for tests.
        Completed cells are journaled crash-safely as they finish.
    resume:
        With ``checkpoint``, load the existing journal and skip every
        already-completed cell (restoring its exact outcome).
    max_failures:
        Circuit breaker: raise :class:`TooManyFailuresError` after this
        many terminal cell failures.
    store:
        Shared content-addressed result store: a directory path (may
        live on a network filesystem shared by a fleet) or a prebuilt
        :class:`~repro.runtime.ResultStore`.  Cells whose key is
        already present are served from the store (``reused``
        outcomes); fresh completions are published back.  An
        unreachable or read-only store degrades to local compute with
        warning counters — it never fails the sweep.
    queue:
        Multi-host work-queue directory (or prebuilt
        :class:`~repro.runtime.WorkQueue`).  Arms fleet mode: this
        engine publishes (or joins) the campaign manifest and claims
        cells via fsync'd lease files with heartbeat renewal; other
        ``repro fleet worker`` processes may drain the same campaign
        concurrently.  Implies a store (defaulting to
        ``<queue>/store``) — the store is what makes the queue's
        at-least-once execution exactly-once-effective.
    lease_ttl:
        Seconds before an unrenewed lease is presumed abandoned
        (dead-host detection) and reclaimable.
    registry:
        Optional :class:`~repro.telemetry.MetricRegistry` to register
        the runtime instruments in (``runtime.retries``,
        ``runtime.worker_restarts``, ``runtime.cells_resumed``,
        ``runtime.cells_reused``, ``runtime.failures`` by class,
        ``runtime.heartbeat_age_s``, plus the ``runtime.store.*`` and
        ``runtime.lease.*`` fleet families); one is created per engine
        otherwise.  Sharing a registry across engines (e.g. the
        per-wave engines of a Monte-Carlo campaign) accumulates one
        combined time series.
    """

    def __init__(self, cells, runner=run_sim_cell, *, jobs: int = 1,
                 timeout: float = None, retries: int = 1, progress=None,
                 checkpoint=None, resume: bool = False,
                 max_failures: int = None, retry_policy: RetryPolicy = None,
                 store=None, queue=None, lease_ttl: float = DEFAULT_LEASE_TTL,
                 registry: MetricRegistry = None):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if max_failures is not None and max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        self.cells = list(cells)
        self.runner = runner
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = retries
        self.policy = retry_policy or RetryPolicy(retries=retries)
        self.progress = progress
        self.checkpoint = checkpoint
        self.resume = resume
        self.max_failures = max_failures
        self.store_spec = store
        self.queue_spec = queue
        self.lease_ttl = lease_ttl
        if queue is not None and self.jobs > 1:
            warnings.warn(
                "queue mode runs cells one at a time per worker process; "
                "start more `repro fleet worker` processes for "
                "parallelism (jobs ignored)", RuntimeWarning,
            )

        self.registry = MetricRegistry() if registry is None else registry
        ensure = self.registry.ensure
        self._m_retries = ensure(
            "counter", "runtime.retries",
            help="cell attempts retried after a failure")
        self._m_restarts = ensure(
            "counter", "runtime.worker_restarts",
            help="worker pools killed and replaced (hung or crashed)")
        self._m_resumed = ensure(
            "counter", "runtime.cells_resumed",
            help="cells restored from the checkpoint journal")
        self._m_reused = ensure(
            "counter", "runtime.cells_reused",
            help="cells served from the shared result store")
        self._m_completed = ensure(
            "counter", "runtime.cells_completed",
            help="cells completed this run")
        self._m_failures = ensure(
            "labeled_counter", "runtime.failures", label="failure_class",
            help="terminal cell failures by class")
        self._m_heartbeat = ensure(
            "gauge", "runtime.heartbeat_age_s",
            help="age of the oldest in-flight cell heartbeat")
        # The fleet instrument families are registered unconditionally
        # so every sweep/v1 runtime block has a uniform shape, armed
        # fleet or not.
        register_store_instruments(self.registry)
        register_lease_instruments(self.registry)

        #: Populated by :meth:`run`.
        self.interrupted = False
        self.signal_name = ""
        self.failures: list = []
        self.resumed_count = 0
        self.reused_count = 0
        self._store = None
        self._queue = None

    # -- public API ----------------------------------------------------

    def run(self) -> list:
        """Execute every cell; outcomes in cell order (a failing cell
        degrades to ``CellOutcome.ok == False`` instead of raising —
        only the ``max_failures`` breaker and checkpoint/journal errors
        raise)."""
        if not self.cells:
            return []
        self.interrupted = False
        self.signal_name = ""
        self.failures = []
        self.resumed_count = 0
        self.reused_count = 0
        self._ensure_keys()
        journal = self._open_journal()
        self._queue = self._open_queue()
        self._store = self._open_store()
        outcomes = [None] * len(self.cells)
        drain = SignalDrain()
        try:
            with drain:
                self._restore_resumed(journal, outcomes)
                if self._queue is not None:
                    self._run_queue(outcomes, journal, drain)
                else:
                    if self._store is not None:
                        self._restore_reused(outcomes)
                    if self.jobs == 1:
                        self._run_serial(outcomes, journal, drain)
                    else:
                        self._run_parallel(outcomes, journal, drain)
        finally:
            if journal is not None:
                journal.close()
        self.interrupted = drain.requested and any(
            o is None for o in outcomes
        )
        self.signal_name = drain.signal_name
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[index] = CellOutcome(
                    index=index,
                    label=self._label(index),
                    ok=False,
                    error=(f"interrupted by {drain.signal_name}"
                           if drain.signal_name else "interrupted"),
                    attempts=0,
                    failure_class="interrupted",
                )
        return outcomes

    # -- shared plumbing -----------------------------------------------

    def _label(self, index: int) -> str:
        cell = self.cells[index]
        return getattr(cell, "label", str(cell))

    def _ensure_keys(self) -> None:
        """Content-address every cell when any keyed feature is armed
        (checkpoint journal, result store, work queue)."""
        if (self.checkpoint is not None or self.store_spec is not None
                or self.queue_spec is not None):
            self._keys = [cell_key(cell, self.runner)
                          for cell in self.cells]

    def _open_journal(self):
        if self.checkpoint is None:
            if self.resume:
                raise ValueError("resume=True requires checkpoint=")
            return None
        fingerprint = sweep_fingerprint(self._keys)
        if callable(self.checkpoint) and not isinstance(
                self.checkpoint, (str, bytes)):
            return self.checkpoint(fingerprint, len(self.cells))
        return CheckpointJournal(
            self.checkpoint, fingerprint=fingerprint,
            total_cells=len(self.cells), resume=self.resume,
        )

    def _open_queue(self):
        if self.queue_spec is None:
            return None
        if isinstance(self.queue_spec, WorkQueue):
            queue = self.queue_spec
        else:
            queue = WorkQueue(self.queue_spec, ttl=self.lease_ttl,
                              registry=self.registry)
        queue.ensure_campaign(self.cells, self.runner,
                              sweep_fingerprint(self._keys))
        return queue

    def _open_store(self):
        spec = self.store_spec
        if spec is None and self._queue is not None:
            # Queue mode without an explicit store: the store is what
            # makes at-least-once execution exactly-once-effective, so
            # default it to a sibling of the queue.
            spec = os.path.join(self._queue.directory, "store")
        if spec is None:
            return None
        if isinstance(spec, ResultStore):
            return spec
        return ResultStore(spec, registry=self.registry)

    def _restore_resumed(self, journal, outcomes) -> None:
        if journal is None or not journal.completed:
            return
        started = time.perf_counter()
        for index in range(len(self.cells)):
            record = journal.completed.get(self._keys[index])
            if record is None:
                continue
            outcomes[index] = CellOutcome(
                index=index,
                label=record["label"],
                ok=True,
                result=journal.restore_result(record),
                attempts=record["attempts"],
                wall_seconds=record["wall_seconds"],
                failure_class=record.get("failure_class", ""),
                resumed=True,
            )
            self.resumed_count += 1
            self._m_resumed.n += 1
            self._report(outcomes, started, outcomes[index])

    def _restore_reused(self, outcomes) -> None:
        """Pre-pass: serve every cell already in the shared store."""
        started = time.perf_counter()
        for index in range(len(self.cells)):
            if outcomes[index] is None:
                self._restore_from_store(outcomes, started, index)

    def _restore_from_store(self, outcomes, started: float,
                            index: int) -> bool:
        """Serve one cell from the store; ``False`` on a (valid) miss.

        A corrupt entry was already quarantined by the store layer and
        reads as a miss, so the cell is recomputed — never served."""
        record = self._store.get(self._keys[index])
        if record is None:
            return False
        outcomes[index] = CellOutcome(
            index=index,
            label=record.get("label", self._label(index)),
            ok=True,
            result=record["result"],
            attempts=record.get("attempts", 1),
            wall_seconds=record.get("wall_seconds", 0.0),
            reused=True,
        )
        self.reused_count += 1
        self._m_reused.n += 1
        self._report(outcomes, started, outcomes[index])
        return True

    def _adopt_poisoned(self, outcomes, started: float, index: int,
                        record: dict) -> None:
        """Surface another worker's quarantined terminal failure as this
        run's outcome for the cell (identical classified failure, no
        local retry burn)."""
        outcome = CellOutcome(
            index=index,
            label=record.get("label", self._label(index)),
            ok=False,
            error=record.get("error", "poisoned by another worker"),
            attempts=record.get("attempts", 0),
            failure_class=record.get("failure_class", "fatal"),
            attempt_history=record.get("attempt_history", []),
        )
        outcomes[index] = outcome
        self.failures.append(outcome)
        self._m_failures[outcome.failure_class] += 1
        self._report(outcomes, started, outcome)
        if (self.max_failures is not None
                and len(self.failures) >= self.max_failures):
            raise TooManyFailuresError(self.max_failures, self.failures)

    def _publish_success(self, journal, index: int, outcome) -> None:
        if journal is not None:
            journal.record(self._keys[index], outcome)
        if self._store is not None and not outcome.reused:
            self._store.put(self._keys[index], outcome)

    def _report(self, outcomes, started: float, outcome) -> None:
        if self.progress is None:
            return
        done = sum(1 for o in outcomes if o is not None)
        # ETA extrapolates from *fresh* completions only: journaled
        # (resumed) and store-served (reused) cells complete in
        # microseconds and would otherwise collapse the rate estimate
        # into an absurd ETA on a warm store.
        fresh = done - self.resumed_count - self.reused_count
        elapsed = time.perf_counter() - started
        remaining = len(self.cells) - done
        if fresh > 0:
            eta = (elapsed / fresh) * remaining
        elif remaining == 0:
            eta = 0.0
        else:
            # No fresh completions yet (e.g. every done cell was
            # restored from the checkpoint): there is no observed rate,
            # so the ETA is unknown — not zero.
            eta = None
        self.progress(SweepProgress(
            done=done,
            total=len(self.cells),
            elapsed_seconds=elapsed,
            eta_seconds=eta,
            label=outcome.label,
            ok=outcome.ok,
            resumed=outcome.resumed,
            reused=outcome.reused,
        ))

    def _finalize_failure(self, outcomes, journal, started, state,
                          failure_class: str, error: str, *,
                          poison: bool = False) -> None:
        outcome = CellOutcome(
            index=state.index,
            label=self._label(state.index),
            ok=False,
            error=error,
            attempts=state.attempts,
            failure_class=failure_class,
            attempt_history=[r.to_dict() for r in state.history],
        )
        outcomes[state.index] = outcome
        self.failures.append(outcome)
        self._m_failures[failure_class] += 1
        if poison and self._queue is not None:
            # Retry budget truly exhausted (not a local drain): publish
            # the classified failure so the rest of the fleet skips the
            # cell instead of re-discovering it.
            self._queue.poison(self._keys[state.index], outcome)
        self._report(outcomes, started, outcome)
        if (self.max_failures is not None
                and len(self.failures) >= self.max_failures):
            raise TooManyFailuresError(self.max_failures, self.failures)

    def _grant_retry(self, state, failure_class: str, error: str) -> float:
        """Record the failed attempt; return the backoff delay, or a
        negative value when the cell's class budget is exhausted."""
        strikes = sum(
            1 for r in state.history if r.failure_class == failure_class
        ) + 1
        record = AttemptRecord(
            attempt=state.attempts, failure_class=failure_class, error=error,
        )
        state.history.append(record)
        if strikes >= self.policy.max_attempts(failure_class):
            return -1.0
        key = (self._keys[state.index] if hasattr(self, "_keys")
               else f"cell-{state.index}")
        record.delay_s = self.policy.delay(key, state.attempts)
        self._m_retries.n += 1
        return record.delay_s

    # -- serial --------------------------------------------------------

    def _run_serial(self, outcomes, journal, drain) -> None:
        started = time.perf_counter()
        for index in range(len(self.cells)):
            if outcomes[index] is not None:   # resumed or store-served
                continue
            if drain.requested:
                return
            self._run_cell_serial(outcomes, journal, drain, started, index)

    def _run_cell_serial(self, outcomes, journal, drain,
                         started: float, index: int) -> None:
        """Execute one cell in-process with the full retry policy."""
        state = CellState(index=index)
        while True:
            state.attempts += 1
            start = time.perf_counter()
            try:
                result = self.runner(self.cells[index])
            except Exception as exc:   # degrade, don't kill the sweep
                failure_class = self.policy.classify(exc)
                error = f"{type(exc).__name__}: {exc}"
                delay = self._grant_retry(state, failure_class, error)
                if delay < 0 or drain.requested:
                    self._finalize_failure(outcomes, journal, started,
                                           state, failure_class, error,
                                           poison=delay < 0)
                    return
                if delay:
                    time.sleep(delay)
                continue
            outcome = CellOutcome(
                index=index, label=self._label(index), ok=True,
                result=result, attempts=state.attempts,
                wall_seconds=time.perf_counter() - start,
                attempt_history=[r.to_dict() for r in state.history],
            )
            outcomes[index] = outcome
            self._m_completed.n += 1
            self._publish_success(journal, index, outcome)
            self._report(outcomes, started, outcome)
            return

    # -- queue (fleet) -------------------------------------------------

    def _run_queue(self, outcomes, journal, drain) -> None:
        """Fleet mode: repeatedly scan the cell list, serving finished
        cells from the store, adopting poisoned ones, and claiming the
        rest via leases.

        The scan-until-drained structure is what makes a partially dead
        fleet converge: a cell leased by a worker that died simply
        expires, and *some* surviving worker's next pass reclaims it.
        With a fully degraded (unreachable) store the loop still
        terminates — every claim failure or store miss is answered by
        local compute on whoever holds the lease, and this worker's own
        outcomes never depend on reading the store back.
        """
        started = time.perf_counter()
        queue = self._queue
        poll = max(0.05, min(1.0, queue.ttl / 6.0))
        while not drain.requested:
            progressed = False
            remaining = [index for index, done in enumerate(outcomes)
                         if done is None]
            if not remaining:
                return
            for index in remaining:
                if drain.requested:
                    return
                key = self._keys[index]
                if (self._store is not None
                        and self._restore_from_store(outcomes, started,
                                                     index)):
                    progressed = True
                    continue
                record = queue.poisoned(key)
                if record is not None:
                    self._adopt_poisoned(outcomes, started, index, record)
                    progressed = True
                    continue
                lease = queue.try_claim(key)
                if lease is None:
                    continue   # validly held by another live worker
                try:
                    with queue.heartbeat(lease):
                        self._run_cell_serial(outcomes, journal, drain,
                                              started, index)
                finally:
                    queue.release(lease)
                if outcomes[index] is not None:
                    progressed = True
            if not progressed:
                # Every remaining cell is leased by someone else: wait
                # for the fleet (a completed cell appears in the store;
                # a dead worker's lease expires and gets reclaimed).
                time.sleep(poll)

    # -- parallel ------------------------------------------------------

    def _run_parallel(self, outcomes, journal, drain) -> None:
        started = time.perf_counter()
        states = {
            index: CellState(index=index)
            for index in range(len(self.cells))
            if outcomes[index] is None
        }
        ready = deque(sorted(states))
        delayed = []                 # (due_time, index), unsorted is fine
        pending = {}                 # future -> index
        heartbeat = {}               # future -> started-running time | None
        future_gen = {}              # future -> pool generation
        pool_gen = 0
        pool = ProcessPoolExecutor(max_workers=self.jobs)

        def submit(index):
            states[index].attempts += 1
            future = pool.submit(_timed_call, self.runner, self.cells[index])
            pending[future] = index
            heartbeat[future] = None
            future_gen[future] = pool_gen

        def requeue(index, delay=0.0, now=None):
            if delay > 0:
                delayed.append(((now or time.perf_counter()) + delay, index))
            else:
                ready.append(index)

        def replace_pool(old_pool):
            nonlocal pool_gen
            # ProcessPoolExecutor has no "kill one task", so the
            # watchdog terminates the whole pool; every in-flight cell
            # is a pure function, so innocents just rerun.
            for proc in list(getattr(old_pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):
                    pass
            old_pool.shutdown(wait=False, cancel_futures=True)
            pool_gen += 1
            self._m_restarts.n += 1
            return ProcessPoolExecutor(max_workers=self.jobs)

        def fail_or_retry(index, failure_class, error, now):
            state = states[index]
            delay = self._grant_retry(state, failure_class, error)
            if delay < 0 or drain.requested:
                self._finalize_failure(outcomes, journal, started, state,
                                       failure_class, error)
            else:
                requeue(index, delay, now)

        try:
            while pending or ready or delayed:
                now = time.perf_counter()
                if drain.requested:
                    # Stop launching; unfinished cells surface as
                    # ``interrupted`` outcomes after the drain.
                    ready.clear()
                    delayed.clear()
                else:
                    due = [i for t, i in delayed if t <= now]
                    if due:
                        delayed[:] = [(t, i) for t, i in delayed if t > now]
                        ready.extend(due)
                    # Throttle in-flight to the worker count: a queued
                    # cell holds no worker, so its timeout clock (and
                    # heartbeat) only starts once it is truly running.
                    while ready and len(pending) < self.jobs:
                        submit(ready.popleft())
                if not pending:
                    if not ready and delayed:
                        next_due = min(t for t, _ in delayed)
                        time.sleep(min(0.25, max(0.0, next_due - now)))
                    continue

                finished, _ = wait(
                    pending, timeout=0.25, return_when=FIRST_COMPLETED
                )
                now = time.perf_counter()
                pool_broken = False
                for future in finished:
                    index = pending.pop(future)
                    beat = heartbeat.pop(future)
                    gen = future_gen.pop(future)
                    try:
                        result, wall = future.result()
                    except CancelledError:
                        continue   # drained before it started
                    except BrokenExecutor as exc:
                        if gen == pool_gen:
                            pool_broken = True
                        error = f"{type(exc).__name__}: worker died"
                        state = states[index]
                        if beat is None and state.crash_strikes < 1:
                            # Collateral damage: the pool died before
                            # this cell was even observed running.
                            # Requeue once for free; a repeat offender
                            # is charged as ``crashed``.
                            state.crash_strikes += 1
                            requeue(index)
                        else:
                            fail_or_retry(index, CRASHED, error, now)
                        continue
                    except Exception as exc:
                        fail_or_retry(
                            index, self.policy.classify(exc),
                            f"{type(exc).__name__}: {exc}", now,
                        )
                        continue
                    state = states[index]
                    outcome = CellOutcome(
                        index=index, label=self._label(index), ok=True,
                        result=result, attempts=state.attempts,
                        wall_seconds=wall,
                        attempt_history=[r.to_dict() for r in state.history],
                    )
                    outcomes[index] = outcome
                    self._m_completed.n += 1
                    self._publish_success(journal, index, outcome)
                    self._report(outcomes, started, outcome)
                if pool_broken:
                    # Surviving futures of the broken pool will also
                    # raise BrokenExecutor; the loop above handles them
                    # on subsequent ticks against the *new* generation.
                    pool = replace_pool(pool)

                # Watchdog: start each cell's clock when it is observed
                # running; kill + replace the pool when one overstays.
                hung = []
                for future in pending:
                    if heartbeat[future] is None and future.running():
                        heartbeat[future] = now
                    beat = heartbeat[future]
                    if (self.timeout is not None and beat is not None
                            and now - beat > self.timeout):
                        hung.append(future)
                if hung:
                    survivors = [f for f in pending if f not in hung]
                    for future in hung:
                        index = pending.pop(future)
                        heartbeat.pop(future)
                        future_gen.pop(future)
                        fail_or_retry(
                            index, TIMEOUT,
                            f"timeout after {self.timeout:.1f}s "
                            f"(attempt {states[index].attempts})", now,
                        )
                    for future in survivors:
                        index = pending.pop(future)
                        heartbeat.pop(future)
                        future_gen.pop(future)
                        requeue(index)   # innocent bystanders: free rerun
                    pool = replace_pool(pool)

                ages = [now - beat for beat in heartbeat.values()
                        if beat is not None]
                self._m_heartbeat.v = round(max(ages), 3) if ages else 0
        finally:
            # wait=False so an abandoned (hung but unkillable) worker
            # can't wedge the sweep's exit.
            pool.shutdown(wait=False, cancel_futures=True)
            self._m_heartbeat.v = 0


# ----------------------------------------------------------------------
# sweep/v1 report


def _result_dict(result):
    if result is None:
        return None
    if hasattr(result, "to_dict"):
        return result.to_dict()
    try:
        return asdict(result)
    except TypeError:
        return result if isinstance(result, (dict, list, int, float, str,
                                             bool)) else repr(result)


def salvage_counts(outcomes) -> dict:
    """How much of the sweep survived: the ``sweep/v1`` salvage block."""
    return {
        "total": len(outcomes),
        "completed": sum(1 for o in outcomes if o.ok),
        "resumed": sum(1 for o in outcomes if o.resumed),
        "reused": sum(1 for o in outcomes if o.reused),
        "failed": sum(1 for o in outcomes
                      if not o.ok and o.failure_class != "interrupted"),
        "interrupted": sum(1 for o in outcomes
                           if o.failure_class == "interrupted"),
    }


def sweep_report(engine: SweepEngine, outcomes, *, kind: str = "sweep",
                 extra: dict = None) -> dict:
    """Schema-stamped ``sweep/v1`` payload for a (possibly partial) run.

    ``results`` maps each cell label to its simulator output (or typed
    failure) and is a pure function of the cell descriptions, so two
    reports — one uninterrupted, one interrupted-and-resumed — can be
    diffed for bit-equality on that key alone (``cells`` carries
    wall-clock timings, which legitimately differ run to run).
    """
    labels = {}
    results = {}
    for outcome in outcomes:
        label = outcome.label
        if label in labels:   # disambiguate duplicate labels by index
            label = f"{label}#{outcome.index}"
        labels[label] = outcome
        if outcome.ok:
            results[label] = _result_dict(outcome.result)
        else:
            results[label] = {
                "error": outcome.error,
                "failure_class": outcome.failure_class,
            }
    payload = {
        "schema": SWEEP_SCHEMA,
        "kind": kind,
        "telemetry_schema": TELEMETRY_SCHEMA,
        "interrupted": engine.interrupted,
        "salvage": salvage_counts(outcomes),
        "runtime": engine.registry.snapshot(),
        "cells": [
            {
                "index": o.index,
                "label": o.label,
                "ok": o.ok,
                "attempts": o.attempts,
                "failure_class": o.failure_class,
                "resumed": o.resumed,
                "reused": o.reused,
                "wall_seconds": round(o.wall_seconds, 4),
                "attempt_history": o.attempt_history,
            }
            for o in outcomes
        ],
        "results": results,
    }
    if extra:
        payload.update(extra)
    return payload


# ----------------------------------------------------------------------
# pinned benchmark sweep


#: The standard bench grid: 5 workloads x 3 schemes.  Pinned so the
#: BENCH_perf.json trajectory stays comparable across PRs.  ``gcc`` is
#: the cache-resident (CPU-bound) cell: its Zipf working set fits the
#: hierarchy, so it measures the reference hot path rather than the
#: secure controller — the cell where the vectorized engine shows its
#: full speedup.
BENCH_WORKLOADS = ("ctree", "hashmap", "ubench", "mcf", "gcc")
BENCH_SCHEMES = PAPER_SCHEMES

#: The gcc cell's pinned shape: a 512 KiB footprint keeps its working
#: set (footprint/16) L1-sized, and 5x the grid refs amortizes per-run
#: setup so the cell measures steady-state refs/s.
BENCH_GCC_FOOTPRINT_BYTES = 512 << 10
BENCH_GCC_REFS_FACTOR = 5


def bench_cells(refs: int = 20_000, footprint_mb: int = 8,
                memory_mb: int = 32, seed: int = 2021) -> list:
    """The pinned 5-workload x 3-scheme benchmark grid."""
    config = SystemConfig.scaled(memory_mb=memory_mb)
    kwargs = {"footprint_bytes": footprint_mb << 20, "num_refs": refs}
    specs = [
        ("ctree", (), dict(kwargs)),
        ("hashmap", (), dict(kwargs)),
        ("ubench", (128,), dict(kwargs)),
        ("mcf", (), dict(kwargs)),
        ("gcc", (), {
            "footprint_bytes": BENCH_GCC_FOOTPRINT_BYTES,
            "num_refs": refs * BENCH_GCC_REFS_FACTOR,
        }),
    ]
    return [
        SimCell(workload=spec, scheme=scheme, config=config, seed=seed)
        for spec in specs
        for scheme in BENCH_SCHEMES
    ]


def run_bench(refs: int = 20_000, jobs: int = 2, seed: int = 2021,
              footprint_mb: int = 8, memory_mb: int = 32,
              progress=None, checkpoint_dir: str = None,
              store_dir: str = None) -> dict:
    """Run the pinned sweep serially and at ``jobs`` workers.

    Returns the BENCH_perf.json payload: wall-clock and refs/sec per
    cell, total wall-clock for both runs, the parallel speedup, a
    bit-equality verdict between the serial and parallel results, and a
    ``runtime`` block quantifying the resilience layer's overhead
    (engine wall-clock minus in-cell wall-clock — journal fsyncs and
    supervision live there).  ``checkpoint_dir`` journals both legs
    into separate subdirectories so the measured overhead includes
    checkpointing.

    A third, serial *store* leg reruns the grid with a cold
    content-addressed :class:`~repro.runtime.store.ResultStore`
    attached — every cell misses, computes, and publishes — and the
    ``store`` block reports the store layer's own overhead budget
    (fsync'd entry writes must stay under 2% of the leg's wall-clock:
    the ``bench-smoke`` CI gate), its hit/miss/write counters, and a
    bit-equality verdict against the plain serial leg.
    """
    import os
    import shutil
    import tempfile

    cells = bench_cells(refs=refs, footprint_mb=footprint_mb,
                        memory_mb=memory_mb, seed=seed)
    serial_ckpt = parallel_ckpt = None
    if checkpoint_dir:
        serial_ckpt = os.path.join(checkpoint_dir, "serial")
        parallel_ckpt = os.path.join(checkpoint_dir, "parallel")

    serial_start = time.perf_counter()
    serial_engine = SweepEngine(cells, jobs=1, progress=progress,
                                checkpoint=serial_ckpt)
    serial = serial_engine.run()
    serial_wall = time.perf_counter() - serial_start

    if jobs > 1:
        parallel_start = time.perf_counter()
        parallel = SweepEngine(cells, jobs=jobs, progress=progress,
                               checkpoint=parallel_ckpt).run()
        parallel_wall = time.perf_counter() - parallel_start
    else:
        parallel, parallel_wall = serial, serial_wall

    # Cold-store comparison leg: same grid, serial, fresh store — the
    # store layer's overhead (hash keys + pickle + fsync'd entry
    # publish per cell) measured against pure compute.
    store_tmp = None
    if store_dir is None:
        store_tmp = store_dir = tempfile.mkdtemp(prefix="bench-store-")
    try:
        store_start = time.perf_counter()
        store_engine = SweepEngine(cells, jobs=1, progress=progress,
                                   store=store_dir)
        store_leg = store_engine.run()
        store_wall = time.perf_counter() - store_start
        store_snapshot = store_engine.registry.snapshot()
    finally:
        if store_tmp is not None:
            shutil.rmtree(store_tmp, ignore_errors=True)

    identical = all(
        s.ok and p.ok and asdict(s.result) == asdict(p.result)
        for s, p in zip(serial, parallel)
    )
    store_identical = all(
        s.ok and t.ok and asdict(s.result) == asdict(t.result)
        for s, t in zip(serial, store_leg)
    )

    cell_rows = []
    for cell, s, p in zip(cells, serial, parallel):
        latency = s.result.latency_ns if s.ok else {}
        cell_refs = cell.workload[2].get("num_refs", refs)
        refs_per_s = (
            round(cell_refs / s.wall_seconds, 1) if s.wall_seconds else None
        )
        cell_rows.append({
            "label": s.label,
            "workload": cell.workload[0],
            "scheme": cell.scheme,
            "ok": s.ok and p.ok,
            "refs": cell_refs,
            "serial_wall_s": round(s.wall_seconds, 4),
            "parallel_wall_s": round(p.wall_seconds, 4),
            "refs_per_s": refs_per_s,
            "read_p95_ns": latency.get("read", {}).get("p95"),
            "write_p95_ns": latency.get("write", {}).get("p95"),
        })

    # Monte-Carlo throughput: one pinned FaultSim campaign (trials/s).
    from repro.faults import mc_bench

    mc = mc_bench(seed=seed)

    serial_cell_wall = sum(o.wall_seconds for o in serial if o.ok)
    overhead = max(0.0, serial_wall - serial_cell_wall)
    store_cell_wall = sum(o.wall_seconds for o in store_leg if o.ok)
    store_overhead = max(0.0, store_wall - store_cell_wall)
    return {
        # v5: the Monte-Carlo block keeps only the vector engine's
        # throughput (the scalar reference is retired; its behavior is
        # pinned by the mc-diff replay fixture).
        "schema": "bench_perf/v5",
        "telemetry_schema": TELEMETRY_SCHEMA,
        "refs": refs,
        "jobs": jobs,
        "seed": seed,
        "cells": cell_rows,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "speedup": round(serial_wall / parallel_wall, 3)
        if parallel_wall else None,
        "identical_outputs": identical,
        "mc": mc,
        "store": {
            "wall_s": round(store_wall, 4),
            "cell_wall_s": round(store_cell_wall, 4),
            "overhead_s": round(store_overhead, 4),
            # The cold-store budget the content-addressed layer must
            # fit in (<2% of its leg's wall): key hashing, pickling,
            # fsync'd entry publish.
            "overhead_fraction": (
                round(store_overhead / store_wall, 5) if store_wall else None
            ),
            "identical_outputs": store_identical,
            "hits": store_snapshot.get("runtime.store.hits"),
            "misses": store_snapshot.get("runtime.store.misses"),
            "writes": store_snapshot.get("runtime.store.writes"),
        },
        "runtime": {
            "checkpointed": bool(checkpoint_dir),
            "serial_cell_wall_s": round(serial_cell_wall, 4),
            "overhead_s": round(overhead, 4),
            # The serial-leg budget the resilience layer must fit in
            # (<2%): engine loop + journal fsyncs + supervision.
            "overhead_fraction": (
                round(overhead / serial_wall, 5) if serial_wall else None
            ),
            **serial_engine.registry.snapshot(),
        },
        "results": {
            o.label: asdict(o.result) if o.ok else {"error": o.error}
            for o in parallel
        },
    }


def write_bench(payload: dict, path: str = "BENCH_perf.json") -> str:
    """Durably publish the bench payload (atomic tmp+fsync+rename)."""
    return atomic_write_json(path, payload)
