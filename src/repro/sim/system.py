"""The simulated secure system: CPU caches + secure memory controller.

The timing model is trace-driven.  Each memory reference runs through
the L1/L2/LLC hierarchy; only LLC misses and dirty LLC writebacks reach
the secure memory controller, which performs the *functional* secure
datapath (counter fetch chains, verification, lazy updates, cloning)
and reports its traffic.  Timing is charged as:

* CPU path — one cycle per non-memory instruction, plus cache hit
  latencies, plus PCM read latency for every *blocking* NVM read (the
  metadata fetch chain serializes: parent must be verified before the
  child's MAC can be checked);
* NVM channel — every read and posted write occupies the channel for
  its device latency; writes drain in the background but still consume
  bandwidth.

Execution time is ``max(cpu path, channel occupancy)`` — the classic
latency/bandwidth bound.  This reproduces the paper's *relative*
overheads: extra clone/shadow writes surface as channel pressure, extra
metadata misses as read stalls.
"""

from __future__ import annotations

import numpy as np

from repro.cache import CacheHierarchy
from repro.controller import SecureMemoryController
from repro.core import make_controller
from repro.schemes import PAPER_SCHEMES, resolve_scheme
from repro.sim.config import SystemConfig
from repro.sim.stats import SimResult
from repro.telemetry import MetricRegistry

#: References pulled from the workload generator per hot-loop batch.
REFERENCE_BATCH = 8192

#: Per-request latency bucket edges (ns), geometric 2ns .. 16384ns.
#: The span covers an L1 hit (~2ns at 3.2GHz) up to a worst-case
#: metadata fetch chain (tens of serialized PCM reads).
LATENCY_BUCKETS_NS = tuple(float(2 ** k) for k in range(1, 15))


class SecureSystem:
    """One CPU + cache hierarchy + secure NVM memory controller."""

    def __init__(
        self,
        scheme: str = "baseline",
        config: SystemConfig = None,
        functional_crypto: bool = False,
        rng=None,
        controller: SecureMemoryController = None,
    ):
        self.config = config or SystemConfig.scaled()
        self.scheme = scheme
        #: One registry per system: every stat domain (CPU caches,
        #: metadata cache, controller, NVM device, latency histograms)
        #: registers its instruments here by construction.
        self.registry = MetricRegistry()
        self.hierarchy = CacheHierarchy(
            levels=self.config.cache_levels, registry=self.registry
        )
        if controller is None:
            # Canonicalise through the registry so results label schemes
            # by their registered names even when built via an alias.
            resolved = resolve_scheme(scheme)
            self.scheme = resolved.name
            controller = make_controller(
                resolved,
                self.config.memory_bytes,
                metadata_cache_bytes=self.config.metadata_cache_bytes,
                metadata_ways=self.config.metadata_ways,
                wpq_entries=self.config.wpq_entries,
                osiris_limit=self.config.osiris_limit,
                functional_crypto=functional_crypto,
                rng=rng,
                registry=self.registry,
            )
        else:
            # A pre-built controller (e.g. a crash-recovery survivor)
            # registered nothing; adopt its instruments so registry-wide
            # reset/snapshot still cover every domain.
            self.registry.adopt(controller.stats.metrics())
            self.registry.adopt(controller.metadata_cache.stats.metrics())
            self.registry.adopt(controller.nvm.metrics())
        self.controller = controller
        self.tracer = controller.tracer
        self._read_latency = self.registry.histogram(
            "latency.read",
            LATENCY_BUCKETS_NS,
            help="per-request read latency (ns, CPU path incl. read stalls)",
        )
        self._write_latency = self.registry.histogram(
            "latency.write",
            LATENCY_BUCKETS_NS,
            help="per-request write latency (ns, CPU path incl. read stalls)",
        )

    def reset_measurement_stats(self) -> None:
        """Zero *every* statistic domain at the warmup checkpoint.

        One registry-wide reset: every instrument — controller traffic,
        NVM device counts, metadata-cache and CPU-cache counters,
        latency histograms — is registered into ``self.registry`` at
        construction, so a new stat domain cannot silently leak warmup
        traffic into measured rates (the historical multi-owner bug).
        """
        self.registry.reset()

    def run(self, workload, warmup_refs: int = 0, op_hook=None,
            verify=False) -> SimResult:
        """Run one workload's reference stream to completion.

        ``warmup_refs`` replicates the paper's methodology ("we create
        [a] checkpoint [for] each application after [the]
        initialization phase and simulate 500M instructions
        afterwards"): the first N references warm the caches and
        metadata state, then every statistic resets before measurement.

        ``op_hook(op_index)``, when given, is subscribed to the
        tracer's ``"op"`` event for the duration of the run and called
        before each post-warmup reference — the attachment point for
        online fault injection (:class:`~repro.faults.FaultInjector.poll`)
        and background scrubbing
        (:class:`~repro.controller.MetadataScrubber.tick`).  New code
        can subscribe to ``system.tracer`` directly instead.

        ``verify`` attaches a differential
        :class:`~repro.verify.VerifySession` (golden oracle + invariant
        checker) for the whole run — warmup included, since the oracle's
        counter mirror must see every write — and raises
        :class:`~repro.verify.VerificationError` if the simulator ever
        diverges from the golden model.  Pass ``True`` for defaults or a
        dict of ``VerifySession`` keyword options.  The report lands in
        ``SimResult.verify``.

        The hot loop is the batched array engine in
        :mod:`repro.sim.engine`; its observable behavior — ``SimResult``,
        registry snapshots, controller traffic, per-op event stream — is
        pinned by the committed replay corpus that ``repro engine-diff``
        checks (engine-replay CI job).
        """
        controller = self.controller

        session = None
        if verify:
            from repro.verify import VerifySession

            options = verify if isinstance(verify, dict) else {}
            session = VerifySession(controller, **options).attach()

        tracer = self.tracer
        hook = None
        if op_hook is not None:
            def hook(event):
                op_hook(event.index)
            tracer.subscribe("op", hook)
        try:
            from repro.sim.engine import run_batched

            totals = run_batched(self, workload, warmup_refs)
        finally:
            if hook is not None:
                tracer.unsubscribe("op", hook)

        verify_report = None
        if session is not None:
            verify_report = session.finish()

        instructions, memory_requests, cpu_cycles, channel_ns = totals
        stats = controller.stats
        cpu_ns = cpu_cycles * self.config.cycle_ns
        return SimResult(
            workload=workload.name,
            scheme=self.scheme,
            instructions=instructions,
            memory_requests=memory_requests,
            cpu_cycles=cpu_cycles,
            channel_busy_ns=channel_ns,
            exec_time_ns=max(cpu_ns, channel_ns),
            nvm_reads=stats.total_nvm_reads,
            nvm_writes=stats.total_nvm_writes,
            writes_by_kind=dict(sorted(stats.nvm_writes_by_kind.items())),
            reads_by_kind=dict(sorted(stats.nvm_reads_by_kind.items())),
            evictions_by_level=dict(sorted(stats.evictions_by_level.items())),
            metadata_miss_rate=controller.metadata_cache.stats.miss_rate,
            latency_ns={
                "read": self._read_latency.summary(),
                "write": self._write_latency.summary(),
            },
            verify=verify_report,
        )

def _workload_seed(seed: int) -> int:
    """Stream seed derived from a run seed.

    ``seed + 1`` keeps the historical default: ``run_schemes(seed=0)``
    reproduces the streams every figure was pinned with
    (``Workload.seed`` defaults to 1).
    """
    return seed + 1


def run_schemes(workload_factory, schemes=PAPER_SCHEMES,
                config: SystemConfig = None, seed: int = 0,
                jobs: int = 1) -> dict:
    """Run one workload on several schemes with identical traces.

    ``workload_factory`` is either a zero-argument callable returning a
    fresh workload per call, or a picklable ``(name, args, kwargs)``
    triple (see :func:`repro.workloads.standard_suite_specs`).  The
    ``seed`` threads into both the workload's reference stream and the
    controller's key-generation rng, so two calls with the same seed
    are bit-equal and different seeds draw different streams.

    ``jobs > 1`` fans the schemes across worker processes via
    :class:`repro.sim.sweep.SweepEngine`; this requires the spec-triple
    factory form (closures don't cross process boundaries) and returns
    bit-identical results to ``jobs=1``.
    """
    from repro.workloads import make_workload

    if jobs > 1:
        from repro.sim.sweep import SimCell, SweepEngine

        if callable(workload_factory):
            raise TypeError(
                "jobs > 1 needs a picklable (name, args, kwargs) workload "
                "spec; callables cannot cross process boundaries"
            )
        cells = [
            SimCell(workload=workload_factory, scheme=scheme, config=config,
                    seed=seed)
            for scheme in schemes
        ]
        outcomes = SweepEngine(cells, jobs=jobs).run()
        results = {}
        for scheme, outcome in zip(schemes, outcomes):
            if not outcome.ok:
                raise RuntimeError(
                    f"scheme {scheme!r} failed: {outcome.error}"
                )
            results[scheme] = outcome.result
        return results

    results = {}
    for scheme in schemes:
        system = SecureSystem(
            scheme=scheme, config=config, rng=np.random.default_rng(seed)
        )
        if callable(workload_factory):
            workload = workload_factory()
            workload.seed = _workload_seed(seed)
        else:
            workload = make_workload(workload_factory, seed=_workload_seed(seed))
        results[scheme] = system.run(workload)
    return results
