"""Crash-point harness: power-cut sampling + recovery trichotomy audit.

For each sampled crash point the harness replays the *same* seeded
write/read stream up to a different depth, cuts power there (volatile
state — metadata cache, victim queue, trusted-state working copies — is
dropped; the WPQ commits per ADR), runs the scheme's recovery path
(Anubis shadow recovery for ToC images, Osiris trials + tree
regeneration for BMT images), and then audits every block the stream
ever wrote against a plaintext mirror.  Each block must land in exactly
one bucket of the trichotomy:

* **recovered** — the read returns the exact plaintext last written;
* **reported_lost** — the read raises a typed integrity/poison error;
* **quarantined** — the read raises :class:`QuarantinedError`.

A read that *returns* wrong plaintext is silent corruption — the one
outcome the whole design exists to rule out — and fails the harness.
Crash points land at operation boundaries: by the ADR contract every
WPQ-accepted entry (including half-drained atomic clone groups pending
at the cut) persists, while everything volatile is lost, so the
boundaries cover mid-WPQ-drain, unflushed-dirty-line, and mid-clone
states without needing sub-operation cut granularity.

Optionally every ``fault_every``-th point also injects metadata faults
at the instant of the cut (the crash-plus-damage compound case); those
points are allowed to report loss or quarantine — never wrong bytes.
Clean points (no faults) must recover *everything*: any loss there is
itself a harness failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.controller import SecureMemoryError
from repro.core import make_controller
from repro.recovery import recover_image
from repro.schemes import resolve_scheme
from repro.verify.audit import audit_mirror, drive_first_touch
from repro.verify.oracle import Oracle

KB = 1024

#: Hard cap on per-point silent-corruption records kept in the report
#: (``silent_corruption`` still counts every block).
_MAX_SILENT_RECORDS = 20


@dataclass(frozen=True)
class CrashPointConfig:
    """One crash-point campaign (one scheme, one integrity mode)."""

    scheme: str = "src"
    integrity_mode: str = "toc"
    data_bytes: int = 32 * KB
    metadata_cache_bytes: int = 2 * KB
    ops: int = 240                    # length of the full op stream
    write_fraction: float = 0.55
    num_points: int = 200             # sampled power-cut points
    seed: int = 2021
    fault_every: int = 0              # every k-th point faults at the cut
    faults_per_point: int = 2
    fault_targets: tuple = ("counter", "tree", "counter_mac")
    recover_twice: bool = False       # crash again right after recovery

    def __post_init__(self):
        scheme = resolve_scheme(self.scheme)
        object.__setattr__(self, "scheme", scheme.name)
        # A scheme that pins its integrity mode (triad -> bmt, phoenix
        # -> toc) wins over the config knob; the harness then reports
        # the mode the controller actually ran under.
        if scheme.integrity_mode:
            object.__setattr__(self, "integrity_mode",
                               scheme.integrity_mode)
        if self.integrity_mode not in ("toc", "bmt"):
            raise ValueError("integrity_mode must be 'toc' or 'bmt'")
        if self.ops < 1 or self.num_points < 1:
            raise ValueError("ops and num_points must be >= 1")
        if not 0.0 < self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in (0, 1]")


@dataclass
class CrashPointResult:
    """Audit outcome of one sampled power cut."""

    point: int
    crash_op: int
    faulted: bool
    recovery: str                     # "ok" or "failed:<ErrorType>"
    recovered: int = 0
    reported_lost: int = 0
    quarantined: int = 0
    oracle_divergences: int = 0
    silent: list = field(default_factory=list)   # one record per block

    @property
    def ok(self) -> bool:
        if self.silent or self.oracle_divergences:
            return False
        if not self.faulted:
            # A clean power cut must lose nothing at all.
            return self.recovery == "ok" and self.reported_lost == 0 \
                and self.quarantined == 0
        return True

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "crash_op": self.crash_op,
            "faulted": self.faulted,
            "recovery": self.recovery,
            "recovered": self.recovered,
            "reported_lost": self.reported_lost,
            "quarantined": self.quarantined,
            "oracle_divergences": self.oracle_divergences,
            "silent": self.silent_records(),
            "ok": self.ok,
        }

    def silent_records(self) -> list:
        """At most :data:`_MAX_SILENT_RECORDS` of ``silent``; when some
        are dropped, the last kept one is the final block, marked
        ``truncated``."""
        records = self.silent[:_MAX_SILENT_RECORDS]
        if len(self.silent) > _MAX_SILENT_RECORDS:
            records[-1] = {**self.silent[-1], "truncated": True}
        return records


def _run_point(config: CrashPointConfig, point: int, crash_op: int) -> CrashPointResult:
    ctrl = make_controller(
        config.scheme,
        config.data_bytes,
        metadata_cache_bytes=config.metadata_cache_bytes,
        functional_crypto=True,
        quarantine=True,
        integrity_mode=config.integrity_mode,
        rng=np.random.default_rng(config.seed + 7),
    )
    oracle = Oracle(ctrl).attach()
    # The op stream is shared by every point of the campaign (same
    # seed), so the points sample one execution at increasing depths.
    mirror = drive_first_touch(ctrl, np.random.default_rng(config.seed + 13),
                               crash_op, config.write_fraction)

    faulted = bool(config.fault_every) and point % config.fault_every == 0
    if faulted:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            ctrl,
            targets=config.fault_targets,
            seed=config.seed * 7919 + point,
            num_faults=config.faults_per_point,
            horizon_ops=1,
        )
        injector.drain()

    oracle.detach()
    result = CrashPointResult(
        point=point,
        crash_op=crash_op,
        faulted=faulted,
        recovery="ok",
        oracle_divergences=oracle.divergence_count,
    )

    image = ctrl.crash()
    try:
        ctrl, _ = recover_image(image)
        if config.recover_twice:
            ctrl, _ = recover_image(ctrl.crash())
    except SecureMemoryError as exc:
        result.recovery = f"failed:{type(exc).__name__}"
        ctrl = None

    audit, violations = audit_mirror(ctrl, mirror)
    result.recovered = audit["intact"]
    result.reported_lost = audit["data_due"] + audit["unverifiable"]
    result.quarantined = audit["quarantined"]
    result.silent = [{"block": v["block"]} for v in violations]
    return result


def run_crash_points(
    config: CrashPointConfig, progress=None, raise_on_failure: bool = True
) -> dict:
    """Run the campaign; returns (and optionally enforces) the report.

    ``progress(done, total)`` is called after each point.  With
    ``raise_on_failure`` any silent corruption, oracle divergence, or
    clean-point loss raises
    :class:`~repro.verify.VerificationError` carrying the report.
    """
    rng = np.random.default_rng(config.seed)
    crash_ops = sorted(
        int(op)
        for op in rng.integers(1, config.ops + 1, size=config.num_points)
    )
    results = []
    for point, crash_op in enumerate(crash_ops):
        results.append(_run_point(config, point, crash_op))
        if progress is not None:
            progress(point + 1, len(crash_ops))

    bad_points = [r for r in results if not r.ok]
    report = {
        "schema": "verify/v1",
        "kind": "crash_points",
        "scheme": config.scheme,
        "integrity_mode": config.integrity_mode,
        "seed": config.seed,
        "ops": config.ops,
        "num_points": config.num_points,
        "fault_every": config.fault_every,
        "recover_twice": config.recover_twice,
        "outcomes": {
            "recovered": sum(r.recovered for r in results),
            "reported_lost": sum(r.reported_lost for r in results),
            "quarantined": sum(r.quarantined for r in results),
        },
        "recovery_failures": sum(1 for r in results if r.recovery != "ok"),
        "silent_corruption": sum(len(r.silent) for r in results),
        "oracle_divergences": sum(r.oracle_divergences for r in results),
        "failed_points": [r.to_dict() for r in bad_points[:20]],
        "ok": not bad_points,
    }
    if raise_on_failure and bad_points:
        from repro.verify import VerificationError

        first = bad_points[0]
        raise VerificationError(
            f"crash-point harness failed at point {first.point} "
            f"(crash_op={first.crash_op}, faulted={first.faulted}, "
            f"recovery={first.recovery!r}, silent={len(first.silent)})",
            report,
        )
    return report
