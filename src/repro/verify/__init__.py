"""Differential verification: oracle, invariants, crash-point harness.

``repro.verify`` is the standing correctness gate for the simulator:

* :class:`Oracle` — a golden functional model run in lockstep with the
  controller via tracer events, diffing counters, ciphertexts, MACs,
  and the persisted tree against a reference derived purely from the
  logical write stream;
* :class:`InvariantChecker` — structural watchdogs (counter
  monotonicity, root consistency, quarantine isolation, clone
  freshness) subscribed to the same events;
* :class:`VerifySession` — bundles both behind one attach/finish pair,
  producing a ``verify/v1`` report and raising
  :class:`VerificationError` on any divergence;
* :func:`run_crash_points` — samples power-cut points, runs recovery,
  and asserts the *recovered / reported-lost / quarantined* trichotomy
  (silently-wrong plaintext is a harness failure);
* :mod:`repro.verify.audit` — the mirror harness every adversarial
  harness shares: the chaos op loop, the first-touch driver, and
  :func:`audit_mirror`, the one block classifier;
* :mod:`repro.verify.replay` — a deterministic op-sequence executor
  shared by the stateful property tests, the checked-in failure corpus,
  and ``repro verify --replay``.
"""

from repro.verify.invariants import InvariantChecker
from repro.verify.oracle import (
    Oracle,
    effectively_poisoned,
    merged_parent_counter,
    merged_parent_digest,
    persisted_bytes,
    resolve_counter_block,
    resolve_node,
)

VERIFY_SCHEMA = "verify/v1"


class VerificationError(AssertionError):
    """The simulator diverged from the golden model (or an invariant
    broke, or a crash point produced silently-wrong plaintext)."""

    def __init__(self, message: str, report: dict = None):
        super().__init__(message)
        self.report = report


class VerifySession:
    """One attach/finish bundle of oracle + invariant checking.

    ``SecureSystem.run(verify=True)`` builds one of these around its
    controller; harnesses that manage controllers themselves (fault
    campaigns, crash-point replay) can drive the parts directly.
    """

    def __init__(
        self,
        controller,
        *,
        oracle: bool = True,
        invariants: bool = True,
        tree_check: bool = True,
        max_records: int = 25,
    ):
        self.controller = controller
        self.oracle = (
            Oracle(controller, max_records=max_records) if oracle else None
        )
        self.invariants = (
            InvariantChecker(controller, max_records=max_records)
            if invariants
            else None
        )
        self.tree_check = tree_check
        self._attached = False

    def attach(self) -> "VerifySession":
        if not self._attached:
            if self.oracle is not None:
                self.oracle.attach()
            if self.invariants is not None:
                self.invariants.attach()
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            if self.oracle is not None:
                self.oracle.detach()
            if self.invariants is not None:
                self.invariants.detach()
            self._attached = False

    def rebind(self, controller) -> None:
        """Move the session to a recovered controller after a crash.

        Re-subscribes regardless of the current attach state — the
        crash path detaches first (recovery itself is unobserved), and
        a rebind that only swapped the controller pointer would leave
        the checkers blind to everything after the first power cut.
        """
        self.controller = controller
        if self.oracle is not None:
            self.oracle.rebind(controller)
        if self.invariants is not None:
            self.invariants.rebind(controller)
        self._attached = True

    @property
    def ok(self) -> bool:
        return (self.oracle is None or self.oracle.ok) and (
            self.invariants is None or self.invariants.ok
        )

    def report(self) -> dict:
        return {
            "schema": VERIFY_SCHEMA,
            "kind": "session",
            "ok": self.ok,
            "oracle": None if self.oracle is None else self.oracle.summary(),
            "invariants": (
                None if self.invariants is None else self.invariants.summary()
            ),
        }

    def finish(self, raise_on_failure: bool = True) -> dict:
        """Run the final sweeps, detach, and report.

        With ``raise_on_failure`` any divergence raises
        :class:`VerificationError` carrying the full report.
        """
        if self.oracle is not None and self.tree_check:
            self.oracle.check_tree()
        if self.invariants is not None and self.tree_check:
            self.invariants.check_final()
        self.detach()
        report = self.report()
        if raise_on_failure and not report["ok"]:
            raise VerificationError(
                "simulator diverged from the golden model: "
                f"{_failure_digest(report)}",
                report,
            )
        return report


def _failure_digest(report: dict) -> str:
    parts = []
    oracle = report.get("oracle")
    if oracle and oracle["divergences"]:
        kinds = sorted({r["kind"] for r in oracle["records"]})
        parts.append(f"{oracle['divergences']} oracle divergence(s) {kinds}")
    invariants = report.get("invariants")
    if invariants and invariants["violations"]:
        kinds = sorted({r["kind"] for r in invariants["records"]})
        parts.append(
            f"{invariants['violations']} invariant violation(s) {kinds}"
        )
    return "; ".join(parts) or "unknown failure"


from repro.verify.audit import audit_mirror  # noqa: E402
from repro.verify.crashpoints import (  # noqa: E402  (needs VerificationError)
    CrashPointConfig,
    CrashPointResult,
    run_crash_points,
)

__all__ = [
    "CrashPointConfig",
    "CrashPointResult",
    "InvariantChecker",
    "audit_mirror",
    "Oracle",
    "VERIFY_SCHEMA",
    "VerificationError",
    "VerifySession",
    "effectively_poisoned",
    "merged_parent_counter",
    "merged_parent_digest",
    "persisted_bytes",
    "resolve_counter_block",
    "resolve_node",
    "run_crash_points",
]
