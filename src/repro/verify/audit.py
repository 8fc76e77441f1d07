"""Golden-mirror harness: one op loop, one first-touch driver, one audit.

Every adversarial harness drives a seeded stream against a functional
controller, keeps a plaintext mirror of everything it wrote, and ends
by classifying each block by what the controller now returns for it.
This module holds the mirror's whole life:

* the **chaos op loop** — :class:`ChaosStream` draws the references
  (uniform over the online blocks, or replayed from a trace) and
  :meth:`ChaosRun.do_ops` runs them with a fault injector and scrubber
  ticking per op, after :class:`ChaosRun` has prefilled every block.
  It drives the chaos campaigns (:func:`repro.faults.run_single`) and
  the chaos scenarios (:func:`repro.faults.run_scenario`);
* the **first-touch driver** — :func:`drive_first_touch` writes a
  block on its first touch and reads or rewrites it after.  It drives
  the crash points (:func:`repro.verify.run_crash_points`) and the
  scheme study's recovery rows (:mod:`repro.schemes.study`);
* the **block classifier** — :func:`audit_mirror` is the shared ending
  of all four harnesses, enforcing the paper's resilience obligation
  in one place:

    every byte is either *intact* (bit-exact), lost to a typed,
    detected error (``data_due`` / ``quarantined`` / ``unverifiable``),
    or it is a **violation** — wrong bytes returned without an
    exception — which the callers turn into a hard failure.
"""

from __future__ import annotations

import numpy as np

from repro.controller import (
    DataPoisonedError,
    IntegrityError,
    QuarantinedError,
    SecureMemoryError,
)


class ChaosStream:
    """The workload reference stream of one chaos run.

    Synthetic mode draws uniform blocks from the currently-online slice
    of the device; trace mode replays an external reference stream
    (cycling if the run outlasts it), remapping block indices onto the
    online slice so shrink/regrow applies to traces too.  Write
    payloads come from the same ``rng``.
    """

    def __init__(self, rng, num_blocks: int, write_fraction: float,
                 trace: str = None):
        self.rng = rng
        self.online = list(range(num_blocks))
        self.write_fraction = write_fraction
        self._refs = None
        self._cursor = 0
        if trace:
            from repro.workloads.trace import load_external

            self._refs = load_external(trace).references
            if not self._refs:
                raise ValueError(f"trace {trace!r} is empty")

    def take_offline(self, blocks) -> None:
        gone = set(blocks)
        self.online = [b for b in self.online if b not in gone]
        if not self.online:
            raise ValueError("offline phase would remove every block")

    def bring_online(self, blocks) -> None:
        self.online = sorted(set(self.online) | set(blocks))

    def next_op(self):
        """-> (block, is_write).  Deterministic given the seed."""
        if self._refs is None:
            block = self.online[int(self.rng.integers(0, len(self.online)))]
            is_write = bool(self.rng.random() < self.write_fraction)
            return block, is_write
        address, is_write, _gap = self._refs[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._refs)
        block = self.online[(address // 64) % len(self.online)]
        return block, bool(is_write)

    def payload(self, size: int) -> bytes:
        return bytes(self.rng.integers(0, 256, size=size, dtype=np.uint8))


class ChaosRun:
    """Mutable state threaded through one chaos run.

    Construction prefills every data block from the stream, so every
    metadata region carries real state and the mirror covers the whole
    device, then flushes so a fault injector's touched-only candidates
    span the layout.
    """

    def __init__(self, ctrl, stream: ChaosStream):
        self.ctrl = ctrl
        self.stream = stream
        self.mirror = {}
        block_size = ctrl.nvm.block_size
        for block in range(ctrl.num_data_blocks):
            data = stream.payload(block_size)
            ctrl.write(block, data)
            self.mirror[block] = data
        ctrl.flush()
        self.run_errors = {"data_due": 0, "quarantined": 0, "integrity": 0}
        self.violations = []
        self.op = 0                  # global operation counter

    def do_ops(self, count: int, injector=None, scrubber=None) -> None:
        """Run ``count`` stream ops; reads are checked against the
        mirror, typed errors are counted, and wrong bytes returned
        without an exception are recorded as run-phase violations."""
        ctrl = self.ctrl
        block_size = ctrl.nvm.block_size
        for local_op in range(count):
            if injector is not None:
                injector.poll(local_op)
            if scrubber is not None:
                scrubber.tick(1)
            block, is_write = self.stream.next_op()
            try:
                if is_write:
                    data = self.stream.payload(block_size)
                    ctrl.write(block, data)
                    self.mirror[block] = data
                elif ctrl.read(block).data != self.mirror[block]:
                    self.violations.append(
                        {"phase": "run", "op": self.op, "block": block}
                    )
            except DataPoisonedError:
                self.run_errors["data_due"] += 1
            except QuarantinedError:
                self.run_errors["quarantined"] += 1
            except IntegrityError:
                self.run_errors["integrity"] += 1
            self.op += 1


def drive_first_touch(ctrl, rng, ops: int, write_fraction: float) -> dict:
    """Drive ``ops`` seeded operations; returns the ``{block: bytes}`` mirror.

    Each op picks a uniform block.  Its first touch, and a
    ``write_fraction`` share of later ones, write 64 fresh bytes; the
    rest read it back unchecked, since the caller audits the mirror
    after its crash and recovery.
    """
    mirror = {}
    num_blocks = ctrl.num_data_blocks
    for _ in range(ops):
        block = int(rng.integers(0, num_blocks))
        if block not in mirror or rng.random() < write_fraction:
            data = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
            ctrl.write(block, data)
            mirror[block] = data
        else:
            ctrl.read(block)
    return mirror


def audit_mirror(controller, mirror: dict) -> tuple:
    """Audit ``controller`` against a golden ``{block: bytes}`` mirror.

    Returns ``(audit, violations)`` where ``audit`` counts blocks as
    ``intact`` / ``data_due`` / ``quarantined`` / ``unverifiable`` and
    ``violations`` lists silently-corrupt blocks (empty means the
    no-silent-corruption invariant held).  ``controller`` may be
    ``None`` — the recovery-refused case — in which case every mirrored
    block is *unverifiable*: detected, typed, and total.
    """
    audit = {"intact": 0, "data_due": 0, "quarantined": 0,
             "unverifiable": 0}
    violations = []
    if controller is None:
        audit["unverifiable"] = len(mirror)
        return audit, violations
    for block in sorted(mirror):
        try:
            got = controller.read(block).data
        except DataPoisonedError:
            audit["data_due"] += 1
        except QuarantinedError:
            audit["quarantined"] += 1
        except SecureMemoryError:
            audit["unverifiable"] += 1
        else:
            if got == mirror[block]:
                audit["intact"] += 1
            else:
                violations.append({"phase": "audit", "op": -1,
                                   "block": block})
    return audit, violations
