"""Live fault injection into a running secure-memory system.

The offline Monte-Carlo engine (:mod:`repro.faults.faultsim`) answers
"how often do DUEs strike" — this module answers "what happens when
they do".  A :class:`FaultInjector` couples the fault model to a live
:class:`~repro.controller.SecureMemoryController`: fault arrivals are
scheduled over simulated time (operation count), drawn from the Hopper
fault-mode distribution, and fired by poisoning real
:class:`~repro.memory.NvmDevice` blocks inside a chosen layout region
(data, counters, tree nodes, clones, sidecar MACs, shadow table).

Two injection modes:

* ``"direct"`` (default) — every event is a DUE by construction.  The
  Hopper class shapes the blast radius (a ``row`` fault garbles more
  blocks than a ``bit`` fault); the *rate* of events is the caller's
  choice, because live campaigns study the system's response to DUEs,
  not their (separately analyzed) arrival probability.
* ``"ecc"`` — faults accumulate in the offline simulator's integer
  encoding, and the offline simulator's own ECC evaluator
  (:func:`repro.faults.mc.due_regions`) decides which regions are
  *uncorrectable*; only those poison blocks.  Under Chipkill the first
  faults are correctable, so early events defer and damage appears
  once faults overlap — arbitrary-time failures in the Triad-NVM/
  Phoenix sense.

Everything is driven by one seeded generator, so a campaign replays
bit-identically under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.config import FaultSimConfig
from repro.faults.mc import draw_fault, due_regions, region_blocks

#: Layout regions that can be targeted by name.
INJECTION_TARGETS = (
    "data", "counter", "tree", "clone", "counter_mac", "shadow",
)


def _quarantined_address(controller, address: int) -> bool:
    """True when ``address`` belongs to quarantined coverage.

    Data blocks are checked against the registry's covered ranges;
    metadata addresses map back to their (level, index) registry key
    (clone poison charges its primary node, sidecar copies charge the
    sidecar entry at level 0).  Shadow/MAC regions are never listed.
    """
    registry = controller.quarantine
    if registry is None:
        return False
    region = controller.amap.region_of(address)
    if region[0] == "data":
        return registry.covers(region[1])
    if region[0] == "counter":
        key = (1, region[1])
    elif region[0] in ("tree", "clone"):
        key = (region[1], region[2])
    elif region[0] in ("counter_mac", "counter_mac_clone"):
        key = (0, region[1])
    else:
        return False
    return key in registry


def region_addresses(controller, target: str, touched_only: bool = True,
                     exclude_quarantined: bool = False) -> list:
    """Block addresses of one layout region, in deterministic order.

    With ``touched_only`` (the default) the list is restricted to
    blocks carrying real state, falling back to the full region when
    nothing is touched yet — poisoning a factory-fresh block is a no-op
    for the controller.  With ``exclude_quarantined`` addresses inside
    quarantined coverage are dropped (a DUE there can never reach a
    reader — every access already fails fast with a typed error — so
    poisoning it wastes the fault budget); a fully-quarantined region
    yields an empty list rather than raising.  Shared by the injector
    and by deterministic replay harnesses that need to name a fault
    site by (region, rank).
    """
    if target not in INJECTION_TARGETS:
        raise ValueError(
            f"unknown injection target {target!r}; valid: {INJECTION_TARGETS}"
        )
    amap = controller.amap
    addresses: list = []
    if target == "data":
        addresses = [
            amap.data_addr(i) for i in range(amap.num_data_blocks)
        ]
    elif target == "counter":
        addresses = [
            amap.node_addr(1, i) for i in range(amap.level_sizes[0])
        ]
    elif target == "tree":
        for level in range(2, amap.num_levels + 1):
            addresses.extend(
                amap.node_addr(level, i)
                for i in range(amap.level_sizes[level - 1])
            )
    elif target == "clone":
        for level in range(1, amap.num_levels + 1):
            depth = amap.clone_depths.get(level, 1)
            for copy in range(1, depth):
                addresses.extend(
                    amap.clone_addr(level, i, copy)
                    for i in range(amap.level_sizes[level - 1])
                )
        for copy in range(1, amap.counter_mac_depth):
            addresses.extend(
                amap.counter_mac_clone_addr(i, copy)
                for i in range(amap.num_counter_mac_blocks)
            )
    elif target == "counter_mac":
        addresses = [
            amap.counter_mac_offset + i * amap.block_size
            for i in range(amap.num_counter_mac_blocks)
        ]
    elif target == "shadow":
        addresses = [
            amap.shadow_entry_addr(i) for i in range(amap.shadow_entries)
        ]
    if exclude_quarantined:
        addresses = [
            a for a in addresses if not _quarantined_address(controller, a)
        ]
    if touched_only:
        nvm = controller.nvm
        touched = [a for a in addresses if nvm.is_touched(a)]
        if touched:
            return touched
    return addresses

#: Blocks garbled per event by Hopper class in direct mode, before the
#: per-event cap.  Spatially-large classes hit more blocks; the exact
#: scale is bounded by ``max_blocks_per_fault`` because a full row/bank
#: extent would dwarf the small memories live campaigns run on.
_CLASS_SPREAD = {
    "bit": 1,
    "word": 1,
    "column": 2,
    "row": 4,
    "bank": 8,
    "nbank": 12,
    "nrank": 16,
}


@dataclass
class InjectionEvent:
    """One scheduled fault arrival."""

    op: int                     # operation index the event fires at
    target: str                 # layout region name
    fault_class: str            # Hopper fault mode
    addresses: tuple = ()       # poisoned block addresses (set on fire)
    fired: bool = False
    deferred: bool = False      # ecc mode: arrival was still correctable

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "target": self.target,
            "fault_class": self.fault_class,
            "addresses": list(self.addresses),
            "fired": self.fired,
            "deferred": self.deferred,
        }


class FaultInjector:
    """Schedules and fires faults against one live controller.

    ``targets`` cycles per event (an empty tuple is allowed and simply
    schedules nothing — scenario engines compute target lists that can
    legitimately come up empty); ``horizon_ops`` spreads the arrivals
    uniformly over the campaign's operation budget unless ``arrivals``
    pins each event to an explicit operation index (fault-rate ramps
    and correlated bursts need non-uniform schedules).
    ``touched_only`` restricts candidates to blocks that carry real
    state (poisoning a factory-fresh block is a no-op for the
    controller, which treats untouched blocks as implicitly-valid
    zeros); ``exclude_quarantined`` additionally skips addresses whose
    coverage is already quarantined — a region that is empty or fully
    quarantined defers its events and reports a well-formed zero
    summary instead of raising.
    """

    def __init__(
        self,
        controller,
        targets=("counter",),
        *,
        seed: int = 0,
        num_faults: int = 8,
        horizon_ops: int = 10_000,
        mode: str = "direct",
        config: FaultSimConfig = None,
        touched_only: bool = True,
        scramble: bool = True,
        max_blocks_per_fault: int = 4,
        arrivals=None,
        exclude_quarantined: bool = False,
    ):
        if mode not in ("direct", "ecc"):
            raise ValueError(f"mode must be 'direct' or 'ecc', got {mode!r}")
        if num_faults < 0:
            raise ValueError("num_faults must be >= 0")
        if max_blocks_per_fault < 0:
            raise ValueError("max_blocks_per_fault must be >= 0")
        if horizon_ops < 1:
            raise ValueError("horizon_ops must be >= 1")
        unknown = [t for t in targets if t not in INJECTION_TARGETS]
        if unknown:
            raise ValueError(
                f"unknown injection targets {unknown}; "
                f"valid: {INJECTION_TARGETS}"
            )
        self.controller = controller
        self.targets = tuple(targets)
        self.seed = seed
        self.mode = mode
        self.config = config or FaultSimConfig()
        self.touched_only = touched_only
        self.exclude_quarantined = exclude_quarantined
        self.scramble = scramble
        self.max_blocks_per_fault = max_blocks_per_fault
        self._rng = np.random.default_rng(seed)
        self._accumulated_faults: list = []
        self._known_due_blocks: set = set()

        if not self.targets:
            num_faults = 0   # nowhere to aim: a well-formed empty schedule
        classes = list(self.config.relative_rates)
        weights = np.array([self.config.relative_rates[c] for c in classes])
        if arrivals is not None and num_faults:
            ops = sorted(int(o) for o in arrivals)
            if len(ops) != num_faults:
                raise ValueError(
                    f"arrivals must name exactly num_faults={num_faults} "
                    f"operation indices, got {len(ops)}"
                )
        else:
            ops = sorted(
                int(o)
                for o in self._rng.integers(0, horizon_ops, size=num_faults)
            )
        drawn = self._rng.choice(len(classes), size=num_faults, p=weights)
        self.events = [
            InjectionEvent(
                op=op,
                target=self.targets[i % len(self.targets)],
                fault_class=classes[int(c)],
            )
            for i, (op, c) in enumerate(zip(ops, drawn))
        ]
        self._next_event = 0

    # ------------------------------------------------------------------

    def poll(self, op: int) -> list:
        """Fire every event scheduled at or before operation ``op``.

        Returns the events that fired (possibly empty).  Designed to be
        called once per workload operation.
        """
        fired = []
        while (
            self._next_event < len(self.events)
            and self.events[self._next_event].op <= op
        ):
            event = self.events[self._next_event]
            self._next_event += 1
            self._fire(event)
            if event.fired:
                fired.append(event)
        return fired

    def drain(self) -> list:
        """Fire all remaining scheduled events immediately."""
        if not self.events:
            return []
        return self.poll(self.events[-1].op)

    @property
    def pending(self) -> int:
        return len(self.events) - self._next_event

    def injected_addresses(self) -> set:
        """Every address poisoned by this injector so far."""
        out = set()
        for event in self.events:
            out.update(event.addresses)
        return out

    def summary(self) -> dict:
        fired = [e for e in self.events if e.fired]
        return {
            "seed": self.seed,
            "mode": self.mode,
            "targets": list(self.targets),
            "scheduled": len(self.events),
            "fired": len(fired),
            "deferred": sum(e.deferred for e in self.events),
            "poisoned_blocks": sum(len(e.addresses) for e in fired),
            "events": [e.to_dict() for e in self.events],
        }

    # ------------------------------------------------------------------

    def _fire(self, event: InjectionEvent) -> None:
        if self.mode == "ecc":
            addresses = self._ecc_addresses(event)
        else:
            addresses = self._direct_addresses(event)
        if not addresses:
            event.deferred = True
            return
        for address in addresses:
            if self.scramble:
                bits = self._rng.integers(
                    0, self.controller.nvm.block_size * 8,
                    size=int(self._rng.integers(1, 4)),
                )
                self.controller.nvm.flip_bits(address, [int(b) for b in bits])
            self.controller.nvm.poison_block(address)
        event.addresses = tuple(addresses)
        event.fired = True

    def _direct_addresses(self, event: InjectionEvent) -> list:
        candidates = self._candidates(event.target)
        if not candidates:
            return []
        spread = min(
            _CLASS_SPREAD[event.fault_class],
            self.max_blocks_per_fault,
            len(candidates),
        )
        start = int(self._rng.integers(0, len(candidates)))
        # Contiguous run in region order: spatially-correlated damage,
        # the pattern large fault modes actually produce.
        return [candidates[(start + i) % len(candidates)] for i in range(spread)]

    def _ecc_addresses(self, event: InjectionEvent) -> list:
        geometry = self.config.geometry
        self._accumulated_faults.append(
            draw_fault(event.fault_class, geometry, self._rng)
        )
        regions = due_regions(
            self._accumulated_faults, self.config.repair, geometry
        )
        new_blocks = []
        for region in regions:
            for block in region_blocks(
                region, geometry, limit=self.max_blocks_per_fault * 4
            ):
                if block not in self._known_due_blocks:
                    self._known_due_blocks.add(block)
                    new_blocks.append(block)
        if not new_blocks:
            return []
        candidates = self._candidates(event.target)
        if not candidates:
            return []
        # Fold device-scale DUE coordinates onto the (smaller) region.
        picked = []
        for block in new_blocks[: self.max_blocks_per_fault]:
            address = candidates[block % len(candidates)]
            if address not in picked:
                picked.append(address)
        return picked

    def _candidates(self, target: str) -> list:
        """Block addresses of one region, optionally touched-only.

        Addresses with a store pending in the WPQ are skipped when
        possible: the queued store will rewrite the whole cell, so a
        DUE there can never reach a reader (write forwarding supersedes
        the media content) — poisoning it wastes the fault budget on a
        guaranteed no-op.
        """
        addresses = region_addresses(
            self.controller, target, self.touched_only,
            exclude_quarantined=self.exclude_quarantined,
        )
        if self.touched_only:
            wpq = self.controller.wpq
            settled = [a for a in addresses if wpq.lookup(a) is None]
            if settled:
                return settled
        return addresses
