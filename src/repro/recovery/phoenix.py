"""Phoenix recovery: top-down reseal of the persistently-secure ToC.

The ``batched`` update policy writes no shadow entries at all; instead
the whole dirty metadata estate flushes every ``persist_batch`` data
writes, so every persisted block is boundedly stale.  Recovery exploits
the ToC's freshness invariant: a parent slot increments exactly when
that child persists, so a persisted child's embedded seal authenticates
the parent slot's *true* current value.  Anchored at the always-fresh
on-chip root, recovery walks the tree top-down:

1. verify each persisted node against its parent, advancing the stale
   persisted parent slot by trial until the child's seal verifies
   (bounded by :data:`TRIAL_LIMIT`; the root itself is never stale, so
   top-level nodes must verify with zero trials — anything else is a
   replay);
2. recover level-1 counter blocks the same way against their sidecar
   MACs, then advance stale minor counters by Osiris trials against the
   write-through data MACs;
3. write everything back resealed against the recovered true parent
   values, leaving the NVM image fully consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import MAC_BYTES, SPLIT_COUNTER_ARITY
from repro.controller import CrashImage, RecoveryError, SecureMemoryController
from repro.counters import SplitCounterBlock, TocNode

#: Upper bound on parent-slot staleness trials per tree edge.  Between
#: two batch flushes a slot advances at most once per child persist
#: (Osiris stop-loss persists plus eviction churn within one batch
#: window); 1024 is generously past anything a real run produces.
TRIAL_LIMIT = 1024


@dataclass
class PhoenixReport:
    """What Phoenix recovery scanned, advanced, and resealed."""

    nodes_scanned: int = 0
    node_trials: int = 0
    slots_advanced: int = 0
    counter_blocks_scanned: int = 0
    counters_advanced: int = 0
    osiris_trials: int = 0
    data_blocks_read: int = 0
    resealed_nodes: int = 0
    resealed_counters: int = 0


class PhoenixRecovery:
    """Drives batched-ToC recovery from a :class:`CrashImage`."""

    def __init__(self, image: CrashImage):
        if image.integrity_mode != "toc":
            raise RecoveryError(
                "Phoenix recovery applies to ToC-mode images (the batched "
                "persistence policy); use repro.recovery.recover_image for "
                "scheme-routed dispatch"
            )
        self._image = image

    def recover(self):
        """Run full recovery; returns ``(controller, report)``."""
        image = self._image
        ctrl = SecureMemoryController(
            image.data_bytes,
            nvm=image.nvm,
            clone_policy=image.clone_policy,
            shadow_codec=image.shadow_codec,
            metadata_cache_bytes=image.metadata_cache_bytes,
            metadata_ways=image.metadata_ways,
            wpq_entries=image.wpq_entries,
            osiris_limit=image.osiris_limit,
            update_policy=image.update_policy,
            integrity_mode="toc",
            quarantine=image.quarantine,
            persist_levels=image.persist_levels,
            persist_batch=image.persist_batch,
            scheme_name=image.scheme,
            functional_crypto=True,
            trusted=image.trusted,
        )
        report = PhoenixReport()
        needed = self._needed_indices(ctrl)

        recovered_nodes = {}
        for level in range(ctrl.amap.num_levels, 1, -1):
            for index in needed.get(level, ()):
                recovered_nodes[(level, index)] = self._recover_node(
                    ctrl, level, index, recovered_nodes, report
                )
        recovered_counters = {}
        for index in needed.get(1, ()):
            recovered_counters[index] = self._recover_counter(
                ctrl, index, recovered_nodes, report
            )
        self._write_back(ctrl, recovered_nodes, recovered_counters, report)
        return ctrl, report

    # ------------------------------------------------------------------

    def _needed_indices(self, ctrl):
        """{level: sorted indices} recovery must visit: every persisted
        block, every counter implied by written data (a young counter
        may never have been flushed), and every ancestor of either."""
        amap = ctrl.amap
        level1 = set()
        for index in range(amap.level_sizes[0]):
            if ctrl.nvm.is_touched(amap.node_addr(1, index)):
                level1.add(index)
        for block_index in range(amap.num_data_blocks):
            if ctrl.nvm.is_touched(amap.data_addr(block_index)):
                level1.add(amap.counter_index_of_data(block_index))
        needed = {1: sorted(level1)}
        children = level1
        for level in range(2, amap.num_levels + 1):
            indices = set()
            for child in children:
                parent = amap.parent_of(level - 1, child)
                if parent is not None:
                    indices.add(parent[1])
            for index in range(amap.level_sizes[level - 1]):
                if ctrl.nvm.is_touched(amap.node_addr(level, index)):
                    indices.add(index)
            needed[level] = sorted(indices)
            children = indices
        return needed

    def _parent_anchor(self, ctrl, level, index, recovered_nodes):
        """(stale base value, parent node or None-for-root, slot, trial
        budget) for one tree edge.  The on-chip root is never stale."""
        parent = ctrl.amap.parent_of(level, index)
        slot = ctrl.amap.child_slot(level, index)
        if parent is None:
            return ctrl.root.counter(slot), None, slot, 0
        pnode = recovered_nodes[parent]
        return pnode.counter(slot), pnode, slot, TRIAL_LIMIT

    @staticmethod
    def _node_candidates(ctrl, level, index):
        for address in ctrl.amap.all_copies(level, index):
            if ctrl.nvm.is_poisoned(address) or not ctrl.nvm.is_touched(address):
                continue
            yield TocNode.from_bytes(ctrl.nvm.read_block(address))

    def _recover_node(self, ctrl, level, index, recovered_nodes, report):
        report.nodes_scanned += 1
        if not any(
            ctrl.nvm.is_touched(a) for a in ctrl.amap.all_copies(level, index)
        ):
            # Never persisted: fresh zeros, parent slot never bumped.
            return TocNode()
        base, pnode, slot, budget = self._parent_anchor(
            ctrl, level, index, recovered_nodes
        )
        candidates = list(self._node_candidates(ctrl, level, index))
        for trial in range(budget + 1):
            value = base + trial
            for node in candidates:
                report.node_trials += 1
                if ctrl.auth.verify_node(level, index, node, value):
                    if trial:
                        pnode.counters[slot] = value
                        report.slots_advanced += 1
                    return node
        raise RecoveryError(
            f"level-{level} node {index}: no persisted copy verifies within "
            f"{budget} parent-slot trials"
        )

    def _sidecar_macs(self, ctrl, index):
        """Candidate stored MACs for one counter block, primary sidecar
        copy first, clones as fallback."""
        amap = ctrl.amap
        sidecar_index = (
            amap.counter_mac_addr(index) - amap.counter_mac_offset
        ) // amap.block_size
        slot = amap.counter_mac_slot(index)
        macs = []
        for address in amap.counter_mac_copies(sidecar_index):
            if ctrl.nvm.is_poisoned(address):
                continue
            raw = ctrl.nvm.read_block(address)
            mac = raw[slot * MAC_BYTES:(slot + 1) * MAC_BYTES]
            if mac not in macs:
                macs.append(mac)
        return macs

    def _recover_counter(self, ctrl, index, recovered_nodes, report):
        amap = ctrl.amap
        report.counter_blocks_scanned += 1
        touched = any(
            ctrl.nvm.is_touched(a) for a in amap.all_copies(1, index)
        )
        if touched:
            base, pnode, slot, budget = self._parent_anchor(
                ctrl, 1, index, recovered_nodes
            )
            macs = self._sidecar_macs(ctrl, index)
            candidates = [
                SplitCounterBlock.from_bytes(ctrl.nvm.read_block(a))
                for a in amap.all_copies(1, index)
                if ctrl.nvm.is_touched(a) and not ctrl.nvm.is_poisoned(a)
            ]
            block = None
            for trial in range(budget + 1):
                value = base + trial
                for candidate in candidates:
                    for mac in macs:
                        report.node_trials += 1
                        if ctrl.auth.verify_counter_block(
                            index, candidate, mac, value
                        ):
                            block = candidate
                            break
                    if block is not None:
                        break
                if block is not None:
                    if trial:
                        pnode.counters[slot] = value
                        report.slots_advanced += 1
                    break
            if block is None:
                raise RecoveryError(
                    f"counter block {index}: no persisted copy verifies "
                    f"against any sidecar MAC within {budget} trials"
                )
        else:
            # Written data below a never-flushed counter: start fresh.
            block = SplitCounterBlock()
        self._osiris_advance(ctrl, index, block, report)
        return block

    def _osiris_advance(self, ctrl, index, block, report):
        """Advance stale minor counters against the write-through data
        MACs (the persisted block is at most ``osiris_limit`` behind)."""
        amap = ctrl.amap
        # Each slot's minor moves only in its own iteration, so one
        # snapshot serves the whole scan.
        minors = block.minors
        for slot in range(SPLIT_COUNTER_ARITY):
            block_index = index * SPLIT_COUNTER_ARITY + slot
            if block_index >= amap.num_data_blocks:
                break
            data_address = amap.data_addr(block_index)
            if not ctrl.nvm.is_touched(data_address):
                continue
            if ctrl.nvm.is_poisoned(data_address) or ctrl.nvm.is_poisoned(
                amap.mac_addr(block_index)
            ):
                # Unreadable data (or MAC): the read path reports the
                # block lost; recovery must not guess its counter.
                continue
            report.data_blocks_read += 1
            ciphertext = ctrl.nvm.read_block(data_address)
            mac_raw = ctrl.nvm.read_block(amap.mac_addr(block_index))
            mac_slot = amap.mac_slot(block_index)
            stored_mac = mac_raw[
                mac_slot * MAC_BYTES:(mac_slot + 1) * MAC_BYTES
            ]
            found = False
            for trial in range(ctrl.osiris_limit + 1):
                minor = minors[slot] + trial
                if minor > 127:
                    break
                report.osiris_trials += 1
                counter = (block.major << 7) | minor
                if ctrl.mac_engine.data_mac(
                    ciphertext, data_address, counter
                ) == stored_mac:
                    if trial:
                        block.set_minor(slot, minor)
                        report.counters_advanced += 1
                    found = True
                    break
            if not found:
                raise RecoveryError(
                    f"counter block {index} slot {slot}: no minor within "
                    f"the Osiris bound matches the data MAC"
                )

    # ------------------------------------------------------------------

    def _write_back(self, ctrl, recovered_nodes, recovered_counters, report):
        """Persist every recovered block (plus clones and sidecar MACs)
        resealed against the recovered true parent values."""
        amap = ctrl.amap

        def parent_value(level, index):
            parent = amap.parent_of(level, index)
            slot = amap.child_slot(level, index)
            if parent is None:
                return ctrl.root.counter(slot)
            return recovered_nodes[parent].counter(slot)

        for (level, index) in sorted(recovered_nodes, reverse=True):
            node = recovered_nodes[(level, index)]
            ctrl.auth.seal_node(level, index, node, parent_value(level, index))
            node_bytes = node.to_bytes()
            for address in amap.all_copies(level, index):
                ctrl.nvm.write_block(address, node_bytes)
            report.resealed_nodes += 1

        for index, block in sorted(recovered_counters.items()):
            mac = ctrl.auth.counter_block_mac(
                index, block, parent_value(1, index)
            )
            for address in amap.all_copies(1, index):
                ctrl.nvm.write_block(address, block.to_bytes())
            sidecar_address = amap.counter_mac_addr(index)
            sidecar_index = (
                sidecar_address - amap.counter_mac_offset
            ) // amap.block_size
            copies = amap.counter_mac_copies(sidecar_index)
            live = next(
                (a for a in copies if not ctrl.nvm.is_poisoned(a)), copies[0]
            )
            sidecar = bytearray(ctrl.nvm.read_block(live))
            slot = amap.counter_mac_slot(index)
            sidecar[slot * MAC_BYTES:(slot + 1) * MAC_BYTES] = mac
            for address in copies:
                ctrl.nvm.write_block(address, bytes(sidecar))
            report.resealed_counters += 1
