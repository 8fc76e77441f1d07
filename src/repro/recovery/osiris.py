"""Osiris-style recovery for the BMT integrity mode.

Osiris (Ye et al., MICRO 2018) recovers a crashed secure NVM *without*
any shadow tracking: encryption counters can be at most ``osiris_limit``
updates stale in NVM (the stop-loss writeback), so recovery advances
each stale counter by trial until the (write-through) data MAC
verifies, then regenerates the Merkle tree from the recovered counters
and checks the result against the always-fresh on-chip root.

This is the "time-consuming recovery" the paper contrasts with Anubis
(Section 2.6): it touches *every* written counter block and re-reads
the data region for the trials, where Anubis replays only the shadow
entries — our :class:`RecoveryReport`-style accounting makes that
contrast measurable (see ``benchmarks/test_ablation_recovery.py``).

Rollback protection: the regenerated root must equal the root register
preserved on-chip.  An attacker replaying old counters + data + MACs
consistently would regenerate a *different* root, because the register
reflects every update ever made (cached-eager propagation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import MAC_BYTES, SPLIT_COUNTER_ARITY
from repro.controller import CrashImage, RecoveryError, SecureMemoryController
from repro.counters import SplitCounterBlock
from repro.tree import BmtNode, ZERO_DIGEST


@dataclass
class OsirisReport:
    """What Osiris recovery scanned and fixed."""

    counter_blocks_scanned: int = 0
    counters_advanced: int = 0
    trials: int = 0
    data_blocks_read: int = 0
    nodes_regenerated: int = 0


class OsirisRecovery:
    """Drives BMT-mode recovery from a :class:`CrashImage`."""

    def __init__(self, image: CrashImage):
        if image.integrity_mode != "bmt":
            raise RecoveryError(
                "Osiris recovery applies to BMT mode; use "
                "repro.recovery.RecoveryManager for ToC images"
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
            integrity_mode="bmt",
            quarantine=image.quarantine,
            functional_crypto=True,
            trusted=image.trusted,
        )
        report = OsirisReport()

        counters = self._recover_counters(ctrl, report)
        root = self._regenerate_tree(ctrl, counters, report)
        if root != image.trusted.root:
            raise RecoveryError(
                "regenerated BMT root does not match the on-chip root "
                "register — replay or unrecoverable corruption"
            )
        # Adopt the (identical) regenerated root and we are done: the
        # NVM image is now fully consistent, the cache cold.
        return ctrl, report

    # ------------------------------------------------------------------

    def _touched_counter_indices(self, ctrl):
        """Every counter block recovery must visit: those persisted to
        NVM plus those implied by written data blocks (a first-write
        counter may never have been persisted at all)."""
        indices = set()
        amap = ctrl.amap
        for index in range(amap.level_sizes[0]):
            if ctrl.nvm.is_touched(amap.node_addr(1, index)):
                indices.add(index)
        for block_index in range(amap.num_data_blocks):
            if ctrl.nvm.is_touched(amap.data_addr(block_index)):
                indices.add(amap.counter_index_of_data(block_index))
        return sorted(indices)

    def _recover_counters(self, ctrl, report):
        """Osiris trials over every touched counter block."""
        recovered = {}
        for index in self._touched_counter_indices(ctrl):
            report.counter_blocks_scanned += 1
            block = self._recover_one(ctrl, index, report)
            if block is None:
                raise RecoveryError(
                    f"counter block {index} unrecoverable: no stale copy "
                    f"yields data-MAC-consistent counters"
                )
            recovered[index] = block
        return recovered

    def _stale_candidates(self, ctrl, index):
        for address in ctrl.amap.all_copies(1, index):
            if ctrl.nvm.is_poisoned(address):
                continue
            if not ctrl.nvm.is_touched(address):
                yield SplitCounterBlock()
            else:
                yield SplitCounterBlock.from_bytes(ctrl.nvm.read_block(address))

    def _recover_one(self, ctrl, index, report):
        amap = ctrl.amap
        for block in self._stale_candidates(ctrl, index):
            # Each slot's minor moves only in its own iteration, so one
            # snapshot serves the whole scan.
            minors = block.minors
            advanced = 0
            success = True
            for slot in range(SPLIT_COUNTER_ARITY):
                block_index = index * SPLIT_COUNTER_ARITY + slot
                if block_index >= amap.num_data_blocks:
                    break
                data_address = amap.data_addr(block_index)
                if not ctrl.nvm.is_touched(data_address):
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
                    report.trials += 1
                    counter = (block.major << 7) | minor
                    if ctrl.mac_engine.data_mac(
                        ciphertext, data_address, counter
                    ) == stored_mac:
                        if trial:
                            advanced += 1
                        block.set_minor(slot, minor)
                        found = True
                        break
                if not found:
                    success = False
                    break
            if success:
                report.counters_advanced += advanced
                return block
        return None

    def _regenerate_tree(self, ctrl, counters, report):
        """Rebuild every BMT level from the recovered counters upward,
        write everything (plus clones) back, and return the new root."""
        amap = ctrl.amap
        auth = ctrl._bmt_auth  # recovery is part of the controller TCB

        # Persist recovered counters first.
        for index, block in counters.items():
            for address in amap.all_copies(1, index):
                ctrl.nvm.write_block(address, block.to_bytes())

        child_digests = {
            index: auth.block_digest(1, index, block.to_bytes())
            for index, block in counters.items()
        }
        for level in range(2, amap.num_levels + 1):
            next_digests = {}
            parents = {child // BmtNode.ARITY for child in child_digests}
            for parent_index in sorted(parents):
                node = BmtNode()
                for slot in range(BmtNode.ARITY):
                    child_index = parent_index * BmtNode.ARITY + slot
                    digest = child_digests.get(child_index, ZERO_DIGEST)
                    node.set_digest(slot, digest)
                node_bytes = node.to_bytes()
                for address in amap.all_copies(level, parent_index):
                    ctrl.nvm.write_block(address, node_bytes)
                report.nodes_regenerated += 1
                next_digests[parent_index] = auth.block_digest(
                    level, parent_index, node_bytes
                )
            child_digests = next_digests

        root = BmtNode()
        for index, digest in child_digests.items():
            root.set_digest(index, digest)
        return root
