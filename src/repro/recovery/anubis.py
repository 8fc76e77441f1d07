"""Post-crash recovery (Anubis shadow replay + Osiris counter trials).

Recovery rebuilds the secure-memory state that was lost from the
volatile metadata cache at power loss:

1. **Scan** every persisted shadow entry (one per cache slot).
2. **Reconstruct** each tracked metadata block:
   * tree nodes — stale NVM copy + recorded counter LSBs, with minimal
     carry resolution (:func:`repro.controller.shadow.reconstruct_counter`);
   * counter blocks — Osiris trials: for every slot, advance the stale
     minor counter until the (write-through) data MAC verifies, at most
     ``osiris_limit`` trials per counter.
   Every reconstruction is proven exact by the entry MAC.  When the
   stale copy itself is corrupt, each Soteria clone is tried as an
   alternative basis.
3. **Check integrity** of the whole shadow table by rebuilding its BMT
   from the canonical entry bytes and comparing with the root preserved
   on-chip.  A corrupted entry that cannot be repaired from a duplicate
   sub-entry fails recovery — exactly the failure mode Soteria's
   duplicated shadow entries (Figure 8b) are designed to remove.
4. **Write back** all recovered metadata (original + clones + sidecar
   MACs), resealed against the recovered parent counters, leaving the
   NVM image fully consistent and the new controller cold but correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import MAC_BYTES, SPLIT_COUNTER_ARITY
from repro.controller import (
    CrashImage,
    RecoveryError,
    SecureMemoryController,
)
from repro.controller.shadow import (
    KIND_COUNTER,
    KIND_NODE,
    TOMBSTONE,
    reconstruct_counter,
)
from repro.counters import SplitCounterBlock, TocNode


@dataclass
class RecoveryReport:
    """What recovery found and fixed."""

    entries_scanned: int = 0
    tombstones: int = 0
    nodes_recovered: int = 0
    counters_recovered: int = 0
    osiris_trials: int = 0
    repaired_entries: int = 0
    details: list = field(default_factory=list)


class RecoveryManager:
    """Drives recovery from a :class:`CrashImage`."""

    def __init__(self, image: CrashImage):
        self._image = image

    def recover(self):
        """Run full recovery; returns ``(controller, report)``.

        Raises :class:`RecoveryError` when the shadow table cannot be
        validated or a tracked block cannot be reconstructed.
        """
        image = self._image
        if image.integrity_mode != "toc":
            raise RecoveryError(
                "Anubis shadow recovery applies to ToC mode; use "
                "repro.recovery.OsirisRecovery for BMT images"
            )
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
            quarantine=image.quarantine,
            functional_crypto=True,
            trusted=image.trusted,
        )
        report = RecoveryReport()

        canonical = {}
        recovered_nodes = {}
        recovered_counters = {}
        codec = ctrl.shadow_codec
        for slot_id in range(ctrl.amap.shadow_entries):
            raw, touched = ctrl.shadow.read_raw_entry(slot_id)
            if not touched:
                continue
            report.entries_scanned += 1
            outcome = self._process_entry(
                ctrl, raw, report, recovered_nodes, recovered_counters
            )
            if outcome is None:
                raise RecoveryError(
                    f"shadow entry at slot {slot_id} is unrecoverable"
                )
            canonical_raw, repaired = outcome
            if repaired:
                report.repaired_entries += 1
            canonical[slot_id] = canonical_raw

        rebuilt_root = ctrl.shadow.rebuild_tree_root(canonical)
        if rebuilt_root != image.trusted.shadow_root:
            raise RecoveryError(
                "shadow table integrity check failed: rebuilt root does "
                "not match the root preserved on-chip"
            )

        self._write_back(ctrl, recovered_nodes, recovered_counters)

        # The log is consumed: everything it described is now persisted.
        # Tombstone every scanned slot so a later crash (whose cache
        # slot assignments may differ) never replays these records.
        tombstone = ctrl.shadow_codec.encode(TOMBSTONE)
        for slot_id in canonical:
            ctrl.nvm.write_block(
                ctrl.amap.shadow_entry_addr(slot_id), tombstone
            )
            ctrl.shadow.tree.update_leaf(slot_id, tombstone)
        report.nodes_recovered = len(recovered_nodes)
        report.counters_recovered = len(recovered_counters)
        return ctrl, report

    # ------------------------------------------------------------------

    def _process_entry(self, ctrl, raw, report, recovered_nodes, recovered_counters):
        """Validate one entry; returns (canonical bytes, was-repaired)
        or None when no candidate record can be proven correct."""
        codec = ctrl.shadow_codec
        candidates = codec.decode_candidates(raw)
        for position, record in enumerate(candidates):
            if record.is_empty:
                canonical = codec.encode(record)
                if position == 0 and canonical != raw:
                    # Garbage that *decodes* as empty but was not a real
                    # tombstone: only acceptable if a later candidate
                    # validates; a canonical mismatch here will fail the
                    # root check anyway, so try other candidates first.
                    continue
                report.tombstones += 1
                return canonical, canonical != raw
            try:
                region = ctrl.amap.region_of(record.address)
            except ValueError:
                continue  # corrupted address field
            if region[0] == "counter":
                index = region[1]
                block = self._osiris_reconstruct(ctrl, index, record, report)
                if block is None:
                    continue
                recovered_counters[index] = block
                canonical = codec.encode(record)
                return canonical, canonical != raw
            if region[0] == "tree":
                level, index = region[1], region[2]
                node = self._reconstruct_node(ctrl, level, index, record)
                if node is None:
                    continue
                recovered_nodes[(level, index)] = node
                canonical = codec.encode(record)
                return canonical, canonical != raw
            # Entry points outside metadata: corrupt address field.
            continue
        # Last resort for a corrupted-but-tombstone block: accept raw
        # zeros if every candidate decoded empty (pristine tombstone).
        if all(r.is_empty for r in candidates):
            report.tombstones += 1
            empty = candidates[0]
            return codec.encode(empty), codec.encode(empty) != raw
        return None

    def _stale_bases(self, ctrl, level, index):
        """Candidate stale copies of a node: original, then clones."""
        for address in ctrl.amap.all_copies(level, index):
            if not ctrl.nvm.is_touched(address):
                yield None
            else:
                yield ctrl.nvm.read_block(address)

    def _reconstruct_node(self, ctrl, level, index, record):
        lsb_bits = ctrl.shadow_codec.lsb_bits
        for base in self._stale_bases(ctrl, level, index):
            stale = TocNode() if base is None else TocNode.from_bytes(base)
            counters = [
                reconstruct_counter(stale.counters[i], record.lsbs[i], lsb_bits)
                for i in range(8)
            ]
            node = TocNode(counters=counters)
            expected = ctrl.shadow.record_mac(
                record.address, node.counters_bytes()
            )
            if expected == record.mac:
                return node
        return None

    def _osiris_reconstruct(self, ctrl, counter_index, record, report):
        amap = ctrl.amap
        nvm = ctrl.nvm
        limit = ctrl.osiris_limit
        for base in self._stale_bases(ctrl, 1, counter_index):
            block = (
                SplitCounterBlock()
                if base is None
                else SplitCounterBlock.from_bytes(base)
            )
            success = True
            for slot in range(SPLIT_COUNTER_ARITY):
                block_index = counter_index * SPLIT_COUNTER_ARITY + slot
                if block_index >= amap.num_data_blocks:
                    break
                data_address = amap.data_addr(block_index)
                if not nvm.is_touched(data_address):
                    continue
                ciphertext = nvm.read_block(data_address)
                mac_raw = nvm.read_block(amap.mac_addr(block_index))
                mac_slot = amap.mac_slot(block_index)
                stored_mac = mac_raw[
                    mac_slot * MAC_BYTES:(mac_slot + 1) * MAC_BYTES
                ]
                if not self._trial_slot(
                    ctrl, block, slot, data_address, ciphertext,
                    stored_mac, limit, report,
                ):
                    success = False
                    break
            if not success:
                continue
            expected = ctrl.shadow.record_mac(record.address, block.to_bytes())
            if expected == record.mac:
                return block
        return None

    @staticmethod
    def _trial_slot(ctrl, block, slot, address, ciphertext, stored_mac, limit, report):
        """Advance one minor counter until the data MAC verifies."""
        base_minor = block.minors[slot]
        for trial in range(limit + 1):
            minor = base_minor + trial
            if minor > 127:
                break
            report.osiris_trials += 1
            counter = (block.major << 7) | minor
            if ctrl.mac_engine.data_mac(ciphertext, address, counter) == stored_mac:
                block.set_minor(slot, minor)
                return True
        return False

    # ------------------------------------------------------------------

    def _write_back(self, ctrl, recovered_nodes, recovered_counters):
        """Persist every recovered block (plus clones and sidecar MACs),
        resealed against the recovered parent counters."""
        amap = ctrl.amap

        def parent_counter(level, index):
            parent = amap.parent_of(level, index)
            slot = amap.child_slot(level, index)
            if parent is None:
                return ctrl.root.counter(slot)
            if parent in recovered_nodes:
                return recovered_nodes[parent].counter(slot)
            address = amap.node_addr(*parent)
            if not ctrl.nvm.is_touched(address):
                return TocNode().counter(slot)
            return TocNode.from_bytes(ctrl.nvm.read_block(address)).counter(slot)

        for (level, index) in sorted(recovered_nodes, reverse=True):
            node = recovered_nodes[(level, index)]
            ctrl.auth.seal_node(level, index, node, parent_counter(level, index))
            for address in amap.all_copies(level, index):
                ctrl.nvm.write_block(address, node.to_bytes())

        for index, block in sorted(recovered_counters.items()):
            mac = ctrl.auth.counter_block_mac(
                index, block, parent_counter(1, index)
            )
            for address in amap.all_copies(1, index):
                ctrl.nvm.write_block(address, block.to_bytes())
            sidecar_address = amap.counter_mac_addr(index)
            sidecar = bytearray(ctrl.nvm.read_block(sidecar_address))
            slot = amap.counter_mac_slot(index)
            sidecar[slot * MAC_BYTES:(slot + 1) * MAC_BYTES] = mac
            sidecar_index = (
                sidecar_address - amap.counter_mac_offset
            ) // amap.block_size
            for address in amap.counter_mac_copies(sidecar_index):
                ctrl.nvm.write_block(address, bytes(sidecar))
