"""The secure NVM memory controller (baseline + Soteria hooks).

This is the paper's "improved security NVM system": counter-mode
encryption with 64-ary split counters, a lazily-updated Tree of
Counters for integrity, a 512kB write-back metadata cache, Anubis-style
shadow tracking for crash recovery, Osiris-bounded counter staleness,
and — when a cloning policy with depth > 1 is installed — Soteria
metadata cloning with clone-based fault repair (Figure 9).

The controller is *functional*: it stores real (encrypted) bytes in the
NVM model, verifies real MACs, and survives real crash/corruption
tests.  For timing studies ``functional_crypto=False`` skips the
cryptographic math while producing byte-identical *traffic*, which is
what the performance figures depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import MetadataCache
from repro.constants import MAC_BYTES, SPLIT_COUNTER_ARITY, TOC_ARITY
from repro.controller.errors import (
    DataPoisonedError,
    IntegrityError,
    QuarantinedError,
    SecureMemoryError,
)
from repro.controller.payloads import (
    ZERO_MAC,
    CounterEntry,
    MacBlockEntry,
    NodeEntry,
)
from repro.controller.policy import CloningPolicy
from repro.controller.quarantine import QuarantineRegistry
from repro.controller.shadow import (
    KIND_COUNTER,
    KIND_NODE,
    TOMBSTONE,
    ZERO_LSBS,
    AnubisShadowCodec,
    ShadowManager,
    ShadowRecord,
)
from repro.controller.stats import ControllerStats, OpCost
from repro.counters import SplitCounterBlock, TocNode
from repro.crypto import CounterModeEngine, MacEngine, Prf
from repro.memory import AddressMap, NvmDevice, WritePendingQueue, tree_level_sizes
from repro.telemetry import Tracer
from repro.tree import ZERO_DIGEST, BmtAuthenticator, BmtNode, TocAuthenticator


@dataclass(slots=True)
class ReadResult:
    """Outcome of a data-block read."""

    data: bytes
    cost: OpCost


@dataclass
class TrustedState:
    """On-chip state that survives a crash (processor NVR/keys).

    The trust base of the whole scheme: encryption/MAC keys, the
    integrity-tree root (a :class:`TocNode` in ToC mode, a
    :class:`~repro.tree.BmtNode` in BMT mode), and the shadow-tree root.
    """

    prf: Prf
    mac_engine: MacEngine
    root: object
    shadow_root: bytes


@dataclass
class CrashImage:
    """Everything that persists across a simulated crash."""

    nvm: NvmDevice
    trusted: TrustedState
    data_bytes: int
    clone_policy: CloningPolicy
    shadow_codec: object
    metadata_cache_bytes: int
    metadata_ways: int
    wpq_entries: int
    osiris_limit: int
    update_policy: str = "lazy"
    integrity_mode: str = "toc"
    quarantine: bool = False
    persist_levels: int = 2
    persist_batch: int = 8
    #: Registered scheme name the controller was built for ("" for
    #: hand-assembled controllers); recovery routing keys on it.
    scheme: str = ""


#: Metadata update/persist policies (Table 1 + related work):
#: ``lazy`` persists on eviction with an Osiris stop-loss, ``eager``
#: persists the whole branch per write, ``selective`` (Triad-NVM)
#: persists the branch only up to ``persist_levels``, ``batched``
#: (Phoenix) flushes all dirty metadata every ``persist_batch`` writes.
UPDATE_POLICIES = ("lazy", "eager", "selective", "batched")


class SecureMemoryController:
    """Baseline secure memory controller with optional Soteria cloning."""

    def __init__(
        self,
        data_bytes: int,
        *,
        nvm: NvmDevice = None,
        clone_policy: CloningPolicy = None,
        shadow_codec=None,
        metadata_cache_bytes: int = 512 * 1024,
        metadata_ways: int = 8,
        wpq_entries: int = 8,
        osiris_limit: int = 4,
        functional_crypto: bool = True,
        update_policy: str = "lazy",
        integrity_mode: str = "toc",
        quarantine: bool = False,
        persist_levels: int = 2,
        persist_batch: int = 8,
        scheme_name: str = "",
        rng=None,
        trusted: TrustedState = None,
        registry=None,
        tracer: Tracer = None,
    ):
        if update_policy not in UPDATE_POLICIES:
            raise ValueError(
                f"update_policy must be one of {UPDATE_POLICIES}, "
                f"got {update_policy!r}"
            )
        if integrity_mode not in ("toc", "bmt"):
            raise ValueError(
                f"integrity_mode must be 'toc' or 'bmt', got {integrity_mode!r}"
            )
        if update_policy == "selective" and integrity_mode != "bmt":
            raise ValueError(
                "the 'selective' update policy requires integrity_mode='bmt' "
                "(upper levels regenerate from persisted digests at recovery)"
            )
        if update_policy == "batched" and integrity_mode != "toc":
            raise ValueError(
                "the 'batched' update policy requires integrity_mode='toc' "
                "(recovery reseals the counter tree from the on-chip root)"
            )
        if persist_levels < 1:
            raise ValueError("persist_levels must be >= 1")
        if persist_batch < 1:
            raise ValueError("persist_batch must be >= 1")
        self.data_bytes = data_bytes
        self.clone_policy = clone_policy or CloningPolicy()
        self.shadow_codec = shadow_codec or AnubisShadowCodec()
        self.metadata_cache_bytes = metadata_cache_bytes
        self.metadata_ways = metadata_ways
        self.wpq_entries = wpq_entries
        self.osiris_limit = osiris_limit
        self.functional_crypto = functional_crypto
        #: "lazy" (Table 1: update on eviction, Anubis tracking) or
        #: "eager" (every write persists its whole tree branch; the
        #: root is always fresh, no shadow tracking needed — and the
        #: write traffic shows why nobody ships it; Section 2.5).
        self.update_policy = update_policy
        #: "toc" — SGX-style Tree of Counters (parallel updates, NOT
        #: recomputable from leaves; Soteria's motivating case) or
        #: "bmt" — Bonsai-Merkle hash tree (recomputable intermediate
        #: nodes, cached-eager digest propagation keeps the root fresh,
        #: recovery is Osiris trials + tree regeneration, no shadow
        #: table).  Section 2.5 / 6.1.
        self.integrity_mode = integrity_mode
        #: Bottom tree levels persisted per write ("selective" policy).
        self.persist_levels = persist_levels
        #: Data writes between whole-estate flushes ("batched" policy).
        self.persist_batch = persist_batch
        self.scheme_name = scheme_name
        self._batch_writes = 0

        #: Structured per-op trace hook; instrumented sites check one
        #: ``enabled`` attribute, so tracing-disabled runs pay nothing.
        self.tracer = tracer if tracer is not None else Tracer()

        num_levels = len(tree_level_sizes(data_bytes // 64))
        depth_map = self.clone_policy.depth_map(num_levels)
        self._mcache = MetadataCache(
            metadata_cache_bytes, metadata_ways, registry=registry
        )
        self.amap = AddressMap(
            data_bytes,
            clone_depths=depth_map,
            shadow_entries=self._mcache.num_slots,
            # Sidecar MAC blocks inherit the counter level's redundancy:
            # without copies of their MACs, cloned counters would still
            # die with the sidecar (the layout's single point of failure).
            counter_mac_depth=depth_map.get(1, 1),
        )

        if nvm is None:
            nvm = NvmDevice(capacity_bytes=self.amap.total_bytes)
        if nvm.capacity_bytes < self.amap.total_bytes:
            raise ValueError(
                f"NVM capacity {nvm.capacity_bytes} smaller than mapped "
                f"space {self.amap.total_bytes}"
            )
        self.nvm = nvm
        if registry is not None:
            # Devices may pre-date the registry (crash images reuse the
            # survivor); adopt skips already-registered instruments.
            registry.adopt(nvm.metrics())
        self._wpq = WritePendingQueue(nvm, capacity=wpq_entries)

        if trusted is None:
            prf = Prf.generate(rng)
            mac_engine = MacEngine.generate(rng)
            root = TocNode() if integrity_mode == "toc" else BmtNode()
            trusted = TrustedState(
                prf=prf,
                mac_engine=mac_engine,
                root=root,
                shadow_root=b"",
            )
        self._prf = trusted.prf
        self._mac = trusted.mac_engine
        self.root = trusted.root
        self._cipher = CounterModeEngine(self._prf)
        self._auth = TocAuthenticator(self._mac)
        self._bmt_auth = BmtAuthenticator(self._mac)
        self._shadow = ShadowManager(
            self.amap,
            nvm,
            self._mac,
            self.shadow_codec,
            functional=functional_crypto,
        )
        self.stats = ControllerStats(registry=registry)
        # Hot-path hoists.  A request's block index is checked once, at
        # read/write; every address derived from it is arithmetic on the
        # map's layout constants, and hot counters are bumped straight
        # on their instruments.
        self._num_data_blocks = self.amap.num_data_blocks
        self._block_size = self.amap.block_size
        self._level_offsets = self.amap.level_offsets
        #: NVM-write kinds of each level's copies, original first.
        self._copy_kinds = [None] + [
            ("counter" if level == 1 else "tree",)
            + ("clone",) * (len(offsets) - 1)
            for level, offsets in enumerate(self.amap.copy_offsets[1:], 1)
        ]
        self._sidecar_kinds = ("counter_mac",) + ("clone",) * (
            len(self.amap.counter_mac_copy_offsets) - 1
        )
        self._data_reads = self.stats.instrument("data_reads")
        self._data_writes = self.stats.instrument("data_writes")
        self._reads_by_kind = self.stats.nvm_reads_by_kind
        self._writes_by_kind = self.stats.nvm_writes_by_kind
        self._evictions_by_level = self.stats.evictions_by_level
        #: Anubis tracking applies only to lazy ToC operation: eager
        #: mode keeps NVM current, and BMT mode recovers by regeneration.
        self._tracks_shadow = update_policy == "lazy" and integrity_mode == "toc"
        #: Degraded-mode registry (None = classic drop-and-lock: a dead
        #: node raises IntegrityError on every access it covers).
        self.quarantine = QuarantineRegistry(self.amap) if quarantine else None
        self._suppress_quarantine = False
        # Victim queue: dirty evictions are persisted from here *after*
        # the operation that caused them completes, never nested inside
        # another block's persist.  Without this, persisting node P can
        # trigger an eviction whose handling re-fetches P's stale NVM
        # copy while the authoritative P is mid-persist — forking two
        # divergent versions of the same metadata.  Fetches check the
        # queue first (eviction cancellation), like a hardware victim
        # buffer.  The queue always drains before a public operation
        # returns, so it holds nothing at crash time.
        self._victims: dict = {}
        self._draining = False

    # ------------------------------------------------------------------
    # public data path
    # ------------------------------------------------------------------

    @property
    def num_data_blocks(self) -> int:
        return self.amap.num_data_blocks

    def read(self, block_index: int) -> ReadResult:
        """Read and verify one 64-byte data block."""
        if not 0 <= block_index < self._num_data_blocks:
            self.amap.data_addr(block_index)  # raises the map's IndexError
        cost = OpCost()
        self._data_reads.n += 1
        address = block_index * self._block_size
        if self.tracer.enabled:
            self.tracer.emit("demand_read", block=block_index, address=address)
        if self.quarantine is not None:
            self._check_quarantine(block_index, address)
        entry = self._get_counter(block_index // SPLIT_COUNTER_ARITY, cost)
        counter = entry.block.effective_counter(block_index % SPLIT_COUNTER_ARITY)

        # A pending WPQ store is inside the ADR persistence domain and
        # supersedes dead media cells (the drain rewrites the row and
        # clears the poison), so only unforwarded reads see the DUE.
        if self._effectively_poisoned(address):
            raise DataPoisonedError(address)
        ciphertext, touched = self._nvm_read(address, cost, "data")
        if not touched:
            if self.tracer.enabled:
                self.tracer.emit(
                    "data_read", block=block_index, address=address,
                    data=bytes(64), counter=counter,
                )
            return ReadResult(data=bytes(64), cost=cost)

        mac_block = self._get_mac_block(self._mac_addr(block_index), cost)
        stored_mac = mac_block.macs[block_index % AddressMap.MACS_PER_BLOCK]
        if self.functional_crypto:
            if self._mac.data_mac(ciphertext, address, counter) != stored_mac:
                self.stats.integrity_failures += 1
                raise IntegrityError(
                    address, 0, block_index, "data MAC mismatch"
                )
            plaintext = self._cipher.decrypt(ciphertext, address, counter)
        else:
            plaintext = ciphertext
        if self.tracer.enabled:
            self.tracer.emit(
                "data_read", block=block_index, address=address,
                data=plaintext, counter=counter,
            )
        return ReadResult(data=plaintext, cost=cost)

    def write(self, block_index: int, data: bytes) -> OpCost:
        """Encrypt and persist one 64-byte data block."""
        if len(data) != 64:
            raise ValueError(f"data must be 64 bytes, got {len(data)}")
        if not 0 <= block_index < self._num_data_blocks:
            self.amap.data_addr(block_index)  # raises the map's IndexError
        cost = OpCost()
        self._data_writes.n += 1
        address = block_index * self._block_size
        if self.quarantine is not None:
            self._check_quarantine(block_index, address)
        counter_index = block_index // SPLIT_COUNTER_ARITY
        slot = block_index % SPLIT_COUNTER_ARITY

        entry = self._get_counter(counter_index, cost)
        overflow = entry.block.increment(slot)
        counter_address = self._node_addr(1, counter_index)
        slot_id = self._mcache.mark_dirty(counter_address)
        try:
            if overflow is not None:
                self._reencrypt_page(counter_index, entry, overflow, cost)
                # The re-encryption's MAC-block fills may have moved or
                # evicted the block: the increment's Osiris tally and
                # shadow entry belong on the resident copy.
                if not self._mcache.contains(counter_address):
                    entry = self._get_counter(counter_index, cost)
                slot_id = self._mcache.mark_dirty(counter_address)
            updates = entry.bump_slot(slot)
            if self.integrity_mode == "bmt":
                self._propagate_bmt(counter_index, entry, cost)
            else:
                self._shadow_note_counter(slot_id, counter_address, entry, cost)

            counter = entry.block.effective_counter(slot)
            if self.functional_crypto:
                ciphertext = self._cipher.encrypt(data, address, counter)
                data_mac = self._mac.data_mac(ciphertext, address, counter)
            else:
                ciphertext = data
                data_mac = ZERO_MAC
            self._enqueue_write(address, ciphertext, cost, "data")

            mac_address = self._mac_addr(block_index)
            mac_block = self._get_mac_block(mac_address, cost)
            mac_block.macs[block_index % AddressMap.MACS_PER_BLOCK] = data_mac
            self._enqueue_write(mac_address, mac_block.to_bytes(), cost, "mac")

            if self.update_policy == "eager":
                self._persist_branch(counter_index, entry, cost)
            elif self.update_policy == "selective":
                # Triad-NVM: the counter and the bottom persist_levels
                # of its branch are strictly persistent; upper levels
                # regenerate at recovery.
                self._persist_branch(
                    counter_index, entry, cost, max_level=self.persist_levels
                )
            elif self.update_policy == "batched":
                # Phoenix: the Osiris stop-loss still bounds counter
                # staleness; every persist_batch writes the whole dirty
                # metadata estate flushes (no shadow tracking at all).
                if updates >= self.osiris_limit:
                    self.stats.osiris_persists += 1
                    self._persist_counter_entry(counter_index, entry, cost)
                self._batch_writes += 1
                if self._batch_writes >= self.persist_batch:
                    self._batch_writes = 0
                    self._flush_metadata(cost)
            elif updates >= self.osiris_limit:
                self.stats.osiris_persists += 1
                self._persist_counter_entry(counter_index, entry, cost)
        except SecureMemoryError:
            # The cached counter already took its increment; a lockstep
            # oracle must mirror that even though the write itself died.
            if self.tracer.enabled:
                self.tracer.emit(
                    "data_write_failed", block=block_index,
                    counter_index=counter_index, slot=slot,
                )
            raise
        if self.tracer.enabled:
            self.tracer.emit(
                "data_write", block=block_index, address=address,
                counter_index=counter_index, slot=slot,
                counter=counter, data=data,
            )
        return cost

    def _persist_branch(
        self, counter_index: int, entry: CounterEntry, cost: OpCost,
        max_level: int = None,
    ) -> None:
        """Eager update: persist the counter and every ancestor it
        dirtied, leaf to root, leaving the whole branch clean in cache
        and current in NVM (the root is then never stale).

        ``max_level`` bounds the walk (the "selective" policy): only
        levels up to it persist; higher dirty ancestors stay cached.
        """
        top = self.amap.num_levels
        if max_level is not None:
            top = min(max_level, top)
        self._persist_counter_entry(counter_index, entry, cost)
        address = self._node_addr(1, counter_index)
        if self._mcache.contains(address):
            self._mcache.mark_clean(address)
        index = counter_index
        for level in range(2, top + 1):
            index //= TOC_ARITY
            address = self._node_addr(level, index)
            if not self._mcache.is_dirty(address):
                continue
            payload = self._mcache.peek(address)
            self._persist_node(level, index, payload.node, cost)
            self._mcache.mark_clean(address)

    def flush(self) -> OpCost:
        """Clean shutdown: persist all dirty metadata and drain the WPQ.

        Dirty blocks are persisted *in place*, level by level from the
        leaves up, so every parent bump lands on the authoritative
        cached copy before that parent is itself persisted.  Blocks stay
        resident (clean) afterwards.
        """
        cost = OpCost()
        self._flush_metadata(cost)
        self._wpq.drain_all()
        return cost

    def _flush_metadata(self, cost: OpCost) -> None:
        """Persist every dirty metadata block in place, leaves up (the
        shared body of :meth:`flush` and the Phoenix batch flush; the
        WPQ keeps draining in the background here)."""
        for level in range(1, self.amap.num_levels + 1):
            for address, payload, dirty in self._mcache.resident():
                if not dirty or not self._mcache.is_dirty(address):
                    continue
                block_level, index = self._node_of(address, payload)
                if block_level != level:
                    continue
                if level == 1:
                    self._persist_counter_entry(index, payload, cost)
                else:
                    self._persist_node(level, index, payload.node, cost)
                # Persisting can itself evict this line (a ToC parent
                # bump may miss-fetch into a full set); the victim
                # drain already persisted it, so only clean what is
                # still resident.
                if self._mcache.contains(address):
                    self._mcache.mark_clean(address)

    def rekey(self, rng=None) -> OpCost:
        """Re-encrypt the entire memory under fresh keys.

        This is the paper's remedy of last resort — after counter
        exhaustion or a security incident, "re-encrypting the whole
        memory with a new key, a very lengthy and expensive process
        that can take hours" (Section 1).  Every written block is read
        and verified under the old keys, the whole metadata estate is
        shredded (counters restart at zero, which is safe because the
        OTPs now derive from a new key), and the data is rewritten.

        Returns the (large) traffic cost; the controller continues
        operating under the new keys afterwards.
        """
        cost = OpCost()
        plaintexts = {}
        for block_index in range(self.num_data_blocks):
            if not self.nvm.is_touched(self.amap.data_addr(block_index)):
                continue
            try:
                result = self.read(block_index)  # verifies under old keys
            except SecureMemoryError:
                # Unreadable under the old keys (poisoned, quarantined,
                # or integrity-dead): the block is lost; re-keying wipes
                # it so the new epoch starts clean.
                self.stats.rekey_lost_blocks += 1
                continue
            cost.add(result.cost)
            plaintexts[block_index] = result.data
        try:
            self.flush()
        except SecureMemoryError:
            # Dead metadata can make the final writeback fail; the whole
            # estate is shredded next anyway.
            self._wpq.drain_all()

        # Fresh keys and a clean metadata estate.
        self._prf = Prf.generate(rng)
        self._mac = MacEngine.generate(rng)
        self._cipher = CounterModeEngine(self._prf)
        self._auth = TocAuthenticator(self._mac)
        self._bmt_auth = BmtAuthenticator(self._mac)
        self.root = TocNode() if self.integrity_mode == "toc" else BmtNode()
        self._mcache.flush_all()
        self._victims.clear()
        self._batch_writes = 0
        self._shadow = ShadowManager(
            self.amap,
            self.nvm,
            self._mac,
            self.shadow_codec,
            functional=self.functional_crypto,
        )
        for address in self.nvm.touched_addresses():
            if address >= self.amap.total_bytes:
                continue  # a device larger than the map: not our estate
            region = self.amap.region_of(address)
            if region[0] != "data":
                self.nvm.erase_block(address)
            elif region[1] not in plaintexts:
                # Lost under the old keys: wipe rather than carry
                # unreadable ciphertext into the new epoch.
                self.nvm.erase_block(address)
        if self.quarantine is not None:
            self.quarantine.clear()
            self.stats.quarantined_bytes = 0
        if self.tracer.enabled:
            # Lockstep observers reset their counter mirrors here; the
            # rewrite loop below replays every surviving block through
            # the normal write path (and its data_write events).
            self.tracer.emit("rekey", kept=sorted(plaintexts))

        for block_index, data in sorted(plaintexts.items()):
            cost.add(self.write(block_index, data))
        self.flush()
        return cost

    def crash(self) -> CrashImage:
        """Power loss: the WPQ flushes (ADR); all volatile state is lost.

        Returns the persistent image recovery starts from.  This
        controller instance must not be used afterwards.
        """
        self._wpq.power_loss_flush()
        trusted = TrustedState(
            prf=self._prf,
            mac_engine=self._mac,
            root=self.root.copy(),
            shadow_root=self._shadow.tree.root,
        )
        return CrashImage(
            nvm=self.nvm,
            trusted=trusted,
            data_bytes=self.data_bytes,
            clone_policy=self.clone_policy,
            shadow_codec=self.shadow_codec,
            metadata_cache_bytes=self.metadata_cache_bytes,
            metadata_ways=self.metadata_ways,
            wpq_entries=self.wpq_entries,
            osiris_limit=self.osiris_limit,
            update_policy=self.update_policy,
            integrity_mode=self.integrity_mode,
            quarantine=self.quarantine is not None,
            persist_levels=self.persist_levels,
            persist_batch=self.persist_batch,
            scheme=self.scheme_name,
        )

    # ------------------------------------------------------------------
    # degraded mode (quarantine)
    # ------------------------------------------------------------------

    def _check_quarantine(self, block_index: int, address: int) -> None:
        """Fail fast on accesses into a quarantined range (callers skip
        it when quarantine is disabled)."""
        blocked = self.quarantine.covering(block_index)
        if blocked is not None:
            self.stats.quarantined_accesses += 1
            raise QuarantinedError(
                address, blocked.level, blocked.index, blocked.reason
            )

    def _metadata_dead(self, level: int, index: int, reason: str):
        """A metadata node lost every copy.  With quarantine enabled the
        covered range is recorded and a typed QuarantinedError surfaces;
        otherwise the classic drop-and-lock IntegrityError."""
        self.stats.integrity_failures += 1
        address = self.amap.node_addr(level, index)
        if self.quarantine is not None and not self._suppress_quarantine:
            self.quarantine_node(level, index, reason)
            raise QuarantinedError(address, level, index, reason)
        raise IntegrityError(address, level, index, reason)

    def quarantine_node(self, level: int, index: int, reason: str = "scrubber retries exhausted"):
        """Record a metadata node's coverage as unverifiable.

        ``level`` 0 addresses a sidecar MAC block by sidecar index.
        Returns the registry entry, or ``None`` when quarantine is
        disabled or the node is already quarantined.
        """
        if self.quarantine is None:
            return None
        if self.tracer.enabled:
            self.tracer.emit("quarantine", level=level, index=index, reason=reason)
        if level == 0:
            return self._quarantine_sidecar(index, reason)
        entry = self.quarantine.add_node(level, index, reason)
        if entry is not None:
            self.stats.quarantined_nodes += 1
            self.stats.quarantined_bytes = self.quarantine.quarantined_data_bytes
        return entry

    def _quarantine_sidecar(self, sidecar_index: int, reason: str):
        """Quarantine the eight-counter span served by a sidecar block."""
        macs_per_block = self.amap.block_size // MAC_BYTES
        first_counter = sidecar_index * macs_per_block
        first_block = first_counter * SPLIT_COUNTER_ARITY
        num_blocks = min(
            macs_per_block * SPLIT_COUNTER_ARITY,
            self.num_data_blocks - first_block,
        )
        entry = self.quarantine.add_range(
            0,
            sidecar_index,
            self.amap.counter_mac_offset + sidecar_index * self.amap.block_size,
            first_block,
            max(num_blocks, 0),
            reason,
        )
        if entry is not None:
            self.stats.quarantined_nodes += 1
            self.stats.quarantined_bytes = self.quarantine.quarantined_data_bytes
        return entry

    # ------------------------------------------------------------------
    # NVM traffic primitives
    # ------------------------------------------------------------------

    def _effectively_poisoned(self, address: int) -> bool:
        """True when a DUE on ``address`` can actually reach a reader.

        A pending WPQ store is inside the ADR persistence domain and
        supersedes the dead media cells: ``_nvm_read`` forwards the
        pending bytes, and the eventual drain rewrites the row and
        clears the poison.  Treating such an address as poisoned is
        wrong twice over — the forwarded bytes are good, and a repair
        kicked off for them double-counts in clone_repair telemetry
        (once now, once when the scrubber sees the still-set flag).
        """
        nvm = self.nvm
        return (
            nvm.has_poison
            and nvm.is_poisoned(address)
            and self._wpq.lookup(address) is None
        )

    def _nvm_read(self, address: int, cost: OpCost, kind: str):
        """Read one block: WPQ forwarding first, then the device.

        Returns (bytes, touched) — ``touched`` False means the block is
        factory-fresh zeros and implicitly valid.
        """
        pending = self._wpq.lookup(address)
        if pending is not None:
            return pending, True
        cost.blocking_reads += 1
        self._reads_by_kind[kind] += 1
        return self.nvm.read_block_touched(address)

    def _enqueue_write(self, address: int, data: bytes, cost: OpCost, kind: str) -> None:
        self._wpq.enqueue(address, data)
        cost.posted_writes += 1
        self._writes_by_kind[kind] += 1

    def _enqueue_atomic(self, entries, cost: OpCost, kinds) -> None:
        self._wpq.enqueue_atomic(entries)
        cost.posted_writes += len(entries)
        writes = self._writes_by_kind
        for kind in kinds:
            writes[kind] += 1

    def _write_copies(self, level: int, index: int, data: bytes, cost: OpCost) -> None:
        """Persist every copy of a node, original first, atomically."""
        offset = index * self._block_size
        self._enqueue_atomic(
            [(base + offset, data) for base in self.amap.copy_offsets[level]],
            cost,
            self._copy_kinds[level],
        )

    # Layout arithmetic on indices the controller derived itself from a
    # checked block index (AddressMap's methods check them again).

    def _node_addr(self, level: int, index: int) -> int:
        return self._level_offsets[level] + index * self._block_size

    def _mac_addr(self, block_index: int) -> int:
        return (
            self.amap.mac_offset
            + block_index // AddressMap.MACS_PER_BLOCK * self._block_size
        )

    # ------------------------------------------------------------------
    # metadata fetch (verify on fill)
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # BMT mode: digest propagation, fetch, repair
    # ------------------------------------------------------------------

    def _propagate_bmt(self, counter_index: int, entry: CounterEntry, cost: OpCost) -> None:
        """Cached-eager digest propagation after an in-cache update.

        Refreshes the digest path from this counter block up to the
        on-chip root.  Only SRAM state changes (path nodes are pulled
        through the metadata cache and dirtied); NVM copies still
        update lazily at eviction.  This keeps two invariants: the
        root is always fresh (Osiris-style recovery can trust it), and
        any *evicted* block's NVM bytes always match its parent's
        recorded digest (fetch verification stays sound).
        """
        child_bytes = entry.block.to_bytes() if self.functional_crypto else None
        level, index = 1, counter_index
        while True:
            digest = (
                self._bmt_auth.block_digest(level, index, child_bytes)
                if self.functional_crypto
                else ZERO_DIGEST
            )
            slot = index % TOC_ARITY
            if level == self.amap.num_levels:
                self.root.set_digest(slot, digest)
                return
            level, index = level + 1, index // TOC_ARITY
            pnode = self._get_node(level, index, cost)
            pnode.set_digest(slot, digest)
            self._mcache.mark_dirty(self._node_addr(level, index))
            child_bytes = pnode.to_bytes() if self.functional_crypto else None

    def _parent_digest_of(self, level: int, index: int, cost: OpCost) -> bytes:
        slot = index % TOC_ARITY
        if level == self.amap.num_levels:
            return self.root.digest(slot)
        return self._get_node(level + 1, index // TOC_ARITY, cost).digest(slot)

    def _get_node_bmt(self, level: int, index: int, cost: OpCost) -> BmtNode:
        address = self._node_addr(level, index)
        payload = self._mcache.get(address)
        if payload is not None:
            return payload.node
        eviction = self._victims.pop(address, None)
        if eviction is not None:
            return self._reclaim_victim(eviction, cost).node
        expected = self._parent_digest_of(level, index, cost)
        raw, touched = self._nvm_read(address, cost, "tree")
        poisoned = self._effectively_poisoned(address)
        if not touched and not poisoned and (
            not self.functional_crypto or expected == ZERO_DIGEST
        ):
            node = BmtNode()
        else:
            node = BmtNode.from_bytes(raw)
            ok = not poisoned and (
                not self.functional_crypto
                or self._bmt_auth.verify_block(level, index, raw, expected)
            )
            if not ok:
                node = self._repair_node_bmt(level, index, expected, cost)
        self._fill_metadata(address, NodeEntry(node, level), False, cost)
        return node

    def _repair_node_bmt(self, level: int, index: int, expected: bytes, cost: OpCost) -> BmtNode:
        """Repair a damaged BMT node: clones first, then *recompute*
        from the children's persisted bytes — the capability ToC nodes
        lack (Section 2.5), which is why the ToC needs Soteria."""
        depth = self.amap.clone_depths.get(level, 1)
        for copy in range(1, depth):
            address = self.amap.clone_addr(level, index, copy)
            raw, touched = self._nvm_read(address, cost, "clone")
            if self._effectively_poisoned(address) or not touched:
                continue
            if self.functional_crypto and not self._bmt_auth.verify_block(
                level, index, raw, expected
            ):
                continue
            candidate = BmtNode.from_bytes(raw)
            self._purify(level, index, raw, cost)
            return candidate

        rebuilt = BmtNode()
        child_level = level - 1
        child_count = self.amap.level_sizes[child_level - 1]
        for slot in range(BmtNode.ARITY):
            child_index = index * BmtNode.ARITY + slot
            if child_index >= child_count:
                break
            child_address = self.amap.node_addr(child_level, child_index)
            if not self.nvm.is_touched(child_address):
                continue  # fresh child: zero digest stands
            child_bytes = self.nvm.read_block(child_address)
            cost.blocking_reads += 1
            self.stats.record_read("tree" if child_level > 1 else "counter")
            rebuilt.set_digest(
                slot,
                self._bmt_auth.block_digest(child_level, child_index, child_bytes),
            )
        if not self.functional_crypto or self._bmt_auth.verify_block(
            level, index, rebuilt.to_bytes(), expected
        ):
            self.stats.bmt_recomputations += 1
            self._purify(level, index, rebuilt.to_bytes(), cost)
            return rebuilt
        self._metadata_dead(
            level, index,
            "copies failed and recomputation did not match parent digest",
        )

    def _get_counter_bmt(self, index: int, cost: OpCost) -> CounterEntry:
        address = self._node_addr(1, index)
        payload = self._mcache.get(address)
        if payload is not None:
            return payload
        eviction = self._victims.pop(address, None)
        if eviction is not None:
            return self._reclaim_victim(eviction, cost)
        expected = self._parent_digest_of(1, index, cost)
        raw, touched = self._nvm_read(address, cost, "counter")
        poisoned = self._effectively_poisoned(address)
        if not touched and not poisoned and (
            not self.functional_crypto or expected == ZERO_DIGEST
        ):
            entry = CounterEntry(SplitCounterBlock())
        else:
            block = SplitCounterBlock.from_bytes(raw)
            ok = not poisoned and (
                not self.functional_crypto
                or self._bmt_auth.verify_block(1, index, raw, expected)
            )
            if not ok:
                block = self._repair_counter_bmt(index, expected, cost)
            entry = CounterEntry(block)
        self._fill_metadata(address, entry, False, cost)
        return entry

    def _repair_counter_bmt(self, index: int, expected: bytes, cost: OpCost) -> SplitCounterBlock:
        """Counter blocks have no children to recompute from — only
        clones can save them, in BMT mode just as in ToC mode (the
        paper's Section 6.1 point)."""
        depth = self.amap.clone_depths.get(1, 1)
        for copy in range(1, depth):
            address = self.amap.clone_addr(1, index, copy)
            raw, touched = self._nvm_read(address, cost, "clone")
            if self._effectively_poisoned(address) or not touched:
                continue
            if self.functional_crypto and not self._bmt_auth.verify_block(
                1, index, raw, expected
            ):
                continue
            candidate = SplitCounterBlock.from_bytes(raw)
            self._purify(1, index, raw, cost)
            return candidate
        self._metadata_dead(1, index, "all copies failed verification")

    # ------------------------------------------------------------------
    # ToC mode fetch chain
    # ------------------------------------------------------------------

    def _parent_counter_of(self, level: int, index: int, cost: OpCost) -> int:
        slot = index % TOC_ARITY
        if level == self.amap.num_levels:
            return self.root.counters[slot]
        return self._get_node(level + 1, index // TOC_ARITY, cost).counters[slot]

    def _bump_parent(self, level: int, index: int, cost: OpCost) -> int:
        """Increment the parent counter for a child persist; returns the
        new counter value.  A non-root parent becomes dirty in the cache
        and gets a fresh shadow entry."""
        slot = index % TOC_ARITY
        if level == self.amap.num_levels:
            return self.root.increment(slot)
        plevel, pindex = level + 1, index // TOC_ARITY
        pnode = self._get_node(plevel, pindex, cost)
        counter = pnode.increment(slot)
        address = self._node_addr(plevel, pindex)
        slot_id = self._mcache.mark_dirty(address)
        self._shadow_note_node(slot_id, address, pnode, cost)
        return counter

    def _get_node(self, level: int, index: int, cost: OpCost):
        """Fetch (and verify) a tree node at level >= 2, via the cache."""
        if self.integrity_mode == "bmt":
            return self._get_node_bmt(level, index, cost)
        address = self._level_offsets[level] + index * self._block_size
        payload = self._mcache.get(address)
        if payload is not None:
            return payload.node
        eviction = self._victims.pop(address, None)
        if eviction is not None:
            return self._reclaim_victim(eviction, cost).node
        parent_counter = self._parent_counter_of(level, index, cost)
        raw, touched = self._nvm_read(address, cost, "tree")
        if not touched:
            node = TocNode()
        else:
            node = TocNode.from_bytes(raw)
            if not self._node_ok(level, index, node, parent_counter, address):
                node = self._repair_node(level, index, parent_counter, cost)
        self._fill_metadata(address, NodeEntry(node, level), False, cost)
        return node

    def _node_ok(self, level, index, node, parent_counter, address) -> bool:
        if self._effectively_poisoned(address):
            return False
        if not self.functional_crypto:
            return True
        return self._auth.verify_node(level, index, node, parent_counter)

    def _repair_node(self, level: int, index: int, parent_counter: int, cost: OpCost) -> TocNode:
        """Soteria fault handling (Figure 9): try the clones, purify.

        With no clones (baseline) this immediately degenerates to an
        IntegrityError — the drop-and-lock outcome.
        """
        depth = self.amap.clone_depths.get(level, 1)
        for copy in range(1, depth):
            address = self.amap.clone_addr(level, index, copy)
            raw, touched = self._nvm_read(address, cost, "clone")
            if self._effectively_poisoned(address):
                continue
            candidate = TocNode() if not touched else TocNode.from_bytes(raw)
            if self.functional_crypto and not self._auth.verify_node(
                level, index, candidate, parent_counter
            ):
                continue
            self._purify(level, index, candidate.to_bytes(), cost)
            return candidate
        self._metadata_dead(level, index, "all copies failed verification")

    def _repair_counter(
        self, index: int, stored_mac: bytes, parent_counter: int, cost: OpCost
    ):
        """Clone-based repair of a level-1 counter block.

        Every live copy of the counter is checked against every live
        copy of its sidecar MAC — the sidecar itself may be the
        corrupted party, in which case a counter copy only verifies
        against a sidecar *clone*.  The first surviving pair wins; both
        regions are purified from it.  Returns ``(block, mac)``.
        """
        sidecar_index = self._sidecar_index_of(index)
        slot = self.amap.counter_mac_slot(index)
        macs = [(stored_mac, None)]
        for copy in range(1, self.amap.counter_mac_depth):
            address = self.amap.counter_mac_clone_addr(sidecar_index, copy)
            raw, _ = self._nvm_read(address, cost, "clone")
            if self._effectively_poisoned(address):
                continue
            mac = raw[slot * MAC_BYTES:(slot + 1) * MAC_BYTES]
            if mac != stored_mac:
                macs.append((mac, raw))
        depth = self.amap.clone_depths.get(1, 1)
        for copy in range(depth):
            if copy == 0:
                address = self.amap.node_addr(1, index)
                kind = "counter"
            else:
                address = self.amap.clone_addr(1, index, copy)
                kind = "clone"
            raw, touched = self._nvm_read(address, cost, kind)
            if self._effectively_poisoned(address):
                continue
            candidate = (
                SplitCounterBlock()
                if not touched
                else SplitCounterBlock.from_bytes(raw)
            )
            for mac_position, (mac, sidecar_bytes) in enumerate(macs):
                if copy == 0 and mac_position == 0:
                    continue  # the pair that already failed in _get_counter
                if self.functional_crypto and not self._auth.verify_counter_block(
                    index, candidate, mac, parent_counter
                ):
                    continue
                if sidecar_bytes is not None:
                    self._purify_sidecar(sidecar_index, sidecar_bytes, cost)
                self._purify(1, index, candidate.to_bytes(), cost)
                return candidate, mac
        self._metadata_dead(1, index, "all copies failed verification")

    def _purify(self, level: int, index: int, good_bytes: bytes, cost: OpCost) -> None:
        """Rewrite every copy of a node with the verified value."""
        self.stats.clone_repairs += 1
        if self.tracer.enabled:
            self.tracer.emit("clone_repair", level=level, index=index)
        addresses = self.amap.all_copies(level, index)
        self._enqueue_atomic(
            [(address, good_bytes) for address in addresses],
            cost,
            ["clone"] * len(addresses),
        )
        for address in addresses:
            self.nvm.clear_poison(address)

    def _get_counter(self, index: int, cost: OpCost) -> CounterEntry:
        """Fetch (and verify) a level-1 counter block, via the cache."""
        if self.integrity_mode == "bmt":
            return self._get_counter_bmt(index, cost)
        address = self._level_offsets[1] + index * self._block_size
        payload = self._mcache.get(address)
        if payload is not None:
            return payload
        eviction = self._victims.pop(address, None)
        if eviction is not None:
            return self._reclaim_victim(eviction, cost)
        parent_counter = self._parent_counter_of(1, index, cost)
        raw, touched = self._nvm_read(address, cost, "counter")
        sidecar_index, slot = divmod(index, AddressMap.MACS_PER_BLOCK)
        sidecar_address = self.amap.counter_mac_offset + sidecar_index * self._block_size
        sidecar, _ = self._nvm_read(sidecar_address, cost, "counter_mac")
        if self._effectively_poisoned(sidecar_address):
            sidecar = self._recover_sidecar(index, cost)
            if sidecar is None:
                self._sidecar_dead(index)
        stored_mac = sidecar[slot * MAC_BYTES:(slot + 1) * MAC_BYTES]
        if not touched:
            entry = CounterEntry(SplitCounterBlock(), mac=stored_mac)
        else:
            block = SplitCounterBlock.from_bytes(raw)
            ok = not self._effectively_poisoned(address) and (
                not self.functional_crypto
                or self._auth.verify_counter_block(
                    index, block, stored_mac, parent_counter
                )
            )
            if not ok:
                block, stored_mac = self._repair_counter(
                    index, stored_mac, parent_counter, cost
                )
            entry = CounterEntry(block, mac=stored_mac)
        self._fill_metadata(address, entry, False, cost)
        return entry

    # ------------------------------------------------------------------
    # sidecar MAC resilience (ToC mode)
    # ------------------------------------------------------------------

    def _sidecar_index_of(self, counter_index: int) -> int:
        return counter_index // AddressMap.MACS_PER_BLOCK

    def _recover_sidecar(self, counter_index: int, cost: OpCost):
        """Primary sidecar copy poisoned: promote a live clone, or
        rebuild the block from cached counter MACs.  Returns the good
        block bytes, or ``None`` when the block is truly dead."""
        sidecar_index = self._sidecar_index_of(counter_index)
        for copy in range(1, self.amap.counter_mac_depth):
            address = self.amap.counter_mac_clone_addr(sidecar_index, copy)
            raw, _ = self._nvm_read(address, cost, "clone")
            if self._effectively_poisoned(address):
                continue
            self._purify_sidecar(sidecar_index, raw, cost)
            return raw
        rebuilt = self._rebuild_sidecar_from_cache(sidecar_index)
        if rebuilt is not None:
            self._purify_sidecar(sidecar_index, rebuilt, cost)
        return rebuilt

    def _rebuild_sidecar_from_cache(self, sidecar_index: int):
        """Rebuild a sidecar block from cached counter entries.

        A cached entry's ``mac`` always equals the slot value persisted
        in NVM (set at fetch, refreshed at persist), so if every
        *touched* counter the block serves is resident the whole block
        regenerates without any surviving copy.
        """
        macs_per_block = self.amap.block_size // MAC_BYTES
        rebuilt = bytearray(self.amap.block_size)
        for slot in range(macs_per_block):
            counter_index = sidecar_index * macs_per_block + slot
            if counter_index >= self.amap.level_sizes[0]:
                break
            address = self.amap.node_addr(1, counter_index)
            if self._mcache.contains(address):
                mac = self._mcache.peek(address).mac
            elif address in self._victims:
                mac = self._victims[address].payload.mac
            elif not self.nvm.is_touched(address):
                continue  # never persisted: the zero MAC slot stands
            else:
                return None
            rebuilt[slot * MAC_BYTES:(slot + 1) * MAC_BYTES] = mac
        return bytes(rebuilt)

    def _purify_sidecar(self, sidecar_index: int, good_bytes: bytes, cost: OpCost) -> None:
        """Rewrite every copy of a sidecar MAC block with trusted bytes."""
        self.stats.sidecar_repairs += 1
        if self.tracer.enabled:
            self.tracer.emit("sidecar_repair", sidecar=sidecar_index)
        addresses = self.amap.counter_mac_copies(sidecar_index)
        self._enqueue_atomic(
            [(address, good_bytes) for address in addresses],
            cost,
            ["clone"] * len(addresses),
        )
        for address in addresses:
            self.nvm.clear_poison(address)

    def _sidecar_dead(self, counter_index: int):
        """Every copy of a sidecar MAC block is dead: the eight counter
        blocks it serves are unverifiable (the layout's documented
        sidecar limitation, bounded by quarantine instead of fatal)."""
        self.stats.integrity_failures += 1
        address = self.amap.counter_mac_addr(counter_index)
        sidecar_index = self._sidecar_index_of(counter_index)
        reason = "all sidecar MAC copies failed"
        if self.quarantine is not None and not self._suppress_quarantine:
            self._quarantine_sidecar(sidecar_index, reason)
            raise QuarantinedError(address, 0, sidecar_index, reason)
        raise IntegrityError(address, 0, sidecar_index, reason)

    def _get_mac_block(self, address: int, cost: OpCost) -> MacBlockEntry:
        """The data-MAC block at ``address`` (see :meth:`_mac_addr`)."""
        payload = self._mcache.get(address)
        if payload is not None:
            return payload
        eviction = self._victims.pop(address, None)
        if eviction is not None:
            return self._reclaim_victim(eviction, cost)
        raw, touched = self._nvm_read(address, cost, "mac")
        entry = MacBlockEntry() if not touched else MacBlockEntry.from_bytes(raw)
        self._fill_metadata(address, entry, False, cost)
        return entry

    # ------------------------------------------------------------------
    # metadata writeback (lazy update + cloning + shadow)
    # ------------------------------------------------------------------

    def _fill_metadata(self, address: int, payload, dirty: bool, cost: OpCost) -> None:
        if self.tracer.enabled:
            # Every miss-path fetch funnels through here, so one emit
            # site covers counters, tree nodes, and data-MAC blocks.
            self.tracer.emit(
                "metadata_miss", address=address, region=self.amap.region_of(address)
            )
        eviction = self._mcache.fill(address, payload, dirty)
        if eviction is not None:
            # The slot changes hands *now*: kill the departing block's
            # shadow entry immediately, before any later occupant (or a
            # parent bump during a deferred persist) writes a fresh
            # entry there that a late tombstone would clobber.  Only
            # counter and tree blocks have shadow entries.
            if self._tracks_shadow and not isinstance(
                eviction.payload, MacBlockEntry
            ):
                self._write_shadow(
                    eviction.set_index * self._mcache.ways + eviction.way,
                    TOMBSTONE, cost,
                )
            if eviction.dirty or self._victims or self._draining:
                self._victims[eviction.address] = eviction
            else:
                # Clean, nothing queued ahead of it, no drain running:
                # there is nothing to persist, only the eviction to count.
                self._process_eviction(eviction, cost)
        if self._victims:
            self._drain_victims(cost)

    def _drain_victims(self, cost: OpCost) -> None:
        """Persist queued victims, one completed persist at a time.

        Re-entrant calls (fills performed *during* a persist) only
        queue; the outermost drain processes everything, so a block's
        NVM copy is always fully written before any later work can
        fetch it again.
        """
        if self._draining:
            return
        self._draining = True
        try:
            while self._victims:
                address = next(iter(self._victims))
                eviction = self._victims.pop(address)
                self._process_eviction(eviction, cost)
        finally:
            self._draining = False

    def _reclaim_victim(self, eviction, cost: OpCost):
        """Eviction cancellation: a queued victim is being re-fetched.

        The payload returns to the cache (its queued state is the
        authoritative one — NVM is stale).  Its old shadow slot was
        already tombstoned when the eviction happened; if the block was
        dirty, a fresh entry is written at the new slot so its
        unpersisted updates stay recoverable.
        """
        self._fill_metadata(eviction.address, eviction.payload, eviction.dirty, cost)
        address, payload = eviction.address, eviction.payload
        if eviction.dirty and self._tracks_shadow:
            if isinstance(payload, CounterEntry):
                self._shadow_note_counter(
                    self._slot_of(address), address, payload, cost
                )
            elif isinstance(payload, NodeEntry):
                self._shadow_note_node(
                    self._slot_of(address), address, payload.node, cost
                )
        return payload

    def _node_of(self, address: int, payload):
        """``(level, index)`` of a cached block, read off its payload
        type: level 1 for a counter block, the node's level for a tree
        node, and level 0 (index ``None``) for a data-MAC block."""
        if isinstance(payload, CounterEntry):
            level = 1
        elif isinstance(payload, NodeEntry):
            level = payload.level
        else:
            return 0, None
        return level, (address - self._level_offsets[level]) // self._block_size

    def _process_eviction(self, eviction, cost: OpCost) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                "metadata_eviction", address=eviction.address, dirty=eviction.dirty
            )
        level, index = self._node_of(eviction.address, eviction.payload)
        self._evictions_by_level[level] += 1
        if level == 0 or not eviction.dirty:
            return  # clean, or a write-through (never dirty) data-MAC block
        self.stats.dirty_evictions_by_level[level] += 1
        if level == 1:
            self._persist_counter_entry(index, eviction.payload, cost)
        else:
            self._persist_node(level, index, eviction.payload.node, cost)

    def _persist_counter_entry(self, index: int, entry: CounterEntry, cost: OpCost) -> None:
        """Persist a counter block: bump parent, reseal, write block +
        clones atomically, update the sidecar MAC.

        In BMT mode persisting is just the writes — the parent's digest
        was already refreshed by cached-eager propagation.
        """
        if self.integrity_mode == "bmt":
            self._write_copies(1, index, entry.block.to_bytes(), cost)
            entry.reset_updates()
            return
        parent_counter = self._bump_parent(1, index, cost)
        if self.functional_crypto:
            entry.mac = self._auth.counter_block_mac(
                index, entry.block, parent_counter
            )
        self._write_copies(1, index, entry.block.to_bytes(), cost)
        sidecar_index, slot = divmod(index, AddressMap.MACS_PER_BLOCK)
        offset = sidecar_index * self._block_size
        sidecar_address = self.amap.counter_mac_offset + offset
        sidecar, _ = self._nvm_read(sidecar_address, cost, "counter_mac")
        if self.nvm.has_poison and self.nvm.is_poisoned(sidecar_address):
            # Don't fold a garbled base into the read-modify-write; a
            # live clone (or cache rebuild) supplies clean other slots.
            recovered = self._recover_sidecar(index, cost)
            if recovered is not None:
                sidecar = recovered
        sidecar = (
            sidecar[: slot * MAC_BYTES]
            + entry.mac
            + sidecar[(slot + 1) * MAC_BYTES:]
        )
        self._enqueue_atomic(
            [(base + offset, sidecar)
             for base in self.amap.counter_mac_copy_offsets],
            cost,
            self._sidecar_kinds,
        )
        entry.reset_updates()

    def _persist_node(self, level: int, index: int, node, cost: OpCost) -> None:
        if self.integrity_mode == "toc":
            parent_counter = self._bump_parent(level, index, cost)
            if self.functional_crypto:
                self._auth.seal_node(level, index, node, parent_counter)
        self._write_copies(level, index, node.to_bytes(), cost)

    def _reencrypt_page(
        self, counter_index: int, entry: CounterEntry, overflow, cost: OpCost
    ) -> None:
        """Minor-counter overflow: re-encrypt the whole page under the
        new major counter, then persist the counter block immediately
        (keeps the Osiris staleness bound intact across majors)."""
        self.stats.page_reencryptions += 1
        touched_mac_blocks = set()
        for slot in range(SPLIT_COUNTER_ARITY):
            block_index = counter_index * SPLIT_COUNTER_ARITY + slot
            if block_index >= self.num_data_blocks:
                break
            address = block_index * self._block_size
            raw, touched = self._nvm_read(address, cost, "data")
            if not touched:
                continue
            if self.functional_crypto:
                old_counter = (overflow.old_major << 7) | overflow.old_minors[slot]
                new_counter = entry.block.effective_counter(slot)
                mac_block = self._get_mac_block(self._mac_addr(block_index), cost)
                mac_slot = block_index % AddressMap.MACS_PER_BLOCK
                if self._effectively_poisoned(address) or (
                    self._mac.data_mac(raw, address, old_counter)
                    != mac_block.macs[mac_slot]
                ):
                    # The old ciphertext cannot be authenticated.
                    # Re-encrypting it would mint a fresh MAC over
                    # garbage and launder the corruption into "valid"
                    # data; leave the block poisoned behind the major
                    # bump so the next read fails loudly instead.
                    self.stats.reencrypt_skipped_blocks += 1
                    self.nvm.poison_block(address)
                    continue
                plaintext = self._cipher.decrypt(raw, address, old_counter)
                ciphertext = self._cipher.encrypt(plaintext, address, new_counter)
                mac_block.macs[mac_slot] = (
                    self._mac.data_mac(ciphertext, address, new_counter)
                )
                touched_mac_blocks.add(self._mac_addr(block_index))
            else:
                ciphertext = raw
            self._enqueue_write(address, ciphertext, cost, "data")
        for mac_address in sorted(touched_mac_blocks):
            mac_block = self._get_mac_block(mac_address, cost)
            self._enqueue_write(mac_address, mac_block.to_bytes(), cost, "mac")
        self.stats.osiris_persists += 1
        self._persist_counter_entry(counter_index, entry, cost)

    # ------------------------------------------------------------------
    # shadow tracking
    # ------------------------------------------------------------------

    def _slot_of(self, address: int) -> int:
        """Metadata-cache slot id of a resident block."""
        return self._mcache.slot_id(*self._mcache.location_of(address))

    def _shadow_note_counter(self, slot_id: int, address: int,
                             entry: CounterEntry, cost: OpCost) -> None:
        """Shadow entry for the counter block at ``address``, resident
        in metadata-cache slot ``slot_id``."""
        if not self._tracks_shadow:
            return  # NVM is never stale, or recovery regenerates
        record = ShadowRecord(
            address, KIND_COUNTER, ZERO_LSBS,
            (self._shadow.record_mac(address, entry.block.to_bytes())
             if self.functional_crypto else ZERO_MAC),
        )
        self._write_shadow(slot_id, record, cost)

    def _shadow_note_node(self, slot_id: int, address: int, node: TocNode,
                          cost: OpCost) -> None:
        """Shadow entry for the tree node at ``address``, resident in
        metadata-cache slot ``slot_id``."""
        if not self._tracks_shadow:
            return
        mask = (1 << self.shadow_codec.lsb_bits) - 1
        record = ShadowRecord(
            address, KIND_NODE, tuple(c & mask for c in node.counters),
            (self._shadow.record_mac(address, node.counters_bytes())
             if self.functional_crypto else ZERO_MAC),
        )
        self._write_shadow(slot_id, record, cost)

    def _write_shadow(self, slot_id: int, record: ShadowRecord,
                      cost: OpCost) -> None:
        """Persist the shadow entry of metadata-cache slot ``slot_id``."""
        self._shadow.write_entry(slot_id, record, self._wpq)
        cost.posted_writes += 1
        self._writes_by_kind["shadow"] += 1

    # ------------------------------------------------------------------
    # proactive scrubbing probes
    # ------------------------------------------------------------------

    def scrub_node(self, level: int, index: int) -> str:
        """Probe one metadata node and proactively repair its copies.

        Returns ``"clean"`` (no poisoned copy), ``"repaired"`` (poison
        healed from a clone, the cache, or recomputation), or ``"dead"``
        (no verifiable copy survives).  The probe itself never
        quarantines, so a scrubber can apply bounded retries before
        giving up and calling :meth:`quarantine_node`.
        """
        addresses = list(self.amap.all_copies(level, index))
        if level == 1 and self.integrity_mode == "toc":
            addresses += self.amap.counter_mac_copies(self._sidecar_index_of(index))
        poisoned = [a for a in addresses if self._effectively_poisoned(a)]
        if not poisoned:
            return "clean"
        address = self.amap.node_addr(level, index)
        cost = OpCost()
        resident = self._mcache.contains(address) or address in self._victims
        if not resident:
            if not any(self.nvm.is_touched(a) for a in addresses):
                # Never-written blocks carry no state: erasing returns
                # them to the implicitly-valid factory-fresh zeros.
                for a in poisoned:
                    self.nvm.erase_block(a)
                return "repaired"
            self._suppress_quarantine = True
            try:
                if level == 1:
                    self._get_counter(index, cost)
                else:
                    self._get_node(level, index, cost)
            except IntegrityError:
                return "dead"
            finally:
                self._suppress_quarantine = False
        # The cached copy is now authoritative; rewrite every copy so no
        # latent poisoned clone survives the pass (a healthy-primary
        # fetch never even looks at its clones).
        if any(self.nvm.is_poisoned(a) for a in addresses):
            if level == 1:
                entry = self._get_counter(index, cost)
                self._persist_counter_entry(index, entry, cost)
            else:
                node = self._get_node(level, index, cost)
                self._persist_node(level, index, node, cost)
            self._mcache.mark_clean(address)
            self._wpq.drain_all()
        return "repaired"

    def scrub_sidecar(self, sidecar_index: int) -> str:
        """Probe/repair one sidecar MAC block and its copies."""
        copies = self.amap.counter_mac_copies(sidecar_index)
        poisoned = [a for a in copies if self._effectively_poisoned(a)]
        if not poisoned:
            return "clean"
        if self.integrity_mode == "bmt" or not any(
            self.nvm.is_touched(a) for a in copies
        ):
            # BMT mode never consults the sidecar region, and untouched
            # blocks carry no state: a fresh erase heals either way.
            for a in poisoned:
                self.nvm.erase_block(a)
            return "repaired"
        cost = OpCost()
        live = [a for a in copies if not self._effectively_poisoned(a)]
        if live:
            raw, _ = self._nvm_read(live[0], cost, "counter_mac")
            self._purify_sidecar(sidecar_index, raw, cost)
            self._wpq.drain_all()
            return "repaired"
        rebuilt = self._rebuild_sidecar_from_cache(sidecar_index)
        if rebuilt is None:
            return "dead"
        self._purify_sidecar(sidecar_index, rebuilt, cost)
        self._wpq.drain_all()
        return "repaired"

    # ------------------------------------------------------------------
    # whole-system verification (tests / post-recovery audits)
    # ------------------------------------------------------------------

    def verify_system(self) -> list:
        """Integrity-audit the whole memory; returns failure messages.

        Walks every touched counter block through the normal verified
        fetch path, then re-reads every touched data block.  An empty
        list means all data is currently verifiable.
        """
        failures = []
        for index in range(self.amap.level_sizes[0]):
            address = self.amap.node_addr(1, index)
            if not self.nvm.is_touched(address):
                continue
            try:
                self._get_counter(index, OpCost())
            except SecureMemoryError as exc:
                failures.append(str(exc))
        for block_index in range(self.num_data_blocks):
            if not self.nvm.is_touched(self.amap.data_addr(block_index)):
                continue
            try:
                self.read(block_index)
            except SecureMemoryError as exc:
                failures.append(str(exc))
        return failures

    # ------------------------------------------------------------------
    # introspection helpers (tests / recovery)
    # ------------------------------------------------------------------

    @property
    def metadata_cache(self) -> MetadataCache:
        return self._mcache

    @property
    def shadow(self) -> ShadowManager:
        return self._shadow

    @property
    def wpq(self) -> WritePendingQueue:
        return self._wpq

    @property
    def victims(self) -> dict:
        """The (transient) eviction victim queue, keyed by address."""
        return self._victims

    @property
    def auth(self) -> TocAuthenticator:
        return self._auth

    @property
    def mac_engine(self) -> MacEngine:
        return self._mac

    @property
    def cipher(self) -> CounterModeEngine:
        return self._cipher
