"""``store/v1``: the content-addressed result store.

The store is the one place completed cell results persist, alike for
one process resuming after a kill (``checkpoint/v2`` is a manifest
over a store) and for N hosts sharing one directory (NFS, a bind
mount, plain local disk).  Every completed cell is published as one
small JSON entry keyed by its content-addressed digest
(:func:`repro.runtime.cell_key` — sha256 of the full cell description
plus the runner identity), so any worker anywhere can serve a cell
once anyone has computed it.
Because a cell's result is a pure function of its key, duplicate
execution is harmless — at-least-once execution by the work queue
becomes *exactly-once-effective* here: the second writer publishes a
bit-identical entry over the first.

Entry layout (``<dir>/objects/<key[:2]>/<key>.json``)::

    {"schema": "store/v1", "key": "<sha256 cell key>",
     "label": "...", "attempts": n, "wall_seconds": w,
     "payload_b64": "<base64 pickle of the result object>",
     "payload_sha256": "<sha256 of the pickled bytes>"}

Integrity and durability:

* **writes** go through the atomic tmp+fsync+rename writer with a
  pid-suffixed temp name, so concurrent writers on different hosts
  never collide and readers never observe a torn entry;
* **reads** re-hash the decoded payload against ``payload_sha256``
  (and cross-check the embedded ``key`` against the filename), so a
  bit-flipped or truncated entry is *detected*, moved aside into
  ``<dir>/quarantine/``, counted, and reported as a miss — the cell is
  recomputed; a corrupt result is never served.

Degraded modes (the fleet must limp, not die): every filesystem error
is swallowed into the ``runtime.store.errors`` counter and the
``runtime.store.degraded`` gauge — a read error is a miss (compute
locally), a write error is a dropped publish (the result still lands
in the caller's own outcome list).  An unreachable store directory at
construction disables the store outright with a single warning.  The
one exception is a checkpoint's publish (``put(..., strict=True)``),
which raises: a checkpoint that silently dropped cells would not be
resumable.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import warnings

from repro.runtime.atomic import atomic_write_json, fsync_directory

STORE_SCHEMA = "store/v1"
OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"


def register_store_instruments(registry) -> dict:
    """Create (or fetch) the ``runtime.store.*`` instruments.

    Shared by :class:`ResultStore` and the telemetry manifest so the
    committed ``telemetry_manifest.json`` golden covers every store
    instrument by construction.
    """
    return {
        "hits": registry.ensure(
            "counter", "runtime.store.hits",
            help="cells served from the shared result store"),
        "misses": registry.ensure(
            "counter", "runtime.store.misses",
            help="store lookups that found no (valid) entry"),
        "writes": registry.ensure(
            "counter", "runtime.store.writes",
            help="result entries published to the store"),
        "corrupt": registry.ensure(
            "counter", "runtime.store.corrupt",
            help="entries that failed hash verification and were "
                 "quarantined (never served)"),
        "errors": registry.ensure(
            "counter", "runtime.store.errors",
            help="store I/O errors absorbed by degraded mode"),
        "degraded": registry.ensure(
            "gauge", "runtime.store.degraded",
            help="1 while the store is operating degraded (unreachable "
                 "or read-only); local compute continues"),
    }


class StoreCorruptionError(ValueError):
    """Internal marker: an entry failed schema/hash verification."""


class ResultStore:
    """Content-addressed result store over a shared directory.

    Parameters
    ----------
    directory:
        Shared store root.  ``objects/`` and ``quarantine/`` are
        created beneath it; creation failure puts the store in fully
        degraded mode (every ``get`` is a miss, every ``put`` a no-op)
        rather than raising — the sweep falls back to local compute.
    registry:
        Optional :class:`~repro.telemetry.MetricRegistry` for the
        ``runtime.store.*`` instruments; a private one is created
        otherwise.
    """

    def __init__(self, directory, *, registry=None):
        from repro.telemetry import MetricRegistry

        self.directory = os.fspath(directory)
        self.registry = MetricRegistry() if registry is None else registry
        m = register_store_instruments(self.registry)
        self._m_hits = m["hits"]
        self._m_misses = m["misses"]
        self._m_writes = m["writes"]
        self._m_corrupt = m["corrupt"]
        self._m_errors = m["errors"]
        self._m_degraded = m["degraded"]
        self.disabled = False
        try:
            os.makedirs(os.path.join(self.directory, OBJECTS_DIR),
                        exist_ok=True)
        except OSError as exc:
            self._degrade(f"store directory unreachable: {exc}")
            self.disabled = True

    # -- degraded-mode plumbing ----------------------------------------

    def _degrade(self, reason: str) -> None:
        self._m_errors.n += 1
        if not self._m_degraded.v:
            self._m_degraded.v = 1
            warnings.warn(
                f"result store degraded ({reason}); continuing with "
                "local compute", RuntimeWarning, stacklevel=3,
            )

    # -- paths ---------------------------------------------------------

    def entry_path(self, key: str) -> str:
        return os.path.join(self.directory, OBJECTS_DIR, key[:2],
                            f"{key}.json")

    def _quarantine_path(self, key: str) -> str:
        return os.path.join(self.directory, QUARANTINE_DIR,
                            f"{key}.{os.getpid()}.json")

    # -- read side -----------------------------------------------------

    def get(self, key: str):
        """The verified entry record for ``key``, or ``None`` (miss).

        A present-but-corrupt entry (torn JSON, wrong schema, key
        mismatch, payload hash mismatch) is quarantined aside and
        reported as a miss so the caller recomputes — never served.
        """
        if self.disabled:
            self._m_misses.n += 1
            return None
        path = self.entry_path(key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            self._m_misses.n += 1
            return None
        except OSError as exc:
            self._degrade(f"read failed: {exc}")
            self._m_misses.n += 1
            return None
        try:
            record = self._verify(key, raw)
        except StoreCorruptionError as exc:
            self._quarantine(key, path, str(exc))
            self._m_misses.n += 1
            return None
        self._m_hits.n += 1
        return record

    @staticmethod
    def _verify(key: str, raw: bytes) -> dict:
        try:
            record = json.loads(raw)
        except ValueError as exc:
            raise StoreCorruptionError(f"torn/unparseable JSON: {exc}")
        if not isinstance(record, dict):
            raise StoreCorruptionError("entry is not a JSON object")
        if record.get("schema") != STORE_SCHEMA:
            raise StoreCorruptionError(
                f"schema {record.get('schema')!r} != {STORE_SCHEMA}")
        if record.get("key") != key:
            raise StoreCorruptionError(
                f"embedded key {record.get('key')!r} does not match the "
                "entry filename")
        try:
            payload = base64.b64decode(record["payload_b64"],
                                       validate=True)
        except (KeyError, ValueError, TypeError) as exc:
            raise StoreCorruptionError(f"bad payload encoding: {exc}")
        digest = hashlib.sha256(payload).hexdigest()
        if digest != record.get("payload_sha256"):
            raise StoreCorruptionError(
                "payload sha256 mismatch (bit rot or tamper)")
        try:
            record["result"] = pickle.loads(payload)
        except Exception as exc:   # hash ok but payload unusable
            raise StoreCorruptionError(f"payload unpickle failed: {exc}")
        return record

    def _quarantine(self, key: str, path: str, reason: str) -> None:
        """Move a corrupt entry aside so it cannot be served again."""
        self._m_corrupt.n += 1
        warnings.warn(
            f"store entry {key[:12]}… failed verification ({reason}); "
            "quarantined and scheduled for recompute",
            RuntimeWarning, stacklevel=3,
        )
        try:
            qdir = os.path.join(self.directory, QUARANTINE_DIR)
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, self._quarantine_path(key))
            fsync_directory(qdir)
        except OSError as exc:
            # Read-only store: we cannot move it aside, but we still
            # refuse to serve it (the caller recomputes regardless).
            self._degrade(f"quarantine failed: {exc}")

    # -- write side ----------------------------------------------------

    def put(self, key: str, outcome, *, strict: bool = False) -> bool:
        """Publish a completed :class:`CellOutcome`'s result under
        ``key``; returns ``False`` (and degrades) on store I/O errors
        instead of raising — the caller keeps its local outcome.
        ``strict`` raises the error instead (a checkpoint's publish)."""
        if self.disabled:
            if strict:
                raise OSError(f"result store {self.directory} is "
                              "unreachable")
            return False
        payload = pickle.dumps(outcome.result)
        record = {
            "schema": STORE_SCHEMA,
            "key": key,
            "label": outcome.label,
            "attempts": outcome.attempts,
            "wall_seconds": outcome.wall_seconds,
            "payload_b64": base64.b64encode(payload).decode("ascii"),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        path = self.entry_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write_json(path, record)
        except OSError as exc:
            if strict:
                raise
            self._degrade(f"write failed: {exc}")
            return False
        self._m_writes.n += 1
        return True

    def __contains__(self, key: str) -> bool:
        if self.disabled:
            return False
        try:
            return os.path.exists(self.entry_path(key))
        except OSError:
            return False

    def count(self) -> int:
        """Number of entries on disk (fleet-status bookkeeping)."""
        objects = os.path.join(self.directory, OBJECTS_DIR)
        total = 0
        try:
            for shard in os.listdir(objects):
                shard_dir = os.path.join(objects, shard)
                if os.path.isdir(shard_dir):
                    total += sum(1 for name in os.listdir(shard_dir)
                                 if name.endswith(".json"))
        except OSError:
            return 0
        return total
