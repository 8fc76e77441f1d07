"""``lease/v1``: a multi-host work queue over a shared directory.

One campaign, N worker processes on any number of hosts, one shared
directory (NFS, a bind mount, local disk).  The protocol has three
kinds of files, all written with the atomic tmp+fsync+rename recipe so
no reader ever observes a torn record:

``campaign.json`` (``queue/v1``)
    Published once by the coordinating invocation: the sweep
    fingerprint, the pickled cell list, and the runner's import path.
    A ``repro fleet worker`` needs nothing else — it loads the
    manifest, resolves the runner, and starts claiming.  Joining a
    queue whose fingerprint differs from the caller's cell grid raises
    :class:`QueueMismatchError` (two experiments must never merge).

``leases/<key>.json`` (``lease/v1``)
    Mutual exclusion per cell.  A fresh claim writes its whole lease
    to a temp file and hard-links it into place — ``link`` refuses an
    existing name, so exactly one claimer wins and no peer sees a
    half-written lease — and the lease carries its owner id and an
    expiry (``ttl`` seconds out).  Owners
    renew on a heartbeat (every ``ttl/3``); a lease past its expiry
    means its owner is dead or wedged, and any worker may *reclaim* it
    by atomically replacing the file.  The race between two reclaimers
    is benign: both may run the cell (at-least-once), but the
    content-addressed result store dedupes, so execution is
    exactly-once-effective.  A torn/unparseable lease (a worker died
    mid-write before the rename, or the file was corrupted) is treated
    as stale and reclaimed the same way.

``poison/<key>.json``
    A cell that exhausted its per-class retry budget (the PR-5 failure
    taxonomy) is quarantined: its classified failure is published so
    every other worker skips it and reports the *same* terminal
    failure instead of burning its own retry budget re-discovering it.

Every protocol event is a first-class instrument
(``runtime.lease.*``): claims, reclaims, expiries observed, renewals,
lost leases, torn leases, poisoned cells.
"""

from __future__ import annotations

import base64
import importlib
import json
import os
import pickle
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field

from repro.runtime.atomic import atomic_write_json, fsync_directory
from repro.runtime.supervision import CheckpointMismatchError

QUEUE_SCHEMA = "queue/v1"
LEASE_SCHEMA = "lease/v1"
MANIFEST_NAME = "campaign.json"
LEASES_DIR = "leases"
POISON_DIR = "poison"

#: Default lease time-to-live.  A worker renews every ``ttl / 3``, so
#: three consecutive missed heartbeats mark it dead.
DEFAULT_LEASE_TTL = 60.0


class QueueMismatchError(CheckpointMismatchError):
    """The queue directory holds a *different* campaign.

    Joining it would interleave cells from two experiments; hard error,
    exactly like resuming against a foreign checkpoint."""


def read_manifest(path, schema: str, error):
    """The JSON manifest at ``path``, or ``None`` when there is none.

    Shared by the queue's ``campaign.json`` and the checkpoint's
    ``checkpoint.json``: an unparseable manifest or one of another
    schema raises ``error`` rather than being silently replaced.
    """
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise error(f"{path}: unreadable manifest ({exc})")
    found = manifest.get("schema") if isinstance(manifest, dict) else None
    if found != schema:
        raise error(f"{path}: schema {found!r} != {schema}")
    return manifest


def check_fingerprint(manifest: dict, fingerprint: str, path, error,
                      verb: str) -> None:
    """Raise ``error``, refusing to ``verb``, unless ``manifest``
    belongs to ``fingerprint``."""
    if manifest.get("fingerprint") != fingerprint:
        raise error(
            f"{path}: holds campaign "
            f"{manifest.get('fingerprint', '?')[:12]}…, caller "
            f"built {fingerprint[:12]}… (cell grid, seed, or runner "
            f"changed); refusing to {verb}"
        )


def register_lease_instruments(registry) -> dict:
    """Create (or fetch) the ``runtime.lease.*`` instruments."""
    return {
        "claims": registry.ensure(
            "counter", "runtime.lease.claims",
            help="fresh leases acquired (O_EXCL create won)"),
        "reclaims": registry.ensure(
            "counter", "runtime.lease.reclaims",
            help="stale or torn leases taken over from a dead worker"),
        "expiries": registry.ensure(
            "counter", "runtime.lease.expiries",
            help="expired leases observed (dead-host detection)"),
        "renewals": registry.ensure(
            "counter", "runtime.lease.renewals",
            help="heartbeat renewals of held leases"),
        "lost": registry.ensure(
            "counter", "runtime.lease.lost",
            help="held leases discovered reclaimed by another worker "
                 "(the store dedupes the double execution)"),
        "torn": registry.ensure(
            "counter", "runtime.lease.torn",
            help="unparseable lease files detected and reclaimed"),
        "poisoned": registry.ensure(
            "counter", "runtime.lease.poisoned",
            help="cells quarantined after exhausting their per-class "
                 "retry budget"),
    }


def default_owner_id() -> str:
    """host:pid:nonce — unique per worker process incarnation."""
    return (f"{socket.gethostname()}:{os.getpid()}:"
            f"{uuid.uuid4().hex[:8]}")


@dataclass
class Lease:
    """A held claim on one cell."""

    key: str
    path: str
    owner: str
    acquired_unix: float
    expires_unix: float
    #: Set by renewal when the lease was reclaimed out from under us
    #: (we were presumed dead).  The cell still completes locally; the
    #: store makes the duplicate execution harmless.
    lost: bool = False

    def record(self, now: float, ttl: float, renewals: int = 0) -> dict:
        return {
            "schema": LEASE_SCHEMA,
            "key": self.key,
            "owner": self.owner,
            "acquired_unix": round(self.acquired_unix, 3),
            "expires_unix": round(now + ttl, 3),
            "renewals": renewals,
        }


@dataclass
class _HeartbeatThread:
    """Daemon thread renewing one lease every ``interval`` seconds."""

    queue: "WorkQueue"
    lease: Lease
    interval: float
    _stop: threading.Event = field(default_factory=threading.Event)
    _thread: threading.Thread = None

    def __enter__(self):
        self._thread = threading.Thread(
            target=self._beat, name=f"lease-{self.lease.key[:8]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _beat(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.queue.renew(self.lease):
                return   # lost: stop renewing, let the run finish

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)
        return False


class WorkQueue:
    """Lease-based cell queue over a shared directory.

    Parameters
    ----------
    directory:
        Shared queue root; ``leases/`` and ``poison/`` are created
        beneath it.  Unlike the result store, an unreachable queue
        directory raises — a worker that cannot coordinate must not
        pretend it is part of a fleet.
    ttl:
        Lease time-to-live in seconds.  Expired leases are presumed
        abandoned (dead host) and reclaimable by anyone.
    registry:
        Optional :class:`~repro.telemetry.MetricRegistry` for the
        ``runtime.lease.*`` instruments.
    now:
        Clock override for tests (defaults to :func:`time.time` —
        wall-clock, because expiries must be comparable across hosts).
    """

    def __init__(self, directory, *, ttl: float = DEFAULT_LEASE_TTL,
                 registry=None, now=time.time, owner: str = None):
        from repro.telemetry import MetricRegistry

        if ttl <= 0:
            raise ValueError("lease ttl must be > 0 seconds")
        self.directory = os.fspath(directory)
        self.ttl = float(ttl)
        self.now = now
        self.owner = owner or default_owner_id()
        self.registry = MetricRegistry() if registry is None else registry
        m = register_lease_instruments(self.registry)
        self._m_claims = m["claims"]
        self._m_reclaims = m["reclaims"]
        self._m_expiries = m["expiries"]
        self._m_renewals = m["renewals"]
        self._m_lost = m["lost"]
        self._m_torn = m["torn"]
        self._m_poisoned = m["poisoned"]
        os.makedirs(os.path.join(self.directory, LEASES_DIR), exist_ok=True)
        os.makedirs(os.path.join(self.directory, POISON_DIR), exist_ok=True)

    # -- campaign manifest ---------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def ensure_campaign(self, cells, runner, fingerprint: str) -> dict:
        """Publish the campaign manifest, or verify the existing one.

        Publishing races are benign: every publisher of the same
        fingerprint writes byte-identical content, and the atomic
        rename makes the last write whole.  A *different* fingerprint
        raises :class:`QueueMismatchError`.
        """
        existing = self.read_manifest()
        if existing is not None:
            check_fingerprint(existing, fingerprint, self.manifest_path,
                              QueueMismatchError, "join")
            return existing
        manifest = {
            "schema": QUEUE_SCHEMA,
            "fingerprint": fingerprint,
            "total_cells": len(cells),
            "runner": (f"{getattr(runner, '__module__', '?')}:"
                       f"{getattr(runner, '__qualname__', repr(runner))}"),
            "lease_ttl_s": self.ttl,
            "cells_b64": base64.b64encode(
                pickle.dumps(list(cells))).decode("ascii"),
        }
        atomic_write_json(self.manifest_path, manifest)
        return manifest

    def read_manifest(self):
        """The raw campaign manifest, or ``None`` if unpublished."""
        return read_manifest(self.manifest_path, QUEUE_SCHEMA,
                             QueueMismatchError)

    def load_campaign(self) -> dict:
        """Manifest with ``cells`` unpickled and ``runner`` resolved —
        everything a ``repro fleet worker`` needs to join."""
        manifest = self.read_manifest()
        if manifest is None:
            raise QueueMismatchError(
                f"{self.manifest_path}: no campaign published here yet; "
                "start one with a sweep command using --queue"
            )
        module_name, _, qualname = manifest["runner"].partition(":")
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        manifest = dict(manifest)
        manifest["cells"] = pickle.loads(
            base64.b64decode(manifest.pop("cells_b64")))
        manifest["runner_callable"] = obj
        return manifest

    # -- leases --------------------------------------------------------

    def lease_path(self, key: str) -> str:
        return os.path.join(self.directory, LEASES_DIR, f"{key}.json")

    def _write_lease(self, lease: Lease, renewals: int = 0) -> None:
        """Atomically (re)write a lease we own, fsync'd durable."""
        atomic_write_json(lease.path, lease.record(
            self.now(), self.ttl, renewals=renewals))

    def try_claim(self, key: str):
        """Claim ``key``: a :class:`Lease` on success, ``None`` when it
        is validly held by a live owner.

        A fresh cell's lease is published whole: the record is written
        and fsync'd to a private temp file, then hard-linked into place
        (``link`` fails if the lease exists, so exactly one claimer
        wins, and no peer ever reads a half-written lease).  Expired or
        torn leases are reclaimed by atomic replacement.
        """
        path = self.lease_path(key)
        now = self.now()
        lease = Lease(key=key, path=path, owner=self.owner,
                      acquired_unix=now, expires_unix=now + self.ttl)
        line = json.dumps(lease.record(now, self.ttl),
                          sort_keys=True) + "\n"
        tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        try:
            try:
                os.write(fd, line.encode())
                os.fsync(fd)
            finally:
                os.close(fd)
            os.link(tmp, path)
        except FileExistsError:
            return self._try_reclaim(key, path, lease)
        finally:
            os.unlink(tmp)
        fsync_directory(os.path.dirname(path))
        self._m_claims.n += 1
        return lease

    def _try_reclaim(self, key: str, path: str, lease: Lease):
        """Take over a lease that exists but whose owner is dead."""
        try:
            with open(path) as fh:
                current = json.load(fh)
        except FileNotFoundError:
            # Released between our O_EXCL failure and this read; the
            # next scan pass will claim it fresh.
            return None
        except ValueError:
            # Torn mid-write by a dying worker: presumed dead.
            self._m_torn.n += 1
            current = None
        if current is not None:
            expires = current.get("expires_unix")
            if (current.get("schema") == LEASE_SCHEMA
                    and isinstance(expires, (int, float))
                    and expires > self.now()):
                return None   # validly held by a live owner
            self._m_expiries.n += 1
        # Atomic replacement; if two workers race the reclaim, the last
        # rename wins and the loser discovers it on its next renewal.
        # Both may execute the cell — the store dedupes.
        self._write_lease(lease)
        self._m_reclaims.n += 1
        return lease

    def renew(self, lease: Lease) -> bool:
        """Heartbeat: extend our lease's expiry.  Returns ``False`` (and
        marks the lease lost) when another worker has reclaimed it."""
        try:
            with open(lease.path) as fh:
                current = json.load(fh)
        except (FileNotFoundError, ValueError):
            current = None
        if current is None or current.get("owner") != lease.owner:
            lease.lost = True
            self._m_lost.n += 1
            return False
        renewals = int(current.get("renewals", 0)) + 1
        self._write_lease(lease, renewals=renewals)
        lease.expires_unix = self.now() + self.ttl
        self._m_renewals.n += 1
        return True

    def release(self, lease: Lease) -> None:
        """Drop a lease we still own (a lost lease is left alone)."""
        if lease.lost:
            return
        try:
            with open(lease.path) as fh:
                current = json.load(fh)
            if current.get("owner") != lease.owner:
                return
            os.unlink(lease.path)
            fsync_directory(os.path.dirname(lease.path))
        except (FileNotFoundError, ValueError, OSError):
            pass

    def heartbeat(self, lease: Lease) -> _HeartbeatThread:
        """Context manager renewing ``lease`` every ``ttl/3`` seconds."""
        return _HeartbeatThread(queue=self, lease=lease,
                                interval=self.ttl / 3.0)

    # -- poison --------------------------------------------------------

    def poison_path(self, key: str) -> str:
        return os.path.join(self.directory, POISON_DIR, f"{key}.json")

    def poison(self, key: str, outcome) -> None:
        """Quarantine a cell whose retry budget is exhausted, publishing
        its classified failure so the whole fleet reports it
        identically instead of re-discovering it."""
        atomic_write_json(self.poison_path(key), {
            "schema": LEASE_SCHEMA,
            "kind": "poison",
            "key": key,
            "label": outcome.label,
            "error": outcome.error,
            "failure_class": outcome.failure_class,
            "attempts": outcome.attempts,
            "attempt_history": outcome.attempt_history,
            "owner": self.owner,
        })
        self._m_poisoned.n += 1

    def poisoned(self, key: str):
        """The poison record for ``key``, or ``None``."""
        try:
            with open(self.poison_path(key)) as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):
            return None

    # -- status --------------------------------------------------------

    def status(self) -> dict:
        """Point-in-time queue state for ``repro fleet status``."""
        manifest = self.read_manifest()
        now = self.now()
        live, stale, torn = [], [], 0
        leases_dir = os.path.join(self.directory, LEASES_DIR)
        for name in sorted(os.listdir(leases_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(leases_dir, name)) as fh:
                    record = json.load(fh)
            except (ValueError, OSError):
                torn += 1
                continue
            expires = record.get("expires_unix", 0)
            entry = {
                "key": record.get("key", name[:-5]),
                "owner": record.get("owner", "?"),
                "expires_in_s": round(expires - now, 1),
            }
            (live if expires > now else stale).append(entry)
        poison_dir = os.path.join(self.directory, POISON_DIR)
        poisoned = sum(1 for name in os.listdir(poison_dir)
                       if name.endswith(".json"))
        return {
            "schema": QUEUE_SCHEMA,
            "directory": self.directory,
            "fingerprint": (manifest or {}).get("fingerprint", ""),
            "total_cells": (manifest or {}).get("total_cells", 0),
            "runner": (manifest or {}).get("runner", ""),
            "lease_ttl_s": (manifest or {}).get("lease_ttl_s", self.ttl),
            "leases_live": live,
            "leases_stale": stale,
            "leases_torn": torn,
            "poisoned": poisoned,
        }
