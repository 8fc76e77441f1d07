"""``checkpoint/v2``: a resumable sweep is a manifest over one store.

A sweep persists cell results in exactly one place: its
:class:`~repro.runtime.store.ResultStore`, whose ``store/v1`` entries
are keyed by :func:`cell_key` (sha256 of the cell description plus the
runner identity) and sha256-verified on every read.  ``checkpoint=DIR``
adds one small manifest, ``DIR/checkpoint.json``, saying which sweep
those entries belong to and which store holds them::

    {"schema": "checkpoint/v2",
     "fingerprint": "<sha256 of the sorted cell keys>",
     "total_cells": N,
     "store": null}      # or "<realpath of the shared store>"

The store is the shared ``store=`` (or the queue's) when one is armed;
otherwise it is rooted at ``DIR`` itself and ``store`` is ``null``.
Every completed cell is published into it as it finishes
(:meth:`CheckpointJournal.record`); failed cells are never published,
so a resume retries them.

``--resume DIR`` re-reads the manifest with the queue's manifest
reader, refuses a different fingerprint or a different store
(:class:`~repro.runtime.CheckpointMismatchError`), and serves every
cell the store holds.  A corrupt entry fails verification, is moved
to the store's ``quarantine/`` and recomputed, so a resume never
serves an unverified result.  Because a cell's result is a pure
function of its key, the merged results are bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from repro.runtime.atomic import atomic_write_json
from repro.runtime.queue import check_fingerprint, read_manifest
from repro.runtime.supervision import CheckpointMismatchError

SCHEMA_VERSION = "checkpoint/v2"
MANIFEST_NAME = "checkpoint.json"


def _canonical(obj):
    """JSON-able canonical form of a cell description.

    Dataclasses become ``{"__type__": name, fields...}`` so two
    different description types with the same field values cannot
    collide; tuples/lists/dicts/sets recurse; numpy scalars reduce to
    Python numbers via ``item()``; callables contribute their qualified
    name (cells sometimes carry factory references).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_canonical(v) for v in obj), key=str)
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if callable(obj):
        return {"__callable__": f"{getattr(obj, '__module__', '?')}."
                                f"{getattr(obj, '__qualname__', repr(obj))}"}
    if hasattr(obj, "item") and not isinstance(obj, (str, int, float, bool)):
        try:
            return obj.item()   # numpy scalar
        except (TypeError, ValueError):
            pass
    return obj


def cell_key(cell, runner=None) -> str:
    """Content-addressed key: sha256 of the canonical cell description.

    The runner's identity is mixed in so e.g. a perf cell and a
    campaign cell that happen to serialize identically can never
    satisfy each other's checkpoint.
    """
    payload = {"cell": _canonical(cell)}
    if runner is not None:
        payload["runner"] = (f"{getattr(runner, '__module__', '?')}."
                             f"{getattr(runner, '__qualname__', repr(runner))}")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_fingerprint(keys) -> str:
    """Identity of a whole sweep: sha256 over the sorted cell keys."""
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class CheckpointJournal:
    """The checkpoint manifest of one sweep, and the publish into its
    store.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing); the manifest lives at
        ``<directory>/checkpoint.json``.
    store:
        The sweep's :class:`~repro.runtime.store.ResultStore`; every
        completed cell is published into it.
    fingerprint:
        The sweep fingerprint the checkpoint must belong to.
    total_cells:
        Advisory cell count recorded in the manifest.
    resume:
        ``True`` verifies an existing manifest: another fingerprint or
        another store raises :class:`CheckpointMismatchError`.
        ``False``, or no manifest yet, writes a fresh one.

    A store outside ``directory`` (a shared ``store=`` or a queue's)
    has its path recorded, so a resume without it, or with another,
    fails loudly instead of recomputing everything.
    """

    def __init__(self, directory, *, store, fingerprint: str,
                 total_cells: int = 0, resume: bool = False):
        self.path = os.path.join(directory, MANIFEST_NAME)
        self.store = store
        store_path = os.path.realpath(store.directory)
        manifest = {
            "schema": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "total_cells": total_cells,
            "store": (None if store_path == os.path.realpath(directory)
                      else store_path),
        }
        existing = (read_manifest(self.path, SCHEMA_VERSION,
                                  CheckpointMismatchError)
                    if resume else None)
        if existing is None:
            os.makedirs(directory, exist_ok=True)
            atomic_write_json(self.path, manifest)
            return
        check_fingerprint(existing, fingerprint, self.path,
                          CheckpointMismatchError, "merge")
        if existing.get("store") != manifest["store"]:
            raise CheckpointMismatchError(
                f"{self.path}: the checkpoint was written with "
                f"{_store_name(existing.get('store'))}, this resume "
                f"uses {_store_name(manifest['store'])}; resume with "
                "the same --store/--queue"
            )

    def record(self, key: str, outcome) -> None:
        """Publish one completed cell into the checkpoint's store.

        A shared store on its own degrades on a failed write; a
        checkpoint raises instead, because a sweep that cannot be
        resumed must say so.
        """
        self.store.put(key, outcome, strict=True)


def _store_name(path) -> str:
    return f"store {path}" if path else "the checkpoint's own store"
