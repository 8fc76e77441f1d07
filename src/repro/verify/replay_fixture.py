"""Committed replay fixtures shared by the engine and Monte-Carlo provers.

A replay fixture is a schema-stamped JSON file of pinned observations.
``repro engine-diff`` and ``repro mc-diff`` either replay their corpus
against one or re-pin it with ``--record``; both emit the report shape
built by :func:`replay_report`.
"""

from __future__ import annotations

import json
import os

from repro.runtime.atomic import atomic_write_json


def load_fixture(path: str, schema: str) -> dict:
    """Load a replay fixture, refusing one stamped with another schema."""
    with open(path) as fh:
        fixture = json.load(fh)
    if fixture.get("schema") != schema:
        raise ValueError(
            f"{path}: schema {fixture.get('schema')!r} != {schema!r}"
        )
    return fixture


def write_fixture(path: str, fixture: dict) -> None:
    """Atomically (re-)pin ``fixture`` at ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    atomic_write_json(path, fixture)


def replay_report(schema: str, fixture: str, rows: list,
                  recorded: bool) -> dict:
    """The prover report: one row per case plus the headline verdict."""
    return {
        "schema": schema,
        "fixture": fixture,
        "recorded": recorded,
        "cases": rows,
        "total": len(rows),
        "identical": all(row["identical"] for row in rows),
    }
