"""Schema-versioned SQLite run ledger.

Two tables:

* ``units`` — one row per completed unit of work, keyed by the
  canonical :func:`repro.store.keys.unit_key`.  ``executions`` counts
  how many times the unit actually ran (a resumed campaign must keep
  this at 1 for every unit that finished before the kill) and ``hits``
  counts ledger replays, which is what the resume tests assert on.
* ``runs`` — one row per completed CLI invocation, linking the exact
  command, parameters and seed to the content digests of the final
  report text and JSON data.  ``repro.store diff`` loads two rows'
  JSON artifacts for regression triage.

Writers open a connection per operation (safe under ``fork`` — no
connection ever crosses a process boundary) and serialize through both
SQLite's database lock and the store-wide advisory file lock.  Each
unit commits in its own transaction, so a ``kill -9`` loses at most the
in-flight unit; everything already committed is durable and a resumed
run skips it.
"""

from __future__ import annotations

import os
import sqlite3
import time
from typing import Dict, List, Optional

from ..errors import StoreError, StoreSchemaError
from ..fileio import FileLock
from .keys import STORE_SCHEMA_VERSION

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS units (
    unit_key      TEXT PRIMARY KEY,
    experiment_id TEXT NOT NULL,
    scale         REAL NOT NULL,
    seed          INTEGER NOT NULL,
    params_json   TEXT NOT NULL,
    artifact      TEXT NOT NULL,
    executions    INTEGER NOT NULL DEFAULT 1,
    hits          INTEGER NOT NULL DEFAULT 0,
    created_at    REAL NOT NULL,
    updated_at    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id          INTEGER PRIMARY KEY AUTOINCREMENT,
    name            TEXT NOT NULL,
    command         TEXT NOT NULL,
    params_json     TEXT NOT NULL,
    report_artifact TEXT,
    json_artifact   TEXT,
    units_total     INTEGER NOT NULL DEFAULT 0,
    units_replayed  INTEGER NOT NULL DEFAULT 0,
    created_at      REAL NOT NULL
);
"""


class Ledger:
    """The SQLite ledger under ``<store>/ledger.sqlite``."""

    def __init__(self, path: str, lock: Optional[FileLock] = None):
        self.path = path
        self._lock = lock or FileLock(
            os.path.join(os.path.dirname(path) or ".", ".lock")
        )
        self._ensure_schema()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        return conn

    def _ensure_schema(self) -> None:
        with self._lock:
            conn = self._connect()
            try:
                with conn:
                    conn.executescript(_SCHEMA)
                    row = conn.execute(
                        "SELECT value FROM store_meta WHERE key='schema_version'"
                    ).fetchone()
                    if row is None:
                        conn.execute(
                            "INSERT INTO store_meta(key, value) VALUES(?, ?)",
                            ("schema_version", str(STORE_SCHEMA_VERSION)),
                        )
                    elif row["value"] != str(STORE_SCHEMA_VERSION):
                        raise StoreSchemaError(
                            row["value"], str(STORE_SCHEMA_VERSION)
                        )
            finally:
                conn.close()

    # -- units -------------------------------------------------------------------

    def record_unit(
        self,
        unit_key: str,
        experiment_id: str,
        scale: float,
        seed: int,
        params_json: str,
        artifact: str,
    ) -> None:
        """Commit one completed unit (re-execution bumps ``executions``)."""
        now = time.time()
        with self._lock:
            conn = self._connect()
            try:
                with conn:
                    conn.execute(
                        """
                        INSERT INTO units(unit_key, experiment_id, scale, seed,
                                          params_json, artifact, executions,
                                          hits, created_at, updated_at)
                        VALUES(?, ?, ?, ?, ?, ?, 1, 0, ?, ?)
                        ON CONFLICT(unit_key) DO UPDATE SET
                            artifact = excluded.artifact,
                            executions = units.executions + 1,
                            updated_at = excluded.updated_at
                        """,
                        (
                            unit_key,
                            experiment_id,
                            scale,
                            seed,
                            params_json,
                            artifact,
                            now,
                            now,
                        ),
                    )
            finally:
                conn.close()

    def lookup_unit(self, unit_key: str) -> Optional[Dict[str, object]]:
        conn = self._connect()
        try:
            row = conn.execute(
                "SELECT * FROM units WHERE unit_key = ?", (unit_key,)
            ).fetchone()
            return dict(row) if row is not None else None
        finally:
            conn.close()

    def record_hit(self, unit_key: str) -> None:
        """Count one replay of a completed unit (resume-path bookkeeping)."""
        with self._lock:
            conn = self._connect()
            try:
                with conn:
                    conn.execute(
                        "UPDATE units SET hits = hits + 1, updated_at = ? "
                        "WHERE unit_key = ?",
                        (time.time(), unit_key),
                    )
            finally:
                conn.close()

    def forget_unit(self, unit_key: str) -> bool:
        """Drop one unit row (``gc`` of corrupted artifacts uses this)."""
        with self._lock:
            conn = self._connect()
            try:
                with conn:
                    cursor = conn.execute(
                        "DELETE FROM units WHERE unit_key = ?", (unit_key,)
                    )
                    return cursor.rowcount > 0
            finally:
                conn.close()

    def units(
        self, experiment_id: Optional[str] = None
    ) -> List[Dict[str, object]]:
        conn = self._connect()
        try:
            if experiment_id is None:
                rows = conn.execute(
                    "SELECT * FROM units ORDER BY created_at, unit_key"
                ).fetchall()
            else:
                rows = conn.execute(
                    "SELECT * FROM units WHERE experiment_id = ? "
                    "ORDER BY created_at, unit_key",
                    (experiment_id,),
                ).fetchall()
            return [dict(row) for row in rows]
        finally:
            conn.close()

    def totals(self) -> Dict[str, int]:
        """Aggregate counters (the runner prints session deltas of these)."""
        conn = self._connect()
        try:
            row = conn.execute(
                "SELECT COUNT(*) AS units, "
                "COALESCE(SUM(executions), 0) AS executions, "
                "COALESCE(SUM(hits), 0) AS hits FROM units"
            ).fetchone()
            runs = conn.execute("SELECT COUNT(*) AS runs FROM runs").fetchone()
            return {
                "units": row["units"],
                "executions": row["executions"],
                "hits": row["hits"],
                "runs": runs["runs"],
            }
        finally:
            conn.close()

    # -- runs --------------------------------------------------------------------

    def record_run(
        self,
        name: str,
        command: str,
        params_json: str,
        report_artifact: Optional[str],
        json_artifact: Optional[str],
        units_total: int,
        units_replayed: int,
    ) -> int:
        with self._lock:
            conn = self._connect()
            try:
                with conn:
                    cursor = conn.execute(
                        """
                        INSERT INTO runs(name, command, params_json,
                                         report_artifact, json_artifact,
                                         units_total, units_replayed,
                                         created_at)
                        VALUES(?, ?, ?, ?, ?, ?, ?, ?)
                        """,
                        (
                            name,
                            command,
                            params_json,
                            report_artifact,
                            json_artifact,
                            units_total,
                            units_replayed,
                            time.time(),
                        ),
                    )
                    return int(cursor.lastrowid)
            finally:
                conn.close()

    def runs(self) -> List[Dict[str, object]]:
        conn = self._connect()
        try:
            rows = conn.execute("SELECT * FROM runs ORDER BY run_id").fetchall()
            return [dict(row) for row in rows]
        finally:
            conn.close()

    def get_run(self, run_id: int) -> Dict[str, object]:
        conn = self._connect()
        try:
            row = conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        finally:
            conn.close()
        if row is None:
            raise StoreError(f"no run #{run_id} in ledger {self.path}")
        return dict(row)

    def referenced_artifacts(self) -> List[str]:
        """Every digest a ledger row still points at (the gc root set)."""
        conn = self._connect()
        try:
            digests = {
                row["artifact"]
                for row in conn.execute("SELECT artifact FROM units")
            }
            for row in conn.execute(
                "SELECT report_artifact, json_artifact FROM runs"
            ):
                digests.add(row["report_artifact"])
                digests.add(row["json_artifact"])
            digests.discard(None)
            return sorted(digests)
        finally:
            conn.close()
