"""Persistent experiment database for fleet campaigns (sqlite, WAL).

Every unit a dispatcher completes is recorded here exactly once —
unit key, full spec snapshot, result payload with its digest, the
worker that ran it, timing, and retry/fault metadata — keyed by
``(experiment_id, unit_key)`` so re-dispatched units
**upsert idempotently** instead of double-counting: the first record
wins, identical re-records bump a ``duplicates`` counter, and a
re-record whose payload digest *differs* raises
:class:`UnitDigestMismatch` (a determinism violation the fleet must
surface, never paper over).

Integrity mirrors :class:`repro.harness.trace_store.TraceStore`: each
row stores a digest of its payload's canonical JSON, re-verified on
every load; a corrupted row is moved to the ``quarantine`` table and
treated as missing so the caller re-runs the unit.  Stale rows go there
too: the unit key is the unit-memo key, which names the simulator
sources, so a row whose key a campaign no longer expands to was
computed by other code (:meth:`FleetDB.quarantine_stale`).

Concurrency: the database runs in WAL mode with a busy timeout, and
every thread gets its own connection (sqlite3 connections are not
thread-safe), so multiple dispatcher threads — or multiple dispatcher
*processes* on a shared filesystem — can record units concurrently.

The database is an experiment ledger keyed by unit-memo key, not a
result cache: the unit memo (:mod:`repro.harness.memo`) is the one
cache that replays results, and only for the simulator sources that
computed them.

Environment: ``REPRO_FLEET_DB=<path>`` names the default database
file (documented beside ``REPRO_TRACE_CACHE``/``REPRO_UNIT_MEMO``
in docs/fleet.md); unset falls back to
``~/.cache/dolos-repro/fleet.sqlite`` (respects ``XDG_CACHE_HOME``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.harness.trace_store import result_digest
from repro.workloads import GENERATOR_VERSION

ENV_DB = "REPRO_FLEET_DB"

SCHEMA_VERSION = 1

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS experiments (
        experiment_id     TEXT PRIMARY KEY,
        campaign          TEXT NOT NULL,
        git_hash          TEXT NOT NULL DEFAULT '',
        generator_version INTEGER NOT NULL,
        schema_version    INTEGER NOT NULL,
        status            TEXT NOT NULL DEFAULT 'running',
        created_at        REAL NOT NULL,
        finished_at       REAL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS units (
        experiment_id  TEXT NOT NULL,
        unit_key       TEXT NOT NULL,
        spec           TEXT NOT NULL,
        mode           TEXT NOT NULL,
        workload       TEXT NOT NULL,
        design         TEXT NOT NULL,
        seed           INTEGER NOT NULL,
        transactions   INTEGER NOT NULL,
        payload        TEXT NOT NULL,
        payload_digest TEXT NOT NULL,
        worker_id      TEXT NOT NULL DEFAULT '',
        attempts       INTEGER NOT NULL DEFAULT 1,
        duplicates     INTEGER NOT NULL DEFAULT 0,
        elapsed_s      REAL NOT NULL DEFAULT 0.0,
        recorded_at    REAL NOT NULL,
        PRIMARY KEY (experiment_id, unit_key)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS quarantine (
        experiment_id  TEXT NOT NULL,
        unit_key       TEXT NOT NULL,
        payload        TEXT NOT NULL,
        payload_digest TEXT NOT NULL,
        reason         TEXT NOT NULL,
        quarantined_at REAL NOT NULL
    )
    """,
)


class FleetDBError(RuntimeError):
    """Database-level failure (missing experiment, bad path, ...)."""


class UnitDigestMismatch(FleetDBError):
    """A re-dispatched unit produced a *different* payload.

    Fleet execution is deterministic by construction — the same unit
    key must always yield the same payload digest.  A mismatch means
    workers disagree about the simulation itself, which the dispatcher
    must report rather than silently picking a winner.
    """


def default_db_path() -> Path:
    """Resolve the fleet database path from ``REPRO_FLEET_DB``."""
    env = os.environ.get(ENV_DB, "").strip()
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "dolos-repro" / "fleet.sqlite"


def current_git_hash() -> str:
    """Best-effort git HEAD of the running checkout ('' when unknown).

    A tree whose tracked files differ from HEAD gets a ``-dirty``
    suffix: its results were not computed by the commit alone.
    """
    here = Path(__file__).resolve().parent

    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", "--no-optional-locks", *args],
                cwd=here,
                capture_output=True,
                text=True,
                timeout=5,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if not head:
        return ""
    if git("status", "--porcelain", "--untracked-files=no"):
        head += "-dirty"
    return head


@dataclass
class UnitRow:
    """One recorded unit, payload already parsed and digest-verified."""

    experiment_id: str
    unit_key: str
    spec: Dict[str, object]
    mode: str
    workload: str
    design: str
    seed: int
    transactions: int
    payload: Dict[str, object]
    payload_digest: str
    worker_id: str
    attempts: int
    duplicates: int
    elapsed_s: float
    recorded_at: float


class FleetDB:
    """The persistent fleet results database (one sqlite file)."""

    def __init__(
        self, path: Union[str, Path, None] = None, readonly: bool = False
    ) -> None:
        self.path = Path(path) if path is not None else default_db_path()
        self.readonly = readonly
        self._local = threading.local()
        #: Rows moved aside: corrupt (digest verification) or stale.
        self.quarantined = 0
        if not readonly:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn()  # create the schema eagerly

    # -- connections ----------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        if self.readonly:
            if not self.path.exists():
                raise FleetDBError(f"no fleet database at {self.path}")
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, timeout=30.0
            )
        else:
            conn = sqlite3.connect(str(self.path), timeout=30.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            for statement in _SCHEMA:
                conn.execute(statement)
            conn.commit()
        conn.execute("PRAGMA busy_timeout=10000")
        conn.row_factory = sqlite3.Row
        self._local.conn = conn
        return conn

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # -- experiments ----------------------------------------------------
    def open_experiment(
        self,
        experiment_id: str,
        campaign: Dict[str, object],
        git_hash: Optional[str] = None,
        created_at: Optional[float] = None,
    ) -> None:
        """Register ``experiment_id`` (idempotent across re-dispatch)."""
        conn = self._conn()
        conn.execute(
            "INSERT OR IGNORE INTO experiments (experiment_id, campaign, "
            "git_hash, generator_version, schema_version, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                experiment_id,
                json.dumps(campaign, sort_keys=True),
                current_git_hash() if git_hash is None else git_hash,
                GENERATOR_VERSION,
                SCHEMA_VERSION,
                time.time() if created_at is None else created_at,
            ),
        )
        conn.commit()

    def finish_experiment(
        self, experiment_id: str, finished_at: Optional[float] = None
    ) -> None:
        conn = self._conn()
        conn.execute(
            "UPDATE experiments SET status='done', finished_at=? "
            "WHERE experiment_id=?",
            (time.time() if finished_at is None else finished_at,
             experiment_id),
        )
        conn.commit()

    def experiment(self, experiment_id: str) -> Dict[str, object]:
        row = self._conn().execute(
            "SELECT * FROM experiments WHERE experiment_id=?",
            (experiment_id,),
        ).fetchone()
        if row is None:
            raise FleetDBError(f"unknown experiment {experiment_id!r}")
        record = dict(row)
        record["campaign"] = json.loads(record["campaign"])
        return record

    def experiments(self) -> List[str]:
        rows = self._conn().execute(
            "SELECT experiment_id FROM experiments ORDER BY created_at, "
            "experiment_id"
        ).fetchall()
        return [row["experiment_id"] for row in rows]

    # -- units ----------------------------------------------------------
    def record_unit(
        self,
        experiment_id: str,
        unit_key: str,
        spec: Dict[str, object],
        payload: Dict[str, object],
        worker_id: str = "",
        attempts: int = 1,
        elapsed_s: float = 0.0,
        recorded_at: Optional[float] = None,
    ) -> str:
        """Idempotently record one completed unit.

        Returns ``"inserted"`` for a first record and ``"duplicate"``
        when the row already existed with an identical payload digest
        (a re-dispatched unit — the duplicate is *counted*, never
        double-recorded).  Raises
        :class:`UnitDigestMismatch` when the digests differ.
        """
        digest = result_digest(payload)
        conn = self._conn()
        # BEGIN IMMEDIATE serialises concurrent writers on the same
        # key: the check-then-insert pair must be atomic or two racing
        # threads could both observe "missing" and one INSERT would
        # fail with an opaque constraint error.
        conn.execute("BEGIN IMMEDIATE")
        try:
            existing = conn.execute(
                "SELECT payload_digest FROM units "
                "WHERE experiment_id=? AND unit_key=?",
                (experiment_id, unit_key),
            ).fetchone()
            if existing is not None:
                if existing["payload_digest"] != digest:
                    raise UnitDigestMismatch(
                        f"unit {unit_key} re-recorded with digest {digest} "
                        f"but the database holds "
                        f"{existing['payload_digest']} — non-deterministic "
                        f"execution"
                    )
                conn.execute(
                    "UPDATE units SET duplicates = duplicates + 1 "
                    "WHERE experiment_id=? AND unit_key=?",
                    (experiment_id, unit_key),
                )
                return "duplicate"
            conn.execute(
                "INSERT INTO units (experiment_id, unit_key, spec, mode, "
                "workload, design, seed, transactions, payload, "
                "payload_digest, worker_id, attempts, elapsed_s, "
                "recorded_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                "?, ?)",
                (
                    experiment_id,
                    unit_key,
                    json.dumps(spec, sort_keys=True),
                    str(spec.get("mode", "run")),
                    str(spec.get("workload", "")),
                    str(spec.get("design", "")),
                    int(spec.get("seed", 0)),
                    int(spec.get("transactions", 0)),
                    json.dumps(payload, sort_keys=True, separators=(",", ":")),
                    digest,
                    worker_id,
                    attempts,
                    elapsed_s,
                    time.time() if recorded_at is None else recorded_at,
                ),
            )
            return "inserted"
        finally:
            conn.commit()

    def _quarantine_row(self, row: sqlite3.Row, reason: str) -> None:
        conn = self._conn()
        conn.execute(
            "INSERT INTO quarantine (experiment_id, unit_key, payload, "
            "payload_digest, reason, quarantined_at) VALUES (?, ?, ?, ?, "
            "?, ?)",
            (
                row["experiment_id"],
                row["unit_key"],
                row["payload"],
                row["payload_digest"],
                reason,
                time.time(),
            ),
        )
        conn.execute(
            "DELETE FROM units WHERE experiment_id=? AND unit_key=?",
            (row["experiment_id"], row["unit_key"]),
        )
        conn.commit()
        self.quarantined += 1

    def _verify(self, row: sqlite3.Row) -> Optional[UnitRow]:
        """Parse + digest-check one row; quarantine and drop on failure."""
        try:
            payload = json.loads(row["payload"])
            stored = row["payload_digest"]
            if result_digest(payload) != stored:
                raise ValueError("payload digest mismatch")
            spec = json.loads(row["spec"])
        except Exception as exc:
            if not self.readonly:
                self._quarantine_row(row, f"{type(exc).__name__}: {exc}")
            else:
                self.quarantined += 1
            return None
        return UnitRow(
            experiment_id=row["experiment_id"],
            unit_key=row["unit_key"],
            spec=spec,
            mode=row["mode"],
            workload=row["workload"],
            design=row["design"],
            seed=row["seed"],
            transactions=row["transactions"],
            payload=payload,
            payload_digest=stored,
            worker_id=row["worker_id"],
            attempts=row["attempts"],
            duplicates=row["duplicates"],
            elapsed_s=row["elapsed_s"],
            recorded_at=row["recorded_at"],
        )

    def load_unit(self, experiment_id: str, unit_key: str) -> Optional[UnitRow]:
        """One digest-verified unit, or ``None`` (missing/quarantined).

        Mirrors :meth:`TraceStore.load`: a corrupted row is moved to
        the quarantine table and reported as missing so the dispatcher
        re-runs the unit instead of trusting rotten bytes.
        """
        row = self._conn().execute(
            "SELECT * FROM units WHERE experiment_id=? AND unit_key=?",
            (experiment_id, unit_key),
        ).fetchone()
        if row is None:
            return None
        return self._verify(row)

    def unit_rows(self, experiment_id: str) -> List[UnitRow]:
        """Every digest-verified unit, in stable (unit_key) order."""
        rows = self._conn().execute(
            "SELECT * FROM units WHERE experiment_id=? ORDER BY unit_key",
            (experiment_id,),
        ).fetchall()
        verified = [self._verify(row) for row in rows]
        return [row for row in verified if row is not None]

    def unit_keys(self, experiment_id: str) -> List[str]:
        rows = self._conn().execute(
            "SELECT unit_key FROM units WHERE experiment_id=? "
            "ORDER BY unit_key",
            (experiment_id,),
        ).fetchall()
        return [row["unit_key"] for row in rows]

    def quarantine_stale(self, experiment_id: str, keys) -> int:
        """Quarantine rows whose key is not in ``keys``; return how many.

        ``keys`` is the campaign's current expansion: a recorded key
        outside it was computed by other simulator sources.
        """
        rows = self._conn().execute(
            "SELECT * FROM units WHERE experiment_id=?", (experiment_id,)
        ).fetchall()
        stale = [row for row in rows if row["unit_key"] not in keys]
        for row in stale:
            self._quarantine_row(
                row, "stale: recorded by other simulator sources"
            )
        return len(stale)

    def integrity_check(self) -> str:
        """Run sqlite's own ``PRAGMA integrity_check``; "ok" = healthy.

        The chaos harness calls this after every faulted campaign —
        a torn WAL tail or a writer killed mid-transaction must leave
        a database sqlite itself still certifies, or the run counts as
        a silent storage failure.
        """
        row = self._conn().execute("PRAGMA integrity_check").fetchone()
        return str(row[0])

    def status(self, experiment_id: str) -> Dict[str, object]:
        """Roll-up counts for ``fleet status`` and the wire report."""
        experiment = self.experiment(experiment_id)
        conn = self._conn()
        totals = conn.execute(
            "SELECT COUNT(*) AS units, COALESCE(SUM(duplicates), 0) AS "
            "duplicates, COALESCE(SUM(attempts), 0) AS attempts "
            "FROM units WHERE experiment_id=?",
            (experiment_id,),
        ).fetchone()
        by_mode = {
            row["mode"]: row["n"]
            for row in conn.execute(
                "SELECT mode, COUNT(*) AS n FROM units WHERE "
                "experiment_id=? GROUP BY mode ORDER BY mode",
                (experiment_id,),
            )
        }
        workers = [
            row["worker_id"]
            for row in conn.execute(
                "SELECT DISTINCT worker_id FROM units WHERE "
                "experiment_id=? ORDER BY worker_id",
                (experiment_id,),
            )
        ]
        quarantined = conn.execute(
            "SELECT COUNT(*) AS n FROM quarantine WHERE experiment_id=?",
            (experiment_id,),
        ).fetchone()["n"]
        return {
            "experiment_id": experiment_id,
            "status": experiment["status"],
            "git_hash": experiment["git_hash"],
            "generator_version": experiment["generator_version"],
            "units": totals["units"],
            "duplicates": totals["duplicates"],
            "attempts": totals["attempts"],
            "by_mode": by_mode,
            "workers": workers,
            "quarantined": quarantined,
        }
