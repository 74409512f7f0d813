"""Persistent experiment database for fleet campaigns (sqlite, WAL).

A :class:`FleetDB` is a :class:`~repro.harness.trace_store.ResultStore`
— the unit memo's store: one digest-verified ``results`` row per unit
key, a ``quarantine`` table — plus the campaign ledger: ``experiments``
(one campaign snapshot each) and ``units`` (membership: which keys an
experiment recorded, with spec, worker, attempts, duplicates and
timing).  :meth:`FleetDB.record_unit` stores a result and its
membership in one transaction, keyed by ``(experiment_id, unit_key)``,
so re-dispatched units **upsert idempotently**: the first record wins,
identical re-records bump ``duplicates``, and a differing digest raises
:class:`~repro.harness.trace_store.UnitDigestMismatch` (a determinism
violation to surface, never paper over).  Reads join ``results`` and
verify each payload through the store's one check, so a corrupt result
moves to quarantine and its unit reads as missing.  A member whose key
(the unit-memo key, which names the simulator sources) the campaign no
longer expands to is set aside: only its membership, because the
result under that key is still right for the sources the key names
(:meth:`FleetDB.quarantine_stale`).

``REPRO_FLEET_DB=<path>`` names the default file, else
``~/.cache/dolos-repro/fleet.sqlite`` (respects ``XDG_CACHE_HOME``); it
is also the unit memo's default file (docs/fleet.md).
"""

from __future__ import annotations

import json
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.trace_store import (
    SCHEMA_VERSION,
    ResultStore,
    ResultStoreError,
    default_db_path,
)
from repro.workloads import GENERATOR_VERSION

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


#: Current members with a stored result (the rows every roll-up counts).
_RECORDED = (
    "units JOIN results USING (unit_key) WHERE experiment_id=? AND NOT stale"
)


class FleetDB(ResultStore):
    """The persistent fleet results database (one sqlite file)."""

    SCHEMA = ResultStore.SCHEMA + (
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
            worker_id      TEXT NOT NULL DEFAULT '',
            attempts       INTEGER NOT NULL DEFAULT 1,
            duplicates     INTEGER NOT NULL DEFAULT 0,
            elapsed_s      REAL NOT NULL DEFAULT 0.0,
            recorded_at    REAL NOT NULL,
            stale          INTEGER NOT NULL DEFAULT 0,
            PRIMARY KEY (experiment_id, unit_key)
        )
        """,
    )

    def __init__(self, path=None, readonly: bool = False) -> None:
        super().__init__(path or default_db_path(), readonly)
        if not readonly:
            self.connect()  # create the schema, or refuse the file

    # -- experiments ----------------------------------------------------
    def open_experiment(
        self,
        experiment_id: str,
        campaign: Dict[str, object],
        git_hash: Optional[str] = None,
        created_at: Optional[float] = None,
    ) -> None:
        """Register ``experiment_id`` (idempotent across re-dispatch)."""
        self.connect().execute(
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

    def finish_experiment(
        self, experiment_id: str, finished_at: Optional[float] = None
    ) -> None:
        self.connect().execute(
            "UPDATE experiments SET status='done', finished_at=? "
            "WHERE experiment_id=?",
            (time.time() if finished_at is None else finished_at,
             experiment_id),
        )

    def experiment(self, experiment_id: str) -> Dict[str, object]:
        row = self._has_ledger() and self.connect().execute(
            "SELECT * FROM experiments WHERE experiment_id=?",
            (experiment_id,),
        ).fetchone()
        if not row:
            raise ResultStoreError(f"unknown experiment {experiment_id!r}")
        return {**row, "campaign": json.loads(row["campaign"])}

    def experiments(self) -> List[str]:
        if not self._has_ledger():
            return []
        rows = self.connect().execute(
            "SELECT experiment_id FROM experiments ORDER BY created_at, "
            "experiment_id"
        ).fetchall()
        return [row["experiment_id"] for row in rows]

    def _has_ledger(self) -> bool:
        # Only a read-only FleetDB on a file the memo wrote lacks it.
        return self.connect().execute(
            "SELECT 1 FROM sqlite_master WHERE name='experiments'"
        ).fetchone() is not None

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
        """Idempotently record one completed unit (result + membership).

        Returns ``"inserted"`` for the experiment's first record of the
        unit and ``"duplicate"`` for a re-record (a re-dispatched unit,
        or one re-run after its result was quarantined — *counted*,
        never double-recorded).  Raises :class:`UnitDigestMismatch`
        when the stored result's digest differs.
        """
        # One BEGIN IMMEDIATE transaction: racing writers of one key
        # serialise, and a result never lands without its membership.
        with self.transaction() as conn:
            self.store(unit_key, payload)
            if conn.execute(
                "UPDATE units SET duplicates = duplicates + 1, stale = 0 "
                "WHERE experiment_id=? AND unit_key=?",
                (experiment_id, unit_key),
            ).rowcount:
                return "duplicate"
            conn.execute(
                "INSERT INTO units (experiment_id, unit_key, spec, mode, "
                "workload, design, seed, transactions, worker_id, "
                "attempts, elapsed_s, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    experiment_id,
                    unit_key,
                    json.dumps(spec, sort_keys=True),
                    str(spec.get("mode", "run")),
                    str(spec.get("workload", "")),
                    str(spec.get("design", "")),
                    int(spec.get("seed", 0)),
                    int(spec.get("transactions", 0)),
                    worker_id,
                    attempts,
                    elapsed_s,
                    time.time() if recorded_at is None else recorded_at,
                ),
            )
            return "inserted"

    def unit_rows(
        self, experiment_id: str, unit_key: Optional[str] = None
    ) -> List[UnitRow]:
        """Every verified unit (or only ``unit_key``), in key order.

        A member whose result fails :meth:`verify` is dropped — the row
        moves to quarantine — so the dispatcher re-runs the unit
        instead of trusting rotten bytes.
        """
        where, args = _RECORDED, (experiment_id,)
        if unit_key is not None:
            where, args = where + " AND unit_key=?", (experiment_id, unit_key)
        rows = []
        for row in self.connect().execute(
            f"SELECT * FROM {where} ORDER BY unit_key", args
        ).fetchall():
            payload = self.verify(
                row["unit_key"], row["payload"], row["payload_digest"]
            )
            if payload is not None:
                fields = {**row, "payload": payload}
                fields["spec"] = json.loads(row["spec"])
                del fields["stale"]  # 0: the query reads current members
                rows.append(UnitRow(**fields))
        return rows

    def quarantine_stale(self, experiment_id: str, keys) -> int:
        """Set aside the members whose key is not in ``keys`` (the
        campaign's current expansion): roll-ups leave them out and
        ``status`` counts them as quarantined.  Their results stay, as
        a key names the sources that computed it; a member back in
        ``keys`` counts again.  Returns how many are set aside."""
        with self.transaction() as conn:
            flags = [
                (row["unit_key"] not in keys, experiment_id, row["unit_key"])
                for row in conn.execute(
                    "SELECT unit_key FROM units WHERE experiment_id=?",
                    (experiment_id,),
                )
            ]
            conn.executemany(
                "UPDATE units SET stale=? "
                "WHERE experiment_id=? AND unit_key=?",
                flags,
            )
        return sum(stale for stale, _, _ in flags)

    def integrity_check(self) -> str:
        """sqlite's own ``PRAGMA integrity_check``: "ok" when healthy."""
        row = self.connect().execute("PRAGMA integrity_check").fetchone()
        return str(row[0])

    def status(self, experiment_id: str) -> Dict[str, object]:
        """Roll-up counts for ``fleet status`` and the wire report.

        ``units`` counts current members with a stored result;
        ``quarantined`` the members set aside as stale and those whose
        result was quarantined and not recorded again.
        """
        experiment = self.experiment(experiment_id)
        conn = self.connect()
        rows = conn.execute(
            f"SELECT mode, worker_id, duplicates, attempts FROM {_RECORDED}",
            (experiment_id,),
        ).fetchall()
        members = conn.execute(
            "SELECT COUNT(*) FROM units WHERE experiment_id=?",
            (experiment_id,),
        ).fetchone()[0]
        return {
            "experiment_id": experiment_id,
            "status": experiment["status"],
            "git_hash": experiment["git_hash"],
            "generator_version": experiment["generator_version"],
            "units": len(rows),
            "duplicates": sum(row["duplicates"] for row in rows),
            "attempts": sum(row["attempts"] for row in rows),
            "by_mode": dict(sorted(Counter(row["mode"] for row in rows).items())),
            "workers": sorted({row["worker_id"] for row in rows}),
            "quarantined": members - len(rows),
        }
