"""The fleet experiment database: round-trips, upserts, quarantine.

The db is the fleet's ground truth — first completions and
re-dispatched ones both funnel through :meth:`FleetDB.record_unit`, so
the idempotent-upsert contract (first record wins, identical
re-records count as duplicates, *divergent* re-records raise) is what
makes "every unit exactly once" checkable at all.  Results live in the
unit memo's store (one ``results`` row per key): a row whose payload no
longer matches its digest is quarantined and reported missing, never
silently trusted.  A member whose key the campaign no longer expands to
is set aside for that experiment only; its result stays.
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.fleet import db as db_mod
from repro.fleet.db import FleetDB, current_git_hash
from repro.fleet.report import build_report, render_html
from repro.harness.memo import UnitMemo
from repro.harness.trace_store import (
    ENV_DB,
    ResultStoreError,
    UnitDigestMismatch,
    default_db_path,
)
from repro.service.protocol import result_digest
from repro.workloads import GENERATOR_VERSION


def _spec(seed: int = 1, mode: str = "run") -> dict:
    return {
        "workload": "hashmap",
        "design": "dolos-partial",
        "transactions": 60,
        "seed": seed,
        "mode": mode,
    }


def _payload(seed: int = 1) -> dict:
    return {
        "workload": "hashmap",
        "cycles": 1000 + seed,
        "instructions": 400 + seed,
        "stats": {"wpq_flushes": seed},
    }


@pytest.fixture
def db(tmp_path):
    return FleetDB(tmp_path / "fleet.sqlite")


class TestSchemaRoundTrip:
    def test_experiment_round_trip(self, db):
        campaign = {"name": "exp", "workloads": ["hashmap"], "seeds": [1]}
        db.open_experiment("exp", campaign, git_hash="abc123")
        record = db.experiment("exp")
        assert record["campaign"] == campaign
        assert record["git_hash"] == "abc123"
        assert record["generator_version"] == GENERATOR_VERSION
        assert record["status"] == "running"
        db.finish_experiment("exp")
        assert db.experiment("exp")["status"] == "done"

    def test_unit_round_trip_preserves_everything(self, db):
        db.open_experiment("exp", {})
        status = db.record_unit(
            "exp", "k1", _spec(), _payload(), worker_id="w0",
            attempts=2, elapsed_s=1.5,
        )
        assert status == "inserted"
        [row] = db.unit_rows("exp", "k1")
        assert row.spec == _spec()
        assert row.payload == _payload()
        assert row.payload_digest == result_digest(_payload())
        assert (row.workload, row.design, row.seed) == (
            "hashmap", "dolos-partial", 1,
        )
        assert (row.mode, row.worker_id, row.attempts) == ("run", "w0", 2)
        assert row.elapsed_s == 1.5
        assert row.duplicates == 0

    def test_unknown_experiment_raises(self, db):
        with pytest.raises(ResultStoreError, match="unknown experiment"):
            db.experiment("nope")

    def test_missing_unit_is_none(self, db):
        db.open_experiment("exp", {})
        assert db.unit_rows("exp", "missing") == []

    def test_unit_rows_sorted_by_key(self, db):
        db.open_experiment("exp", {})
        for key in ("zz", "aa", "mm"):
            db.record_unit("exp", key, _spec(), _payload())
        assert [r.unit_key for r in db.unit_rows("exp")] == ["aa", "mm", "zz"]


class TestIdempotentUpsert:
    def test_identical_rerecord_is_counted_not_duplicated(self, db):
        db.open_experiment("exp", {})
        assert db.record_unit("exp", "k1", _spec(), _payload()) == "inserted"
        # A re-dispatched unit landing the same bytes again.
        assert db.record_unit("exp", "k1", _spec(), _payload()) == "duplicate"
        assert db.record_unit("exp", "k1", _spec(), _payload()) == "duplicate"
        rows = db.unit_rows("exp")
        assert len(rows) == 1
        assert rows[0].duplicates == 2

    def test_divergent_rerecord_raises(self, db):
        db.open_experiment("exp", {})
        db.record_unit("exp", "k1", _spec(), _payload(seed=1))
        with pytest.raises(UnitDigestMismatch, match="non-deterministic"):
            db.record_unit("exp", "k1", _spec(), _payload(seed=99))
        # The original record survives untouched.
        assert db.unit_rows("exp", "k1")[0].payload == _payload(seed=1)

    def test_open_experiment_is_idempotent(self, db):
        db.open_experiment("exp", {"name": "first"}, git_hash="aaa")
        db.open_experiment("exp", {"name": "second"}, git_hash="bbb")
        assert db.experiment("exp")["campaign"] == {"name": "first"}


class TestConcurrentWriters:
    def test_two_threads_recording_interleaved_keys(self, tmp_path):
        """WAL + BEGIN IMMEDIATE: racing writers never corrupt or lose.

        Both threads record the full key set, so every key sees one
        insert and one duplicate, in some order — never a constraint
        error, never a double insert.
        """
        path = tmp_path / "fleet.sqlite"
        FleetDB(path).open_experiment("exp", {})
        keys = [f"k{i:03d}" for i in range(40)]
        outcomes = {"inserted": 0, "duplicate": 0}
        lock = threading.Lock()
        errors = []

        def writer(worker_id):
            thread_db = FleetDB(path)
            try:
                for key in keys:
                    status = thread_db.record_unit(
                        "exp", key, _spec(), _payload(), worker_id=worker_id
                    )
                    with lock:
                        outcomes[status] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                thread_db.close()

        threads = [
            threading.Thread(target=writer, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert outcomes == {"inserted": len(keys), "duplicate": len(keys)}
        verify = FleetDB(path)
        rows = verify.unit_rows("exp")
        assert [r.unit_key for r in rows] == keys
        assert sum(r.duplicates for r in rows) == len(keys)


    def test_memo_and_ledger_writers_race_on_one_store(self, tmp_path):
        """More writers than cores, switching often: two record the
        units, two store the same results through the memo's store.
        Each key ends with one results row and one member row, and no
        write is lost or doubled."""
        path = tmp_path / "fleet.sqlite"
        FleetDB(path).open_experiment("exp", {})
        keys = [f"k{i:03d}" for i in range(30)]
        db, memo_store = FleetDB(path), UnitMemo(path)._store
        errors = []

        def writer(record):
            try:
                for key in keys:
                    if record:
                        db.record_unit("exp", key, _spec(), _payload())
                    else:
                        memo_store.store(key, _payload())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(n % 2 == 0,))
            for n in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        conn = db.connect()
        for table in ("results", "units"):
            count = conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            assert count[0] == len(keys)
        status = db.status("exp")
        assert (status["units"], status["duplicates"]) == (30, 30)
        assert db.integrity_check() == "ok"


class TestQuarantine:
    def _corrupt(self, path, key):
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE results SET payload=? WHERE unit_key=?",
            (json.dumps({"cycles": -1, "tampered": True}), key),
        )
        conn.commit()
        conn.close()

    def test_corrupted_row_quarantined_and_reported_missing(self, tmp_path):
        path = tmp_path / "fleet.sqlite"
        db = FleetDB(path)
        db.open_experiment("exp", {})
        db.record_unit("exp", "k1", _spec(), _payload())
        db.close()
        self._corrupt(path, "k1")

        db = FleetDB(path)
        assert db.unit_rows("exp", "k1") == []
        assert db.quarantined == 1
        assert db.status("exp")["quarantined"] == 1
        # The dispatcher's contract: quarantined == missing == re-run,
        # and the fresh record lands cleanly (the membership is kept,
        # so it counts as a re-record).
        assert db.record_unit("exp", "k1", _spec(), _payload()) == "duplicate"
        assert db.unit_rows("exp", "k1")[0].payload == _payload()
        assert db.status("exp")["quarantined"] == 0

    def test_stale_rows_move_to_quarantine(self, db):
        db.open_experiment("exp", {})
        db.open_experiment("other", {})
        for key in ("keep", "old-1", "old-2"):
            db.record_unit("exp", key, _spec(), _payload())
        db.record_unit("other", "old-1", _spec(), _payload())
        assert db.quarantine_stale("exp", {"keep", "new"}) == 2
        assert [r.unit_key for r in db.unit_rows("exp")] == ["keep"]
        assert [r.unit_key for r in db.unit_rows("other")] == ["old-1"]
        assert db.status("exp")["quarantined"] == 2
        assert db.status("other")["quarantined"] == 0  # other experiments stay
        # Only the membership is set aside: the results stay stored
        # (the memo serves them), and nothing entered quarantine.
        assert UnitMemo(db.path)._store.load("old-2") == _payload()
        quarantined = db.connect().execute("SELECT COUNT(*) FROM quarantine")
        assert quarantined.fetchone()[0] == 0

    def test_a_stale_member_back_in_the_expansion_counts_again(self, db):
        db.open_experiment("exp", {})
        for key in ("k1", "k2"):
            db.record_unit("exp", key, _spec(), _payload())
        db.quarantine_stale("exp", {"k1"})
        assert db.quarantine_stale("exp", {"k1", "k2"}) == 0
        assert [r.unit_key for r in db.unit_rows("exp")] == ["k1", "k2"]
        assert db.status("exp")["quarantined"] == 0

    def test_corrupt_row_dropped_from_bulk_reads(self, tmp_path):
        path = tmp_path / "fleet.sqlite"
        db = FleetDB(path)
        db.open_experiment("exp", {})
        db.record_unit("exp", "k1", _spec(1), _payload(1))
        db.record_unit("exp", "k2", _spec(2), _payload(2))
        db.close()
        self._corrupt(path, "k1")
        db = FleetDB(path)
        assert [r.unit_key for r in db.unit_rows("exp")] == ["k2"]

    def test_the_memo_and_the_ledger_share_one_row(self, tmp_path):
        """A worker's memo and the dispatcher write one results row."""
        path = tmp_path / "fleet.sqlite"
        UnitMemo(path)._store.store("k1", _payload())
        db = FleetDB(path)
        db.open_experiment("exp", {})
        assert db.record_unit("exp", "k1", _spec(), _payload()) == "inserted"
        rows = db.connect().execute("SELECT unit_key FROM results").fetchall()
        assert [row[0] for row in rows] == ["k1"]


class TestStatusAndEnv:
    def test_status_rollup(self, db):
        db.open_experiment("exp", {})
        db.record_unit("exp", "k1", _spec(1), _payload(1), worker_id="w0")
        db.record_unit(
            "exp", "k2", _spec(2, mode="faults"), _payload(2), worker_id="w1"
        )
        db.record_unit("exp", "k2", _spec(2, mode="faults"), _payload(2))
        status = db.status("exp")
        assert status["units"] == 2
        assert status["duplicates"] == 1
        assert status["by_mode"] == {"faults": 1, "run": 1}
        # The duplicate re-record bumps a counter, never adds a row, so
        # its (empty) worker id is absent from the distinct-worker list.
        assert status["workers"] == ["w0", "w1"]

    def test_env_knob_names_the_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DB, str(tmp_path / "custom.sqlite"))
        assert default_db_path() == tmp_path / "custom.sqlite"
        db = FleetDB()
        db.open_experiment("exp", {})
        assert (tmp_path / "custom.sqlite").exists()

    def test_a_file_the_memo_created_is_an_empty_fleet_db(self, tmp_path):
        """The memo's default file is the FleetDB's: ``fleet status`` on
        a file only the memo wrote (no ledger tables) lists no
        experiments, and naming one is an unknown experiment."""
        path = tmp_path / "fleet.sqlite"
        UnitMemo(path)._store.store("k1", _payload())
        readonly = FleetDB(path, readonly=True)
        assert readonly.experiments() == []
        with pytest.raises(ResultStoreError, match="unknown experiment"):
            readonly.status("exp")
        # A writer adds the ledger to the memo's file.
        FleetDB(path).open_experiment("exp", {})
        assert readonly.experiments() == ["exp"]

    def test_readonly_refuses_missing_file(self, tmp_path):
        with pytest.raises(ResultStoreError, match="no results database"):
            FleetDB(tmp_path / "absent.sqlite", readonly=True).connect()

    def test_readonly_reads_without_writing(self, tmp_path):
        path = tmp_path / "fleet.sqlite"
        rw = FleetDB(path)
        rw.open_experiment("exp", {})
        rw.record_unit("exp", "k1", _spec(), _payload())
        ro = FleetDB(path, readonly=True)
        assert ro.unit_rows("exp", "k1")[0].payload == _payload()
        with pytest.raises(sqlite3.OperationalError):
            ro.record_unit("exp", "k2", _spec(), _payload())
        with pytest.raises(sqlite3.OperationalError):
            ro.connect().execute("DELETE FROM results")

    def test_a_file_of_another_schema_is_refused_by_path(self, tmp_path):
        """A file written by the previous layout (payload columns in
        ``units``, no version stamp) fails at open, naming the file —
        not with a column error mid-campaign."""
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE units (experiment_id TEXT NOT NULL, unit_key "
            "TEXT NOT NULL, payload TEXT NOT NULL, payload_digest TEXT "
            "NOT NULL, PRIMARY KEY (experiment_id, unit_key))"
        )
        conn.execute("CREATE TABLE quarantine (experiment_id TEXT)")
        conn.commit()
        conn.close()
        for open_db in (
            lambda: FleetDB(path),
            lambda: FleetDB(path, readonly=True).experiments(),
            lambda: UnitMemo(path).load("k" * 24, "run"),
        ):
            with pytest.raises(ResultStoreError, match=str(path)):
                open_db()


class TestGitHash:
    """An experiment is stamped with the commit, and with ``-dirty``
    when tracked files differ from it."""

    @staticmethod
    def _fake_git(monkeypatch, porcelain: str) -> list:
        calls = []

        def run(args, **kwargs):
            calls.append(args)
            stdout = "0123456789abcdef01\n" if "rev-parse" in args else porcelain
            return subprocess.CompletedProcess(args, 0, stdout, "")

        monkeypatch.setattr(db_mod.subprocess, "run", run)
        return calls

    def test_clean_tree_is_the_commit(self, monkeypatch):
        calls = self._fake_git(monkeypatch, "")
        assert current_git_hash() == "0123456789abcdef01"
        assert any("--untracked-files=no" in args for args in calls)

    def test_edited_tree_is_dirty(self, monkeypatch):
        self._fake_git(monkeypatch, " M src/repro/fleet/db.py\n")
        assert current_git_hash() == "0123456789abcdef01-dirty"

    def test_no_git_is_unknown(self, monkeypatch):
        def run(args, **kwargs):
            raise OSError("no git")

        monkeypatch.setattr(db_mod.subprocess, "run", run)
        assert current_git_hash() == ""

    def test_report_meta_line_keeps_the_suffix(self, db):
        db.open_experiment("exp", {}, git_hash="0123456789abcdef01-dirty")
        html = render_html(build_report(db, "exp"))
        assert "git 0123456789ab-dirty ·" in html
