"""End-to-end fleet runs over real worker subprocesses (Unix sockets).

The acceptance bar for the fleet, test-first: a multi-worker run —
including one whose worker is SIGKILLed mid-campaign — must be
**unit-for-unit bit-identical** to serial :func:`execute_unit`, with
every unit recorded exactly once in the sqlite database.  The tier-1
variants keep the matrix tiny (2 workers, 6 transactions); the 3-worker
kill-vs-unkilled database comparison runs in the slow tier.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.fleet.db import FleetDB, UnitDigestMismatch
from repro.fleet.dispatcher import (
    CampaignSpec,
    FleetDispatcher,
    FleetError,
    expand_units,
    spec_to_run_unit,
)
from repro.fleet.report import build_report, render_html
from repro.harness import memo, parallel
from repro.harness.parallel import execute_unit
from repro.harness.trace_store import TraceCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import result_digest, result_payload


def _tiny_campaign(fault_sites: int = 1) -> CampaignSpec:
    return CampaignSpec(
        name="itest",
        workloads=("hashmap",),
        designs=("dolos-partial", "prewpq-eager"),
        seeds=(1, 2),
        transactions=6,
        fault_sites=fault_sites,
    ).validate()


def _worker_env(tmp_path) -> dict:
    """Hermetic workers: private trace cache, no cross-run memo state."""
    env = dict(os.environ)
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    env["REPRO_UNIT_MEMO"] = "off"
    return env


def _serial_digests(campaign: CampaignSpec) -> dict:
    """unit_key -> payload digest from plain serial execute_unit."""
    cache = TraceCache()
    return {
        unit.key: result_digest(
            result_payload(execute_unit(spec_to_run_unit(unit.spec), cache))
        )
        for unit in expand_units(campaign)
    }


def _assert_matches_serial(db: FleetDB, experiment_id: str, serial: dict):
    rows = db.unit_rows(experiment_id)
    assert sorted(row.unit_key for row in rows) == sorted(serial)
    for row in rows:
        assert result_digest(row.payload) == serial[row.unit_key], (
            f"unit {row.unit_key} diverged from serial execution"
        )


class TestFleetMatchesSerial:
    def test_two_worker_fleet_is_bit_identical_to_serial(self, tmp_path):
        campaign = _tiny_campaign()
        serial = _serial_digests(campaign)
        db = FleetDB(tmp_path / "fleet.sqlite")
        summary = FleetDispatcher(
            campaign,
            db,
            workers=2,
            experiment_id="two-worker",
            runtime_dir=tmp_path / "rt",
            worker_env=_worker_env(tmp_path),
        ).run()
        assert summary.units_recorded == summary.units_total == len(serial)
        assert summary.worker_deaths == 0
        _assert_matches_serial(db, "two-worker", serial)
        status = db.status("two-worker")
        assert status["status"] == "done"
        assert set(status["workers"]) <= {"worker-0", "worker-1"}

    def test_inline_mode_matches_serial_too(self, tmp_path):
        campaign = _tiny_campaign()
        serial = _serial_digests(campaign)
        db = FleetDB(tmp_path / "fleet.sqlite")
        summary = FleetDispatcher(
            campaign, db, workers=0, experiment_id="inline"
        ).run()
        assert summary.units_recorded == len(serial)
        _assert_matches_serial(db, "inline", serial)

    def test_rerun_resumes_idempotently(self, tmp_path):
        """A second run of the same experiment re-dispatches nothing."""
        campaign = _tiny_campaign(fault_sites=0)
        db = FleetDB(tmp_path / "fleet.sqlite")
        FleetDispatcher(campaign, db, workers=0, experiment_id="resume").run()
        recorded = {}

        def on_record(worker_id, key):
            recorded[key] = recorded.get(key, 0) + 1

        summary = FleetDispatcher(
            campaign, db, workers=0, experiment_id="resume",
            on_record=on_record,
        ).run()
        assert recorded == {}  # nothing re-ran
        assert summary.units_recorded == summary.units_total
        assert db.status("resume")["duplicates"] == 0

    def test_resume_after_a_simulator_change_reruns_every_unit(
        self, tmp_path, monkeypatch
    ):
        """Rows recorded by other simulator sources are stale: they move
        to quarantine and every unit runs again."""
        monkeypatch.setattr(parallel, "_UNIT_MEMO", memo.UnitMemo(None))
        campaign = _tiny_campaign(fault_sites=0)
        db = FleetDB(tmp_path / "fleet.sqlite")
        FleetDispatcher(campaign, db, workers=0, experiment_id="stale").run()
        # A new fingerprint stands for edited simulator sources.
        monkeypatch.setattr(memo, "_MODEL_FINGERPRINT", "edited-simulator")
        recorded = []
        FleetDispatcher(
            campaign, db, workers=0, experiment_id="stale",
            on_record=lambda _worker, key: recorded.append(key),
        ).run()
        assert len(recorded) == 4
        status = db.status("stale")
        assert (status["units"], status["quarantined"]) == (4, 4)

    def test_inline_rows_time_each_unit(self, tmp_path, monkeypatch):
        """An inline row's elapsed time is its own unit's, so the rows
        sum to no more than the campaign's wall time."""
        monkeypatch.setattr(parallel, "_UNIT_MEMO", memo.UnitMemo(None))
        campaign = _tiny_campaign(fault_sites=0)
        db = FleetDB(tmp_path / "fleet.sqlite")
        summary = FleetDispatcher(
            campaign, db, workers=0, experiment_id="timed"
        ).run()
        rows = db.unit_rows("timed")
        assert len(rows) == 4
        assert sum(row.elapsed_s for row in rows) <= summary.elapsed_s


class TestWorkerKill:
    def test_killed_worker_is_redispatched_bit_identically(
        self, tmp_path, monkeypatch, caplog
    ):
        """SIGKILL one of two workers after its first recorded unit.

        The survivor completes the campaign from the requeued units; the
        database still matches serial execution with zero lost units.
        A client whose socket refuses to close on the teardown path must
        be *logged* (with the worker id), never silently swallowed.
        """
        real_close = ServiceClient.close

        def close_raises(self):
            real_close(self)
            raise OSError("socket already reaped")

        monkeypatch.setattr(ServiceClient, "close", close_raises)
        campaign = _tiny_campaign()
        serial = _serial_digests(campaign)
        db = FleetDB(tmp_path / "fleet.sqlite")
        killed = threading.Event()
        dispatcher = FleetDispatcher(
            campaign,
            db,
            workers=2,
            experiment_id="killed",
            runtime_dir=tmp_path / "rt",
            worker_env=_worker_env(tmp_path),
        )

        def kill_after_first_record(worker_id, key):
            if worker_id == "worker-0" and not killed.is_set():
                killed.set()
                dispatcher.worker_handles["worker-0"].kill()

        dispatcher.on_record = kill_after_first_record
        with caplog.at_level("WARNING", logger="repro.fleet.dispatcher"):
            summary = dispatcher.run()
        teardown_logs = [
            record for record in caplog.records
            if "client close failed" in record.getMessage()
        ]
        assert teardown_logs, "close failure on teardown was not logged"
        assert any(
            "worker-" in record.getMessage() for record in teardown_logs
        )
        assert killed.is_set()
        assert summary.worker_deaths == 1
        assert summary.units_recorded == summary.units_total == len(serial)
        _assert_matches_serial(db, "killed", serial)
        # Exactly once: each key appears in one row; a re-dispatched
        # unit that lands twice only bumps the duplicates counter.
        assert len(db.unit_keys("killed")) == len(serial)

    @pytest.mark.slow
    def test_three_worker_kill_db_equals_unkilled_run(self, tmp_path):
        """3 workers, one killed mid-campaign: payloads (and therefore
        the report) identical to an undisturbed 3-worker run."""
        campaign = CampaignSpec(
            name="slow-kill",
            workloads=("hashmap", "btree"),
            designs=("dolos-partial", "prewpq-eager", "eadr"),
            seeds=(1, 2, 3),
            transactions=12,
            fault_sites=2,
        ).validate()
        db = FleetDB(tmp_path / "fleet.sqlite")

        calm = FleetDispatcher(
            campaign, db, workers=3, experiment_id="calm",
            runtime_dir=tmp_path / "rt-calm",
            worker_env=_worker_env(tmp_path),
        ).run()

        killed = threading.Event()
        dispatcher = FleetDispatcher(
            campaign, db, workers=3, experiment_id="chaos",
            runtime_dir=tmp_path / "rt-chaos",
            worker_env=_worker_env(tmp_path),
        )

        def chaos(worker_id, key):
            if worker_id == "worker-1" and not killed.is_set():
                killed.set()
                dispatcher.worker_handles["worker-1"].kill()

        dispatcher.on_record = chaos
        chaotic = dispatcher.run()

        assert calm.units_total == chaotic.units_total
        assert chaotic.worker_deaths == 1
        calm_rows = {r.unit_key: r.payload_digest for r in db.unit_rows("calm")}
        chaos_rows = {
            r.unit_key: r.payload_digest for r in db.unit_rows("chaos")
        }
        assert calm_rows == chaos_rows
        # Reports agree on everything but the experiment identity.
        calm_report = build_report(db, "calm")
        chaos_report = build_report(db, "chaos")
        for field in ("aggregates", "speedups", "faults"):
            assert calm_report[field] == chaos_report[field]


class TestWorkerThreadError:
    def test_record_error_stops_the_campaign_and_names_the_unit(
        self, tmp_path, monkeypatch, bounded
    ):
        """An error that is not a worker death (here the second
        ``record_unit`` raising) ends the run with that error; the other
        worker thread must not wait on the ledger forever."""
        db = FleetDB(tmp_path / "fleet.sqlite")
        real_record = db.record_unit
        calls = []
        lock = threading.Lock()

        def record_unit(experiment_id, key, *args, **kwargs):
            with lock:
                calls.append(key)
                nth = len(calls)
            if nth == 2:
                raise UnitDigestMismatch(f"injected mismatch for {key}")
            return real_record(experiment_id, key, *args, **kwargs)

        monkeypatch.setattr(db, "record_unit", record_unit)
        dispatcher = FleetDispatcher(
            _tiny_campaign(fault_sites=0),  # 4 units
            db,
            workers=2,
            runtime_dir=tmp_path / "rt",
            worker_env=_worker_env(tmp_path),
        )
        try:
            with pytest.raises(FleetError) as excinfo:
                bounded(dispatcher.run, timeout=40)
        finally:
            db.close()
        message = str(excinfo.value)
        assert calls[1] in message and "UnitDigestMismatch" in message
        assert isinstance(excinfo.value.__cause__, UnitDigestMismatch)
        assert not any(h.alive for h in dispatcher.worker_handles.values())


class TestWireReport:
    def test_service_serves_report_readonly(self, tmp_path):
        """`harness serve --fleet-db` answers report frames (json+html)."""
        campaign = _tiny_campaign(fault_sites=0)
        db_path = tmp_path / "fleet.sqlite"
        FleetDispatcher(
            campaign, FleetDB(db_path), workers=0, experiment_id="wire"
        ).run()

        sock = str(tmp_path / "srv.sock")
        ready = tmp_path / "ready.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.harness", "serve",
                "--unix", sock, "--ready-file", str(ready),
                "--fleet-db", str(db_path),
            ],
            env=dict(os.environ),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert proc.poll() is None, "server died during startup"
                assert time.monotonic() < deadline, "server never became ready"
                time.sleep(0.02)
            with ServiceClient(sock) as client:
                frame = client.report("wire")
                assert frame["report"] == build_report(
                    FleetDB(db_path, readonly=True), "wire"
                )
                html_frame = client.report("wire", fmt="html")
                assert html_frame["html"] == render_html(frame["report"])
                with pytest.raises(ServiceError) as excinfo:
                    client.report("no-such-experiment")
                assert excinfo.value.code == "no-report"
        finally:
            proc.terminate()
            proc.wait(timeout=10)
