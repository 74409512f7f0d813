"""Tier-1 tests for the fleet supervision plane and the worker timeouts.

Fast and subprocess-light: the heartbeat monitor runs against fake
worker handles and a tiny threaded health responder; the only real
subprocess is the start-timeout test, which pins a worker command that
can never become ready.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

import repro.fleet.dispatcher as dispatcher_mod
from repro.fleet.dispatcher import (
    FleetError,
    ServiceWorker,
    worker_start_timeout,
    worker_stop_timeout,
)
from repro.fleet.supervisor import HeartbeatMonitor, SupervisionConfig
from repro.instrumentation import EventLog
from repro.service import protocol as proto


# ======================================================================
# Config + env knobs
# ======================================================================
class TestSupervisionConfig:
    def test_zero_value_is_inert(self):
        config = SupervisionConfig()
        assert not config.heartbeat_enabled
        assert config.respawn_budget == 0

    def test_effective_stale_after_defaults_to_three_beats(self):
        config = SupervisionConfig(heartbeat_interval=0.2)
        assert config.effective_stale_after == pytest.approx(0.6)
        explicit = SupervisionConfig(heartbeat_interval=0.2, stale_after=1.5)
        assert explicit.effective_stale_after == 1.5

    def test_probe_timeout_is_half_the_staleness_window(self):
        assert SupervisionConfig(
            heartbeat_interval=0.1, stale_after=0.5
        ).probe_timeout == pytest.approx(0.25)
        assert SupervisionConfig(
            heartbeat_interval=0.2
        ).probe_timeout == pytest.approx(0.3)


class TestFleetEnvKnobs:
    def test_timeouts_default_without_env(self, monkeypatch):
        for name in ("REPRO_FLEET_START_TIMEOUT", "REPRO_FLEET_STOP_TIMEOUT"):
            monkeypatch.delenv(name, raising=False)
        assert worker_start_timeout() == dispatcher_mod.WORKER_START_TIMEOUT
        assert worker_stop_timeout() == dispatcher_mod.WORKER_STOP_TIMEOUT

    def test_env_overrides_are_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_START_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_FLEET_STOP_TIMEOUT", "3.5")
        assert worker_start_timeout() == 12.5
        assert worker_stop_timeout() == 3.5

    def test_start_timeout_error_names_the_env_var(
        self, tmp_path, monkeypatch
    ):
        # Pin the worker command to something that never touches its
        # ready file, so the configured timeout must fire — and the
        # error must tell the operator which knob to turn.
        monkeypatch.setenv("REPRO_FLEET_START_TIMEOUT", "0.3")
        real_popen = dispatcher_mod.subprocess.Popen
        monkeypatch.setattr(
            dispatcher_mod.subprocess,
            "Popen",
            lambda *args, **kwargs: real_popen(["sleep", "30"]),
        )
        worker = ServiceWorker("worker-x", tmp_path)
        with pytest.raises(FleetError) as excinfo:
            worker.start()
        worker.kill()
        assert "REPRO_FLEET_START_TIMEOUT" in str(excinfo.value)
        assert "0.3" in str(excinfo.value)


class TestWorkerIncarnations:
    def test_respawn_paths_carry_the_instance(self, tmp_path):
        worker = ServiceWorker("worker-3", tmp_path)
        assert worker.socket_path.endswith("worker-3.sock")
        assert worker.client_socket_path == worker.socket_path
        worker.instance = 2
        worker._set_paths()
        assert worker.socket_path.endswith("worker-3.r2.sock")
        assert worker.ready_path.name == "worker-3.r2.ready"
        # A chaos proxy repoint never outlives the incarnation.
        assert worker.client_socket_path == worker.socket_path


# ======================================================================
# Heartbeat monitor
# ======================================================================
class _FakeWorker:
    def __init__(self, worker_id: str, socket_path: str, alive: bool = True):
        self.worker_id = worker_id
        self.instance = 0
        self.socket_path = socket_path
        self.alive = alive


class _HealthResponder:
    """Threaded unix server speaking just enough protocol for probes."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(8)
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                conn.sendall(
                    proto.encode_message(
                        {"type": "hello", "version": proto.PROTOCOL_VERSION}
                    )
                )
                reader = conn.makefile("rb")
                line = reader.readline()
                if line and json.loads(line).get("type") == "health":
                    conn.sendall(
                        proto.encode_message(
                            {"type": "health", "status": "ok"}
                        )
                    )
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestHeartbeatMonitor:
    CONFIG = SupervisionConfig(heartbeat_interval=0.05, stale_after=0.15)

    def test_healthy_worker_is_never_flagged(self, tmp_path):
        responder = _HealthResponder(str(tmp_path / "w.sock"))
        worker = _FakeWorker("worker-0", responder.path)
        log = EventLog()
        stale = []
        monitor = HeartbeatMonitor(
            lambda: [worker], self.CONFIG, log, on_stale=stale.append
        )
        monitor.start()
        try:
            assert _wait_until(lambda: monitor.probes >= 5)
            time.sleep(3 * self.CONFIG.stale_after)
        finally:
            monitor.stop()
            responder.close()
        assert stale == []
        assert monitor.hangs == 0
        assert log.records("hang-detected") == []

    def test_unreachable_worker_is_flagged_exactly_once(self, tmp_path):
        worker = _FakeWorker("worker-0", str(tmp_path / "missing.sock"))
        log = EventLog()
        stale = []
        monitor = HeartbeatMonitor(
            lambda: [worker], self.CONFIG, log, on_stale=stale.append
        )
        monitor.start()
        try:
            assert _wait_until(lambda: stale)
            time.sleep(3 * self.CONFIG.stale_after)  # no double-flag
        finally:
            monitor.stop()
        assert stale == [worker]
        assert monitor.hangs == 1
        (event,) = log.records("hang-detected")
        assert event.source == "worker-0"
        assert "stale_after" in event.fields["detail"]

    def test_a_new_incarnation_gets_a_clean_slate(self, tmp_path):
        worker = _FakeWorker("worker-0", str(tmp_path / "missing.sock"))
        log = EventLog()
        stale = []
        monitor = HeartbeatMonitor(
            lambda: [worker], self.CONFIG, log, on_stale=stale.append
        )
        monitor.start()
        try:
            assert _wait_until(lambda: len(stale) == 1)
            worker.instance = 1  # "respawned", still unreachable
            assert _wait_until(lambda: len(stale) == 2)
        finally:
            monitor.stop()
        assert monitor.hangs == 2

    def test_dead_workers_are_not_probed(self, tmp_path):
        worker = _FakeWorker(
            "worker-0", str(tmp_path / "missing.sock"), alive=False
        )
        log = EventLog()
        stale = []
        monitor = HeartbeatMonitor(
            lambda: [worker], self.CONFIG, log, on_stale=stale.append
        )
        monitor.start()
        try:
            time.sleep(4 * self.CONFIG.stale_after)
        finally:
            monitor.stop()
        assert stale == []
        assert monitor.probes == 0

    def test_starting_workers_are_not_probed_until_ready(self, tmp_path):
        # An incarnation inside start() has bumped `instance` but isn't
        # listening yet; the staleness clock must not start until the
        # dispatcher marks it ready, or slow startup reads as a hang.
        worker = _FakeWorker("worker-0", str(tmp_path / "missing.sock"))
        worker.ready = False
        log = EventLog()
        stale = []
        monitor = HeartbeatMonitor(
            lambda: [worker], self.CONFIG, log, on_stale=stale.append
        )
        monitor.start()
        try:
            time.sleep(4 * self.CONFIG.stale_after)
            assert monitor.probes == 0
            worker.ready = True  # start() finished; now fair game
            assert _wait_until(lambda: stale)
        finally:
            monitor.stop()
        assert stale == [worker]
        assert monitor.hangs == 1
