"""Runs one :class:`ChaosPlan` against a live fleet dispatcher.

The orchestrator plugs into the two dispatcher hooks:

* ``on_worker_start`` — every incarnation (initial start and respawn)
  gets a fresh :class:`ChaosProxy` in front of its socket; the
  worker's ``client_socket_path`` is repointed at the proxy while its
  real ``socket_path`` stays reserved for heartbeat probes.  Wire
  frame ordinals live in one :class:`WireSchedule` per *worker id*,
  shared across incarnations, so the schedule stays a pure function of
  the plan.  ``crash-on-start`` faults fire here.
* ``on_record`` — per-worker and global record counters drive the
  ``sigstop`` / ``sigkill`` / ``store-corrupt`` triggers.

``kill-mid-result`` rides the proxy's frame filter: when the planned
result frame crosses the wire, the worker is SIGKILLed and the frame
is swallowed — the dispatcher never records that result, and only the
redispatch path can save the unit.

Every fault fired lands in the run's
:class:`~repro.instrumentation.EventLog` exactly once.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.chaos.plan import ChaosPlan, WireSchedule, record_injection
from repro.chaos.proxy import ChaosProxy
from repro.instrumentation import EventLog

logger = logging.getLogger(__name__)

__all__ = ["ChaosOrchestrator"]


class ChaosOrchestrator:
    """Live fault injection for one chaos run."""

    def __init__(
        self,
        plan: ChaosPlan,
        runtime_dir: Path,
        events: EventLog,
        result_cache_dir: Optional[Path] = None,
    ) -> None:
        self.plan = plan
        self.runtime_dir = Path(runtime_dir)
        self.result_cache_dir = (
            Path(result_cache_dir) if result_cache_dir else None
        )
        self.events = events
        self._schedules: Dict[str, WireSchedule] = {}
        self._proxies: List[ChaosProxy] = []
        self._handles: Dict[str, object] = {}
        self._record_counts: Dict[str, int] = {}
        self._result_counts: Dict[str, int] = {}
        self._global_records = 0
        self._fired: set = set()
        self._timers: List[threading.Timer] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Dispatcher hooks
    # ------------------------------------------------------------------
    def on_worker_start(self, worker) -> None:
        """Front the new incarnation with a proxy; maybe crash it."""
        self._handles[worker.worker_id] = worker
        schedule = self._schedules.setdefault(
            worker.worker_id, WireSchedule(self.plan, worker.worker_id)
        )
        listen_path = (
            self.runtime_dir
            / f"{worker.worker_id}.i{worker.instance}.chaos"
        )
        proxy = ChaosProxy(
            str(listen_path),
            worker.socket_path,
            schedule,
            self.events,
            frame_filter=self._frame_filter(worker.worker_id),
        )
        proxy.start()
        self._proxies.append(proxy)
        worker.client_socket_path = str(listen_path)

        for fault in self.plan.for_worker(worker.worker_id, "process"):
            if fault.kind != "crash-on-start":
                continue
            if fault.frame != worker.instance:
                continue
            with self._lock:
                if fault.fault_id in self._fired:
                    continue
                self._fired.add(fault.fault_id)
            record_injection(
                self.events, fault,
                f"killed incarnation {worker.instance} at ready",
            )
            worker.kill()

    def on_record(self, worker_id: str, unit_key: str) -> None:
        """Count completions; fire record-triggered faults."""
        with self._lock:
            self._global_records += 1
            global_count = self._global_records
            count = self._record_counts.get(worker_id, 0) + 1
            self._record_counts[worker_id] = count
            due = [
                fault
                for fault in self.plan.for_worker(worker_id, "process")
                if fault.kind in ("sigstop", "sigkill")
                and fault.frame == count
                and fault.fault_id not in self._fired
            ]
            for fault in due:
                self._fired.add(fault.fault_id)
            corrupt = [
                fault
                for fault in self.plan.by_layer("storage")
                if fault.kind == "store-corrupt"
                and global_count == 1
                and fault.fault_id not in self._fired
            ]
            for fault in corrupt:
                self._fired.add(fault.fault_id)
        for fault in due:
            self._fire_process_fault(fault, worker_id)
        for fault in corrupt:
            self._corrupt_result_store(fault)

    # ------------------------------------------------------------------
    def _frame_filter(self, worker_id: str):
        """kill-mid-result: die as the Nth result frame crosses."""
        plan_faults = [
            fault
            for fault in self.plan.for_worker(worker_id, "process")
            if fault.kind == "kill-mid-result"
        ]
        if not plan_faults:
            return None

        def keep(direction: str, line: bytes) -> bool:
            if direction != "s2c" or b'"result"' not in line:
                return True
            try:
                frame = json.loads(line)
            except Exception:
                return True
            if frame.get("type") != "result":
                return True
            with self._lock:
                count = self._result_counts.get(worker_id, 0) + 1
                self._result_counts[worker_id] = count
                fault = next(
                    (
                        f
                        for f in plan_faults
                        if f.frame == count and f.fault_id not in self._fired
                    ),
                    None,
                )
                if fault is None:
                    return True
                self._fired.add(fault.fault_id)
            record_injection(
                self.events, fault,
                f"result frame {count} swallowed; worker killed",
            )
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.kill()
            return False

        return keep

    def _fire_process_fault(self, fault, worker_id: str) -> None:
        handle = self._handles.get(worker_id)
        if handle is None or handle.process is None:
            return
        pid = handle.process.pid
        if fault.kind == "sigkill":
            record_injection(
                self.events, fault, f"SIGKILL after record {fault.frame}"
            )
            handle.kill()
            return
        if fault.kind == "sigstop":
            record_injection(
                self.events, fault,
                f"SIGSTOP after record {fault.frame} for {fault.param}s",
            )
            try:
                os.kill(pid, signal.SIGSTOP)
            except ProcessLookupError:
                return
            timer = threading.Timer(fault.param, self._sigcont, args=(pid,))
            timer.daemon = True
            timer.start()
            self._timers.append(timer)

    @staticmethod
    def _sigcont(pid: int) -> None:
        try:
            os.kill(pid, signal.SIGCONT)
        except (ProcessLookupError, PermissionError):
            pass

    def _corrupt_result_store(self, fault) -> None:
        """Scribble over one unit-memo entry (the memo must quarantine it)."""
        if self.result_cache_dir is None:
            return
        victims = sorted(self.result_cache_dir.glob("*.json"))
        if not victims:
            record_injection(self.events, fault, "no cache entry to corrupt yet")
            return
        victim = victims[0]
        try:
            victim.write_bytes(b'{"payload": "corrupted by chaos"')
        except OSError as exc:
            record_injection(self.events, fault, f"corruption failed: {exc}")
            return
        record_injection(self.events, fault, f"corrupted {victim.name}")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release timers and proxies; un-stop anything still paused."""
        for timer in self._timers:
            timer.cancel()
        for handle in self._handles.values():
            process = getattr(handle, "process", None)
            if process is not None and process.poll() is None:
                self._sigcont(process.pid)
        for proxy in self._proxies:
            proxy.close()
