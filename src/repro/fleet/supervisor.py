"""Fleet supervision: heartbeats, hang detection, budgeted respawn.

The dispatcher's original failure model was *fail-stop*: a worker that
died took a connection error with it, and the unit ledger requeued its
claims.  That model misses workers that *hang* (SIGSTOP, livelock, a
wedged trace generation): they hold their claims forever.

This module adds the missing supervision plane, deliberately separate
from the data plane:

* :class:`HeartbeatMonitor` — a thread that probes every live worker's
  ``health`` frame over a **fresh, short-timeout connection straight to
  the worker's socket** (never through a chaos proxy — supervision
  must keep working while the data path is being fault-injected).  A
  worker whose last successful probe is older than ``stale_after``
  seconds is declared hung and killed; the existing death/requeue path
  absorbs the rest.
* Budgeted respawn (in the dispatcher) — a dead worker may be
  restarted (same worker id, new *incarnation* with fresh socket/ready
  paths) while the fleet-wide respawn budget lasts.  A worker that
  keeps crashing spends the budget and ends in ``respawn-exhausted``.

Everything the supervisor observes lands in the dispatcher's
:class:`~repro.instrumentation.EventLog` (source: the worker id; kinds
``worker-start``, ``worker-death``, ``worker-respawn``,
``respawn-exhausted``, ``hang-detected``, ``client-retry``); the
chaos harness (:mod:`repro.chaos`) records its injections into the same
log and classifies every fault as tolerated / recovered / degraded — an
injected fault with no matching evidence anywhere is a *silent*
failure and fails the campaign.

``SupervisionConfig()`` is inert, so the library-level dispatcher
behaves exactly as before unless a caller (the ``fleet run`` and
``chaos`` flags) opts in.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.instrumentation import EventLog

__all__ = ["SupervisionConfig", "HeartbeatMonitor"]


@dataclass(frozen=True)
class SupervisionConfig:
    """Fleet supervision settings.  The zero value disables everything.

    ``heartbeat_interval > 0`` turns the heartbeat monitor on;
    ``respawn_budget > 0`` turns respawn on.  Both can be enabled
    independently (a heartbeat-only fleet kills hung workers but never
    replaces them; a respawn-only fleet replaces crashers but cannot
    detect hangs).
    """

    #: Seconds between health probes; 0 disables the monitor.
    heartbeat_interval: float = 0.0
    #: A worker whose last good probe is older than this is hung.
    #: 0 means "3 × heartbeat_interval".
    stale_after: float = 0.0
    #: Fleet-wide respawn budget (total restarts across all workers).
    respawn_budget: int = 0

    @property
    def heartbeat_enabled(self) -> bool:
        return self.heartbeat_interval > 0

    @property
    def effective_stale_after(self) -> float:
        return self.stale_after or 3.0 * self.heartbeat_interval

    @property
    def probe_timeout(self) -> float:
        """Socket timeout of one health probe: half the staleness window."""
        return self.effective_stale_after / 2


# ----------------------------------------------------------------------
# Heartbeat monitor
# ----------------------------------------------------------------------
class HeartbeatMonitor(threading.Thread):
    """Probe workers' ``health`` frames; kill the ones that go stale.

    ``workers()`` returns the live worker handles each sweep (the
    dispatcher's ``worker_handles`` values — respawned incarnations
    appear automatically).  Each handle needs ``worker_id``,
    ``instance``, ``alive`` and ``socket_path``; staleness is tracked
    per *(worker, incarnation)* so a replacement starts with a clean
    slate.  ``on_stale(worker)`` fires exactly once per hung
    incarnation; the dispatcher's callback kills the process, which
    funnels the hang into the ordinary death/requeue/respawn path.
    """

    def __init__(
        self,
        workers: Callable[[], List[object]],
        config: SupervisionConfig,
        events: EventLog,
        on_stale: Callable[[object], None],
    ) -> None:
        super().__init__(name="fleet-heartbeat", daemon=True)
        self._workers = workers
        self._config = config
        self._events = events
        self._on_stale = on_stale
        self._stop_event = threading.Event()
        self._last_ok: Dict[Tuple[str, int], float] = {}
        self._flagged: set = set()
        self.hangs = 0
        self.probes = 0

    # ------------------------------------------------------------------
    def run(self) -> None:
        while not self._stop_event.wait(self._config.heartbeat_interval):
            for worker in list(self._workers()):
                if self._stop_event.is_set():
                    return
                self._probe(worker)

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=max(2.0, 2 * self._config.probe_timeout))

    # ------------------------------------------------------------------
    def _probe(self, worker) -> None:
        key = (worker.worker_id, worker.instance)
        # A worker still inside start() has bumped `instance` but isn't
        # listening yet; starting the staleness clock there turns slow
        # interpreter startup into a false hang.
        if (
            key in self._flagged
            or not worker.alive
            or not getattr(worker, "ready", True)
        ):
            return
        self._last_ok.setdefault(key, time.monotonic())
        self.probes += 1
        if self._health_ok(worker):
            self._last_ok[key] = time.monotonic()
            return
        stale_for = time.monotonic() - self._last_ok[key]
        if stale_for <= self._config.effective_stale_after:
            return
        self._flagged.add(key)
        self.hangs += 1
        self._events.record(
            worker.worker_id,
            "hang-detected",
            detail=f"incarnation {worker.instance}: no heartbeat for "
            f"{stale_for:.2f}s (stale_after="
            f"{self._config.effective_stale_after:.2f}s)",
        )
        self._on_stale(worker)

    def _health_ok(self, worker) -> bool:
        """One probe over a fresh direct connection (never proxied)."""
        # Local import: the dispatcher imports this module, and the
        # client import chain is heavy enough to keep off the module
        # path used by config-only consumers.
        from repro.service.client import ServiceClient

        try:
            client = ServiceClient(
                worker.socket_path, timeout=self._config.probe_timeout
            )
            try:
                frame = client.health()
            finally:
                client.close()
        except Exception:
            return False
        return frame.get("type") == "health"
