"""Fleet supervision: heartbeats, hang detection, breakers, respawn.

The dispatcher's original failure model was *fail-stop*: a worker that
died took a connection error with it, and the unit ledger requeued its
claims.  That model misses the nastier half of real fleet failures —
workers that *hang* (SIGSTOP, livelock, a wedged trace generation)
hold their claims forever, and workers that crash-loop burn the
campaign's time dying over and over.

This module adds the missing supervision plane, deliberately separate
from the data plane:

* :class:`HeartbeatMonitor` — a thread that probes every live worker's
  ``health`` frame over a **fresh, short-timeout connection straight to
  the worker's socket** (never through a chaos proxy — supervision
  must keep working while the data path is being fault-injected).  A
  worker whose last successful probe is older than ``stale_after``
  seconds is declared hung and killed; the existing death/requeue path
  absorbs the rest.
* :class:`CircuitBreaker` (from :mod:`repro.common.retry`) per worker —
  K consecutive incarnation deaths open the breaker; repeated trips
  quarantine the worker permanently with the last death reason kept
  for the campaign report.
* Budgeted respawn — a dead worker may be restarted (same worker id,
  new *incarnation* with fresh socket/ready paths) while the fleet-wide
  respawn budget lasts and its breaker allows.

Everything the supervisor does lands in a :class:`SupervisionLog`; the
chaos harness (:mod:`repro.chaos`) correlates those events against its
injection log to classify every fault as tolerated / recovered /
degraded — an injected fault with no matching evidence anywhere is a
*silent* failure and fails the campaign.

All knobs default **off** (``SupervisionConfig()`` is inert) so the
library-level dispatcher behaves exactly as before unless a caller —
or the ``REPRO_FLEET_*`` environment — opts in.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.retry import CircuitBreaker, RetryPolicy

__all__ = [
    "SupervisionConfig",
    "SupervisionEvent",
    "SupervisionLog",
    "HeartbeatMonitor",
]


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


@dataclass(frozen=True)
class SupervisionConfig:
    """Fleet supervision knobs.  The zero value disables everything.

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
    #: Socket timeout for one health probe.
    probe_timeout: float = 1.0
    #: Consecutive incarnation deaths that open a worker's breaker.
    breaker_threshold: int = 3
    #: Seconds an open breaker waits before allowing a half-open probe.
    breaker_cooldown: float = 0.5
    #: Breaker trips tolerated before permanent quarantine.
    breaker_max_trips: int = 3

    @property
    def heartbeat_enabled(self) -> bool:
        return self.heartbeat_interval > 0

    @property
    def effective_stale_after(self) -> float:
        return self.stale_after or 3.0 * self.heartbeat_interval

    def breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.breaker_threshold,
            cooldown=self.breaker_cooldown,
            max_trips=self.breaker_max_trips,
        )

    @classmethod
    def from_env(cls) -> "SupervisionConfig":
        """Read ``REPRO_FLEET_*`` overrides; defaults stay off.

        The probe timeout, breaker cooldown and trip budget keep their
        field defaults; callers that need others set them in code.
        """
        return cls(
            heartbeat_interval=_env_float("REPRO_FLEET_HEARTBEAT", 0.0),
            stale_after=_env_float("REPRO_FLEET_STALE_AFTER", 0.0),
            respawn_budget=_env_int("REPRO_FLEET_RESPAWNS", 0),
            breaker_threshold=_env_int("REPRO_FLEET_BREAKER_THRESHOLD", 3),
        )


# ----------------------------------------------------------------------
# The supervision event log
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisionEvent:
    """One supervision observation, wall- and monotonic-stamped.

    Kinds: ``worker-start``, ``worker-death``, ``worker-respawn``,
    ``respawn-exhausted``, ``hang-detected``, ``breaker-open``,
    ``breaker-quarantine``, ``client-retry``.
    """

    kind: str
    worker_id: str
    detail: str
    at: float
    mono: float

    def to_payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "worker": self.worker_id,
            "detail": self.detail,
            "at": self.at,
            "mono": self.mono,
        }


class SupervisionLog:
    """Thread-safe append-only event log (many threads, one campaign)."""

    def __init__(self) -> None:
        self._events: List[SupervisionEvent] = []
        self._lock = threading.Lock()

    def record(self, kind: str, worker_id: str, detail: str = "") -> None:
        event = SupervisionEvent(
            kind=kind,
            worker_id=worker_id,
            detail=detail,
            at=time.time(),
            mono=time.monotonic(),
        )
        with self._lock:
            self._events.append(event)

    def events(self, kind: Optional[str] = None) -> List[SupervisionEvent]:
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [event for event in snapshot if event.kind == kind]

    def to_payload(self) -> List[Dict[str, object]]:
        return [event.to_payload() for event in self.events()]


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
        log: SupervisionLog,
        on_stale: Callable[[object], None],
    ) -> None:
        super().__init__(name="fleet-heartbeat", daemon=True)
        self._workers = workers
        self._config = config
        self._log = log
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
        self._log.record(
            "hang-detected",
            worker.worker_id,
            f"incarnation {worker.instance}: no heartbeat for "
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
                worker.socket_path,
                timeout=self._config.probe_timeout,
                retry=RetryPolicy(attempts=1, jitter=0.0),
            )
            try:
                frame = client.health()
            finally:
                client.close()
        except Exception:
            return False
        return frame.get("type") == "health"
