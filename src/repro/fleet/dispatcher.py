"""The fleet dispatcher: campaign expansion and worker driving.

A declarative :class:`CampaignSpec` (configs × workloads × seeds ×
fault plans) expands into a deterministic, duplicate-free unit list
(:func:`expand_units`), each unit keyed by its unit-memo key.  The
:class:`FleetDispatcher` then spawns one ``python -m repro.harness
serve`` subprocess per worker (Unix socket, the service wire protocol)
and drives each from its own thread through one shared queue, the
:class:`UnitLedger`:

* **One queue** — every worker thread claims the next pending unit; a
  thread with nothing to claim waits until a completion ends the
  campaign or a requeue hands a unit back.
* **Re-dispatch** — a worker that dies (connection drop, kill -9) has
  its in-flight units put back at the head of the queue for the
  survivors; this is :func:`repro.harness.parallel.fan_out`'s retry
  across *worker processes* instead of pool children.
* **Abort** — any other error in a worker thread (a database write
  that fails, a hook that raises) stops the ledger, so no thread waits
  on it forever, and :meth:`FleetDispatcher.run` raises it.

Every completed unit is recorded into the :class:`~repro.fleet.db
.FleetDB` the moment its result frame lands, so a dispatcher crash
loses at most the in-flight units, and a re-run of the same experiment
id resumes idempotently.  Unit keys name the simulator sources, so a
resumed campaign re-runs what a simulator change invalidated.
``workers=0`` runs the whole campaign inline and in order — the
no-subprocess path used by tests and tiny campaigns.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.fleet.db import FleetDB, current_git_hash, default_db_path
from repro.fleet.supervisor import HeartbeatMonitor, SupervisionConfig
from repro.harness.memo import UnitMemo
from repro.harness.parallel import execute_unit
from repro.harness.trace_store import TraceCache
from repro.instrumentation import EventLog
from repro.oracle.check import controller_matrix
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    JobSpec,
    ProtocolError,
    parse_overrides,
    result_payload,
    spec_to_run_unit,
)
from repro.workloads import ALL_WORKLOADS, ORACLE_SEMANTICS

logger = logging.getLogger(__name__)

#: Seconds to wait for a worker subprocess to write its ready file.
WORKER_START_TIMEOUT = 30.0
#: Seconds SIGTERM gets before :meth:`ServiceWorker.stop` escalates.
WORKER_STOP_TIMEOUT = 10.0


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else default


def worker_start_timeout() -> float:
    """``REPRO_FLEET_START_TIMEOUT`` or :data:`WORKER_START_TIMEOUT`."""
    return _env_float("REPRO_FLEET_START_TIMEOUT", WORKER_START_TIMEOUT)


def worker_stop_timeout() -> float:
    """``REPRO_FLEET_STOP_TIMEOUT`` or :data:`WORKER_STOP_TIMEOUT`."""
    return _env_float("REPRO_FLEET_STOP_TIMEOUT", WORKER_STOP_TIMEOUT)


class FleetError(RuntimeError):
    """Campaign-level failure (bad spec, incomplete run, ...)."""


# ----------------------------------------------------------------------
# Campaign specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """A declarative experiment matrix.

    Expansion order (and therefore dispatch order) is deterministic:
    ``run`` units in workloads × designs × seeds order first, then —
    when ``scenario`` is set — one open-loop ``scenario`` unit per
    (workload, design, seed), then — when ``fault_sites > 0`` — one
    ``faults`` unit per cell for every workload with oracle semantics.
    """

    name: str
    workloads: Tuple[str, ...]
    designs: Tuple[str, ...]
    seeds: Tuple[int, ...]
    transactions: int = 60
    #: Whitelisted config overrides applied to every unit (sorted
    #: key/value pairs; tuple form keeps the spec hashable).
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: > 0 adds a fault-injection unit per (workload, design, seed)
    #: with this many interior crash sites.
    fault_sites: int = 0
    #: Non-empty adds an open-loop ``scenario`` unit per (workload,
    #: design, seed): sorted (key, value) pairs describing the arrival
    #: process (see ``repro.service.protocol`` scenario keys).  Tuple
    #: form keeps the spec hashable.
    scenario: Tuple[Tuple[str, object], ...] = ()

    def validate(self) -> "CampaignSpec":
        if not self.name:
            raise FleetError("campaign needs a name")
        if not self.workloads or not self.designs or not self.seeds:
            raise FleetError(
                "campaign matrix is empty: need at least one workload, "
                "design and seed"
            )
        matrix = controller_matrix()
        for workload in self.workloads:
            if workload not in ALL_WORKLOADS:
                raise FleetError(
                    f"unknown workload {workload!r}; choose from "
                    f"{sorted(ALL_WORKLOADS)}"
                )
        for design in self.designs:
            if design not in matrix:
                raise FleetError(
                    f"unknown design {design!r}; choose from "
                    f"{sorted(matrix)}"
                )
        if self.transactions <= 0:
            raise FleetError("transactions must be positive")
        if self.fault_sites < 0:
            raise FleetError("fault_sites must be >= 0")
        if self.fault_sites:
            for workload in self.workloads:
                if workload not in ORACLE_SEMANTICS:
                    raise FleetError(
                        f"workload {workload!r} has no oracle semantics; "
                        "fault units need one"
                    )
        if self.scenario:
            probe = JobSpec(
                workload=self.workloads[0],
                design=self.designs[0],
                transactions=self.transactions,
                seed=self.seeds[0],
                mode="scenario",
                scenario=dict(self.scenario),
            )
            try:
                probe.validate()
            except ProtocolError as exc:
                raise FleetError(f"invalid campaign scenario: {exc}") from None
        return self

    def to_payload(self) -> Dict[str, object]:
        """Plain-JSON form (db snapshot / campaign files)."""
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "designs": list(self.designs),
            "seeds": list(self.seeds),
            "transactions": self.transactions,
            "overrides": {key: value for key, value in self.overrides},
            "fault_sites": self.fault_sites,
            "scenario": {key: value for key, value in self.scenario},
        }

    @classmethod
    def from_payload(cls, data: Dict[str, object]) -> "CampaignSpec":
        overrides = data.get("overrides", {}) or {}
        scenario = data.get("scenario", {}) or {}
        return cls(
            name=str(data["name"]),
            workloads=tuple(data["workloads"]),
            designs=tuple(data["designs"]),
            seeds=tuple(int(seed) for seed in data["seeds"]),
            transactions=int(data.get("transactions", 60)),
            overrides=tuple(sorted(overrides.items())),
            fault_sites=int(data.get("fault_sites", 0)),
            scenario=tuple(sorted(scenario.items())),
        ).validate()

    @classmethod
    def from_file(cls, path: Path) -> "CampaignSpec":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FleetError(f"cannot read campaign {path}: {exc}") from None
        return cls.from_payload(data)


@dataclass(frozen=True)
class FleetUnit:
    """One dispatchable unit: a :class:`JobSpec` plus its unit-memo key."""

    key: str
    spec: JobSpec


def _dedup_keep_order(values: Sequence) -> List:
    return list(dict.fromkeys(values))


def expand_units(campaign: CampaignSpec) -> List[FleetUnit]:
    """Expand ``campaign`` into its deterministic, duplicate-free units.

    The unit key is :meth:`UnitMemo.key_for` of the job's run unit: the
    unit's identity plus the generator and simulator-source versions, so
    the FleetDB, the unit memo and the workers agree about unit identity,
    and a row recorded by other simulator sources has a different key.
    """
    campaign.validate()
    memo = UnitMemo(None)
    overrides = {key: value for key, value in campaign.overrides}
    modes: List[Dict[str, object]] = [{}]
    if campaign.scenario:
        modes.append({"mode": "scenario", "scenario": dict(campaign.scenario)})
    if campaign.fault_sites > 0:
        modes.append({"mode": "faults", "fault_sites": campaign.fault_sites})
    cells = list(
        itertools.product(
            _dedup_keep_order(campaign.workloads),
            _dedup_keep_order(campaign.designs),
            _dedup_keep_order(campaign.seeds),
        )
    )

    units: Dict[str, FleetUnit] = {}
    for mode in modes:
        for workload, design, seed in cells:
            try:
                spec = JobSpec(
                    workload=workload,
                    design=design,
                    transactions=campaign.transactions,
                    seed=seed,
                    experiment_id=campaign.name,
                    overrides=overrides,
                    **mode,
                ).validate()
            except ProtocolError as exc:
                raise FleetError(f"invalid unit in campaign: {exc}") from None
            key = memo.key_for(spec_to_run_unit(spec))
            units.setdefault(key, FleetUnit(key=key, spec=spec))
    return list(units.values())


# ----------------------------------------------------------------------
# The unit ledger: one pending queue, in-flight claims, completions
# ----------------------------------------------------------------------
class UnitLedger:
    """Thread-safe unit state shared by all worker threads.

    Invariant: every unit is in exactly one of *pending* (the queue),
    *in-flight* (claimed by one worker), or *done*.
    ``claim``/``complete``/``requeue`` keep the sets consistent under
    any interleaving, which the Hypothesis suite exercises with random
    claim and death schedules.  :meth:`abort` ends the campaign early.
    """

    def __init__(self, units: Sequence[FleetUnit]) -> None:
        self._pending: Deque[FleetUnit] = deque(units)
        #: unit key -> the worker running it.
        self._inflight: Dict[str, str] = {}
        self._units: Dict[str, FleetUnit] = {unit.key: unit for unit in units}
        self._done: set = set()
        self._changed = threading.Condition()
        self.redispatches = 0
        #: The error passed to :meth:`abort` (the first, if several).
        self.failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[FleetUnit]:
        """The next pending unit for ``worker_id``; ``None`` once all done
        or aborted.

        With the queue empty but units in flight, waits: a completion
        may finish the campaign, and a dying worker's requeue hands its
        units back.
        """
        with self._changed:
            while not self._pending and self.failure is None:
                if len(self._done) == len(self._units):
                    return None
                self._changed.wait()
            if self.failure is not None:
                return None
            unit = self._pending.popleft()
            self._inflight[unit.key] = worker_id
            return unit

    def complete(self, key: str, worker_id: str) -> bool:
        """Mark ``key`` done; True only for the *first* completion."""
        with self._changed:
            self._inflight.pop(key, None)
            if key in self._done:
                return False
            self._done.add(key)
            self._changed.notify_all()
            return True

    def requeue(self, worker_id: str) -> int:
        """Return a dead worker's claims to the head of the queue.

        Returns how many units went back (counted as re-dispatches).
        """
        with self._changed:
            keys = [
                key
                for key, holder in self._inflight.items()
                if holder == worker_id
            ]
            for key in reversed(keys):
                del self._inflight[key]
                self._pending.appendleft(self._units[key])
            self.redispatches += len(keys)
            self._changed.notify_all()
            return len(keys)

    def abort(self, error: BaseException) -> None:
        """Stop the campaign on ``error``: every claim returns ``None``."""
        with self._changed:
            if self.failure is None:
                self.failure = error
            self._changed.notify_all()

    # ------------------------------------------------------------------
    def outstanding(self) -> int:
        with self._changed:
            return len(self._units) - len(self._done)


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
class ServiceWorker:
    """One fleet worker: a ``harness serve`` subprocess + Unix socket.

    A worker id is stable for the whole campaign; each (re)start is a
    new *incarnation* with its own socket and ready file
    (``worker-0.sock``, then ``worker-0.r1.sock``, ...), so a respawn
    can never race the dead process's stale paths.  ``connect`` dials
    ``client_socket_path`` — normally the worker's own socket, but the
    chaos harness repoints it at a fault-injecting proxy while the
    supervision plane keeps probing ``socket_path`` directly.
    """

    def __init__(
        self,
        worker_id: str,
        runtime_dir: Path,
        jobs: int = 1,
        env: Optional[Dict[str, str]] = None,
        submit_timeout: float = 300.0,
    ) -> None:
        self.worker_id = worker_id
        self.runtime_dir = Path(runtime_dir)
        self.jobs = jobs
        self.env = dict(os.environ if env is None else env)
        self.submit_timeout = submit_timeout
        self.instance = 0
        self.process: Optional[subprocess.Popen] = None
        self._set_paths()

    def _set_paths(self) -> None:
        suffix = f".r{self.instance}" if self.instance else ""
        self.socket_path = str(
            self.runtime_dir / f"{self.worker_id}{suffix}.sock"
        )
        self.ready_path = self.runtime_dir / f"{self.worker_id}{suffix}.ready"
        #: Where :meth:`connect` actually dials (chaos proxies repoint).
        self.client_socket_path = self.socket_path
        #: True once this incarnation's ready file appeared.  The
        #: heartbeat monitor must not start a staleness clock on a
        #: worker that is still booting (interpreter start can exceed
        #: stale_after on a loaded machine) — probing begins here.
        self.ready = False

    def start(self) -> None:
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        self.ready_path.unlink(missing_ok=True)
        Path(self.socket_path).unlink(missing_ok=True)
        start_timeout = worker_start_timeout()
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.harness",
                "serve",
                "--unix",
                self.socket_path,
                "--jobs",
                str(self.jobs),
                "--ready-file",
                str(self.ready_path),
            ],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + start_timeout
        while not self.ready_path.exists():
            if self.process.poll() is not None:
                raise FleetError(
                    f"worker {self.worker_id} exited "
                    f"{self.process.returncode} before becoming ready"
                )
            if time.monotonic() > deadline:
                self.process.kill()
                raise FleetError(
                    f"worker {self.worker_id} did not become ready within "
                    f"{start_timeout}s (REPRO_FLEET_START_TIMEOUT)"
                )
            time.sleep(0.01)
        self.ready = True

    def respawn(self) -> None:
        """Start the next incarnation (same id, fresh socket paths)."""
        self.kill()
        self.instance += 1
        self._set_paths()
        self.start()

    def connect(self) -> ServiceClient:
        return ServiceClient(
            self.client_socket_path, timeout=self.submit_timeout
        )

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — the fault-injection path (no graceful drain)."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()

    def stop(self) -> None:
        """Polite SIGTERM (graceful drain), escalating to kill."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=worker_stop_timeout())
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
@dataclass
class WorkerReport:
    """Per-worker tally for the run summary.

    ``died`` is sticky: a worker that died at least once keeps it even
    if a respawned incarnation finished the campaign cleanly (the
    ``deaths`` counter carries the exact number).
    """

    worker_id: str
    completed: int = 0
    duplicates: int = 0
    died: bool = False
    deaths: int = 0
    respawns: int = 0


@dataclass
class FleetRunSummary:
    """What one :meth:`FleetDispatcher.run` did."""

    experiment_id: str
    units_total: int
    units_recorded: int
    duplicates: int
    redispatches: int
    worker_deaths: int
    elapsed_s: float
    hangs: int = 0
    respawns: int = 0
    workers: List[WorkerReport] = field(default_factory=list)

    def to_payload(self) -> Dict[str, object]:
        return asdict(self)


class FleetDispatcher:
    """Drive one campaign across many service workers into a FleetDB."""

    def __init__(
        self,
        campaign: CampaignSpec,
        db: FleetDB,
        workers: int = 2,
        experiment_id: Optional[str] = None,
        runtime_dir: Optional[Path] = None,
        worker_env: Optional[Dict[str, str]] = None,
        on_record: Optional[Callable[[str, str], None]] = None,
        supervision: Optional[SupervisionConfig] = None,
        on_worker_start: Optional[Callable[[ServiceWorker], None]] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.campaign = campaign.validate()
        self.db = db
        self.workers = workers
        self.experiment_id = experiment_id or campaign.name
        self.runtime_dir = runtime_dir
        self.worker_env = worker_env
        #: ``on_record(worker_id, unit_key)`` fires after every db
        #: record — the integration tests' kill-injection hook.
        self.on_record = on_record
        #: Heartbeats and respawn; off unless the caller opts in.
        self.supervision = supervision or SupervisionConfig()
        #: ``on_worker_start(worker)`` fires after every incarnation
        #: becomes ready (initial start *and* respawns) — the chaos
        #: harness uses it to stand up a wire proxy per incarnation.
        self.on_worker_start = on_worker_start
        #: Live handles, keyed by worker id (kill-injection surface).
        self.worker_handles: Dict[str, ServiceWorker] = {}
        #: Everything the supervision plane observed this run (source:
        #: the worker id); the chaos harness passes its own log.
        self.events = events if events is not None else EventLog()
        self._respawns_left = self.supervision.respawn_budget
        self._respawn_lock = threading.Lock()
        self._monitor: Optional[HeartbeatMonitor] = None

    # ------------------------------------------------------------------
    def run(self) -> FleetRunSummary:
        started = time.monotonic()
        units = expand_units(self.campaign)
        self.db.open_experiment(
            self.experiment_id,
            self.campaign.to_payload(),
            git_hash=current_git_hash(),
        )
        # Resume support: anything a previous run of this experiment
        # already recorded (digest-verified) is not re-dispatched.  A
        # row whose key the expansion no longer yields was computed by
        # other simulator sources: it is moved aside, and its unit runs.
        self.db.quarantine_stale(
            self.experiment_id, {unit.key for unit in units}
        )
        already = set(self.db.unit_keys(self.experiment_id))
        todo = [unit for unit in units if unit.key not in already]

        if self.workers <= 0:
            reports = [self._run_inline(todo)]
            ledger = None
        else:
            ledger, reports = self._run_distributed(todo)

        missing = [
            unit.key
            for unit in units
            if self.db.load_unit(self.experiment_id, unit.key) is None
        ]
        if missing:
            raise FleetError(
                f"fleet run incomplete: {len(missing)} of {len(units)} "
                f"units missing from the database ({missing[:4]}...)"
            )
        self.db.finish_experiment(self.experiment_id)
        status = self.db.status(self.experiment_id)
        return FleetRunSummary(
            experiment_id=self.experiment_id,
            units_total=len(units),
            units_recorded=int(status["units"]),
            duplicates=int(status["duplicates"]),
            redispatches=ledger.redispatches if ledger else 0,
            worker_deaths=sum(1 for r in reports if r.died),
            elapsed_s=time.monotonic() - started,
            hangs=self._monitor.hangs if self._monitor else 0,
            respawns=sum(r.respawns for r in reports),
            workers=reports,
        )

    # -- inline (workers == 0) -------------------------------------------
    def _run_inline(self, todo: Sequence[FleetUnit]) -> WorkerReport:
        """No subprocesses: run the units in order, recording each."""
        report = WorkerReport(worker_id="inline")
        cache = TraceCache()
        previous = time.monotonic()
        for unit in todo:
            result = execute_unit(spec_to_run_unit(unit.spec), cache)
            landed = time.monotonic()
            status = self.db.record_unit(
                self.experiment_id,
                unit.key,
                dict(unit.spec.to_wire()),
                result_payload(result),
                worker_id="inline",
                elapsed_s=landed - previous,
            )
            previous = landed
            report.completed += 1
            if status == "duplicate":
                report.duplicates += 1
            if self.on_record is not None:
                self.on_record("inline", unit.key)
        return report

    # -- distributed -----------------------------------------------------
    def _run_distributed(
        self, todo: Sequence[FleetUnit]
    ) -> Tuple[UnitLedger, List[WorkerReport]]:
        ledger = UnitLedger(todo)
        runtime = (
            Path(self.runtime_dir)
            if self.runtime_dir is not None
            else Path(tempfile.mkdtemp(prefix="repro-fleet-"))
        )
        handles = [
            ServiceWorker(f"worker-{index}", runtime, env=self.worker_env)
            for index in range(self.workers)
        ]
        reports = [WorkerReport(worker_id=h.worker_id) for h in handles]
        logger.info(
            "fleet timeouts: start=%.1fs (REPRO_FLEET_START_TIMEOUT) "
            "stop=%.1fs (REPRO_FLEET_STOP_TIMEOUT)",
            worker_start_timeout(),
            worker_stop_timeout(),
        )
        if self.supervision.heartbeat_enabled:
            logger.info(
                "fleet supervision: heartbeat=%.2fs stale-after=%.2fs "
                "respawn-budget=%d (--heartbeat / --stale-after / "
                "--respawns)",
                self.supervision.heartbeat_interval,
                self.supervision.effective_stale_after,
                self.supervision.respawn_budget,
            )
        for handle in handles:
            handle.start()
            self.worker_handles[handle.worker_id] = handle
            self.events.record(
                handle.worker_id, "worker-start", detail="incarnation 0"
            )
            if self.on_worker_start is not None:
                self.on_worker_start(handle)

        if self.supervision.heartbeat_enabled:
            self._monitor = HeartbeatMonitor(
                workers=lambda: list(self.worker_handles.values()),
                config=self.supervision,
                events=self.events,
                on_stale=self._kill_stale_worker,
            )
            self._monitor.start()

        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(handle, ledger, report),
                name=f"fleet-{handle.worker_id}",
                daemon=True,
            )
            for handle, report in zip(handles, reports)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if ledger.failure is not None:
                raise ledger.failure
            if ledger.outstanding() and all(r.died for r in reports):
                raise FleetError(
                    "every fleet worker died; "
                    f"{ledger.outstanding()} units outstanding"
                )
        finally:
            if self._monitor is not None:
                self._monitor.stop()
            for handle in handles:
                handle.stop()
        return ledger, reports

    def _kill_stale_worker(self, worker: ServiceWorker) -> None:
        """Heartbeat verdict: the worker is hung — kill it.

        The blocked submit in its driver thread then fails fast, which
        routes the hang through the ordinary death path (requeue,
        respawn) with no special casing.
        """
        logger.warning(
            "fleet worker %s hung (stale heartbeat); killing",
            worker.worker_id,
        )
        worker.kill()

    def _worker_loop(
        self,
        worker: ServiceWorker,
        ledger: UnitLedger,
        report: WorkerReport,
    ) -> None:
        """Drive ``worker`` incarnations until the campaign drains.

        Each incarnation runs in :meth:`_drive_worker`; a death hands
        its claims back to the ledger and — budget permitting —
        respawns a replacement incarnation for this same thread to keep
        driving.  Any other error aborts the ledger.
        """
        try:
            while True:
                death = self._drive_worker(worker, ledger, report)
                if death is None:
                    return
                report.died = True
                report.deaths += 1
                ledger.requeue(worker.worker_id)
                self.events.record(
                    worker.worker_id, "worker-death",
                    detail=f"incarnation {worker.instance}: {death}",
                )
                if ledger.failure is not None:
                    return
                if not self._try_respawn(worker, report):
                    return
        except Exception as exc:
            ledger.abort(exc)

    def _try_respawn(self, worker: ServiceWorker, report: WorkerReport) -> bool:
        """Respawn ``worker`` if the fleet-wide budget allows."""
        with self._respawn_lock:
            if self._respawns_left <= 0:
                if self.supervision.respawn_budget:
                    self.events.record(
                        worker.worker_id, "respawn-exhausted",
                        detail=f"budget {self.supervision.respawn_budget} "
                        "spent",
                    )
                return False
            self._respawns_left -= 1
        try:
            worker.respawn()
        except FleetError as exc:
            self.events.record(
                worker.worker_id, "worker-death",
                detail=f"respawn failed: {exc}",
            )
            return False
        report.respawns += 1
        self.worker_handles[worker.worker_id] = worker
        self.events.record(
            worker.worker_id, "worker-respawn",
            detail=f"incarnation {worker.instance}",
        )
        if self.on_worker_start is not None:
            self.on_worker_start(worker)
        return True

    def _drive_worker(
        self,
        worker: ServiceWorker,
        ledger: UnitLedger,
        report: WorkerReport,
    ) -> Optional[str]:
        """Drive one incarnation; None = clean drain, str = death reason.

        An error that is not the worker's death raises
        :class:`FleetError` naming the unit it hit.
        """
        try:
            client = worker.connect()
        except (OSError, ProtocolError) as exc:
            # OSError: dial refused / reset.  ProtocolError: the hello
            # frame arrived garbled (chaos wire) — same verdict.
            return f"connect failed: {type(exc).__name__}: {exc}"
        client.on_retry = lambda attempt, exc: self.events.record(
            worker.worker_id, "client-retry",
            detail=f"attempt {attempt}: {type(exc).__name__}",
        )
        try:
            while True:
                unit = ledger.claim(worker.worker_id)
                if unit is None:
                    return None
                submit_started = time.monotonic()
                try:
                    frame = client.submit(unit.spec)
                except (ConnectionError, ServiceError, OSError, ValueError) \
                        as exc:
                    # The worker died (or refused) mid-unit: hand the
                    # claim back for the survivors and bow out.
                    return f"{type(exc).__name__}: {exc}"
                try:
                    status = self.db.record_unit(
                        self.experiment_id,
                        unit.key,
                        dict(unit.spec.to_wire()),
                        dict(frame["payload"]),
                        worker_id=worker.worker_id,
                        elapsed_s=time.monotonic() - submit_started,
                    )
                    ledger.complete(unit.key, worker.worker_id)
                    report.completed += 1
                    if status == "duplicate":
                        report.duplicates += 1
                    if self.on_record is not None:
                        self.on_record(worker.worker_id, unit.key)
                except Exception as exc:
                    raise FleetError(
                        f"{worker.worker_id} failed on unit {unit.key}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
        finally:
            try:
                client.close()
            except Exception:
                # Best-effort teardown: the unit ledger is already
                # consistent, but a socket that will not close is worth
                # a trace in the log rather than a silent swallow.
                logger.warning(
                    "fleet worker %s: client close failed during "
                    "dispatcher teardown",
                    worker.worker_id,
                    exc_info=True,
                )


# ----------------------------------------------------------------------
# CLI: python -m repro.harness fleet {run,status,report}
# ----------------------------------------------------------------------
def _campaign_from_args(args) -> CampaignSpec:
    if args.campaign:
        return CampaignSpec.from_file(Path(args.campaign))
    overrides = parse_overrides(args.override)
    return CampaignSpec(
        name=args.name,
        workloads=tuple(w for w in args.workloads.split(",") if w),
        designs=tuple(d for d in args.designs.split(",") if d),
        seeds=tuple(int(s) for s in args.seeds.split(",") if s),
        transactions=args.transactions,
        overrides=tuple(sorted(overrides.items())),
        fault_sites=args.fault_sites,
    ).validate()


def _cmd_run(args) -> int:
    campaign = _campaign_from_args(args)
    db = FleetDB(Path(args.db) if args.db else None)
    dispatcher = FleetDispatcher(
        campaign,
        db,
        workers=args.workers,
        experiment_id=args.experiment or None,
        supervision=SupervisionConfig(
            heartbeat_interval=args.heartbeat,
            stale_after=args.stale_after,
            respawn_budget=args.respawns,
        ),
    )
    summary = dispatcher.run()
    print(
        f"[fleet] {summary.experiment_id}: {summary.units_recorded}/"
        f"{summary.units_total} units recorded in {summary.elapsed_s:.1f}s "
        f"({summary.redispatches} re-dispatches, "
        f"{summary.duplicates} duplicates, {summary.worker_deaths} worker "
        f"deaths)"
    )
    if summary.hangs or summary.respawns:
        print(
            f"[fleet] supervision: {summary.hangs} hangs detected, "
            f"{summary.respawns} respawns"
        )
    if args.json:
        print(json.dumps(summary.to_payload(), sort_keys=True))
    if args.report_dir:
        from repro.fleet.report import write_report

        for path in write_report(
            db, summary.experiment_id, Path(args.report_dir),
            baseline=args.baseline or None,
        ):
            print(f"[fleet] wrote {path}")
    return 0


def _cmd_status(args) -> int:
    db = FleetDB(Path(args.db) if args.db else None, readonly=True)
    ids = [args.experiment] if args.experiment else db.experiments()
    for experiment_id in ids:
        status = db.status(experiment_id)
        print(json.dumps(status, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    from repro.fleet.report import build_report, write_report

    db = FleetDB(Path(args.db) if args.db else None, readonly=True)
    if args.out:
        for path in write_report(
            db, args.experiment, Path(args.out), baseline=args.baseline or None
        ):
            print(f"[fleet] wrote {path}")
        return 0
    report = build_report(db, args.experiment, baseline=args.baseline or None)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness fleet",
        description="Distributed experiment fleet: dispatcher, sqlite "
        "results database, report generator (docs/fleet.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand and run a campaign")
    run.add_argument("--campaign", default=None, help="campaign JSON file")
    run.add_argument("--name", default="campaign")
    run.add_argument("--workloads", default="hashmap")
    run.add_argument(
        "--designs", default="dolos-partial,prewpq-eager",
        help="comma-separated controller designs",
    )
    run.add_argument("--seeds", default="1,2,3")
    run.add_argument("--transactions", type=int, default=60)
    run.add_argument(
        "--fault-sites", type=int, default=0,
        help="> 0 adds a fault-injection unit per matrix cell",
    )
    run.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE"
    )
    run.add_argument(
        "--workers", type=int, default=2,
        help="worker service processes (0 = inline, no subprocesses)",
    )
    run.add_argument("--experiment", default="", help="experiment id")
    run.add_argument(
        "--db", default=None,
        help=f"sqlite database path (default: ${ENV_DB_HELP})",
    )
    run.add_argument(
        "--heartbeat", type=float, default=0.0,
        help="seconds between worker health probes (default 0 = off)",
    )
    run.add_argument(
        "--stale-after", type=float, default=0.0,
        help="kill a worker silent for this many seconds "
        "(default 3x heartbeat)",
    )
    run.add_argument(
        "--respawns", type=int, default=0,
        help="fleet-wide worker respawn budget (default 0)",
    )
    run.add_argument("--json", action="store_true")
    run.add_argument(
        "--report-dir", default=None,
        help="also write report.json + report.html here",
    )
    run.add_argument("--baseline", default="", help="trend baseline id")
    run.set_defaults(fn=_cmd_run)

    status = sub.add_parser("status", help="experiment roll-up from the db")
    status.add_argument("--db", default=None)
    status.add_argument("--experiment", default="")
    status.set_defaults(fn=_cmd_status)

    rep = sub.add_parser("report", help="generate JSON/HTML report")
    rep.add_argument("--db", default=None)
    rep.add_argument("--experiment", required=True)
    rep.add_argument("--baseline", default="", help="trend baseline id")
    rep.add_argument("--out", default=None, help="output directory")
    rep.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0  # output piped into a closed reader (e.g. `| head`)
    except Exception as exc:
        print(f"fleet: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


ENV_DB_HELP = "REPRO_FLEET_DB or ~/.cache/dolos-repro/fleet.sqlite"

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
