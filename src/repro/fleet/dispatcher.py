"""The fleet dispatcher: campaign expansion and worker driving.

A declarative :class:`CampaignSpec` (configs × workloads × seeds ×
fault plans) expands into a deterministic, duplicate-free unit list
(:func:`expand_units`), each unit keyed by its job key — the unit-memo
key (:func:`repro.service.protocol.job_key`).  The
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

from repro.fleet.db import FleetDB, current_git_hash
from repro.fleet.supervisor import HeartbeatMonitor, SupervisionConfig
from repro.harness.parallel import execute_unit
from repro.harness.trace_store import ENV_DB, TraceCache
from repro.instrumentation import EventLog
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    JobSpec,
    ProtocolError,
    job_key,
    parse_overrides,
    result_payload,
    spec_to_run_unit,
)

logger = logging.getLogger(__name__)

#: Seconds to wait for a worker subprocess to write its ready file.
WORKER_START_TIMEOUT = 30.0
#: Seconds SIGTERM gets before :meth:`ServiceWorker.stop` escalates.
WORKER_STOP_TIMEOUT = 10.0
#: Socket timeout of a worker's client (one unit's submit round trip).
SUBMIT_TIMEOUT = 300.0


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
        """Campaign-level checks; every unit is validated by expanding it."""
        self.unit_specs()
        return self

    def unit_specs(self) -> List[JobSpec]:
        """Every unit's validated :class:`JobSpec`, in expansion order.

        Duplicate workloads, designs or seeds expand once.  A unit that
        :meth:`JobSpec.validate` rejects raises :class:`FleetError`.
        """
        if not self.name:
            raise FleetError("campaign needs a name")
        if not self.workloads or not self.designs or not self.seeds:
            raise FleetError(
                "campaign matrix is empty: need at least one workload, "
                "design and seed"
            )
        if self.fault_sites < 0:
            raise FleetError("fault_sites must be >= 0")
        modes: List[Dict[str, object]] = [{}]
        if self.scenario:
            modes.append({"mode": "scenario", "scenario": dict(self.scenario)})
        if self.fault_sites > 0:
            modes.append({"mode": "faults", "fault_sites": self.fault_sites})
        cells = list(
            itertools.product(
                dict.fromkeys(self.workloads),
                dict.fromkeys(self.designs),
                dict.fromkeys(self.seeds),
            )
        )
        specs = []
        for mode in modes:
            for workload, design, seed in cells:
                try:
                    specs.append(
                        JobSpec(
                            workload=workload,
                            design=design,
                            transactions=self.transactions,
                            seed=seed,
                            experiment_id=self.name,
                            overrides=dict(self.overrides),
                            **mode,
                        ).validate()
                    )
                except ProtocolError as exc:
                    raise FleetError(
                        f"invalid unit in campaign: {exc}"
                    ) from None
        return specs

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


def expand_units(campaign: CampaignSpec) -> List[FleetUnit]:
    """Expand ``campaign`` into its deterministic, duplicate-free units.

    The unit key is the job key (:func:`repro.service.protocol.job_key`,
    the unit-memo key of the job's run unit): the unit's identity plus
    the generator and simulator-source versions, so the FleetDB, the
    unit memo and the workers' wire frames agree about unit identity,
    and a row recorded by other simulator sources has a different key.
    """
    units: Dict[str, FleetUnit] = {}
    for spec in campaign.unit_specs():
        key = job_key(spec)
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
    supervision plane keeps probing ``socket_path`` directly.  Once
    started, ``endpoints`` holds what the server bound (its ready
    file): ``host`` and ``port`` of its loopback TCP listener and its
    ``unix`` socket path.
    """

    def __init__(
        self,
        worker_id: str,
        runtime_dir: Path,
        jobs: int = 1,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.runtime_dir = Path(runtime_dir)
        self.jobs = jobs
        self.env = dict(os.environ if env is None else env)
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
        self.endpoints: Dict[str, object] = {}

    def start(self) -> None:
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        self.ready_path.unlink(missing_ok=True)
        Path(self.socket_path).unlink(missing_ok=True)
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
        deadline = time.monotonic() + WORKER_START_TIMEOUT
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
                    f"{WORKER_START_TIMEOUT}s"
                )
            time.sleep(0.01)
        self.endpoints = json.loads(self.ready_path.read_text())
        self.ready = True

    def respawn(self) -> None:
        """Start the next incarnation (same id, fresh socket paths)."""
        self.kill()
        self.instance += 1
        self._set_paths()
        self.start()

    def connect(self) -> ServiceClient:
        return ServiceClient(self.client_socket_path, timeout=SUBMIT_TIMEOUT)

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
            self.process.wait(timeout=WORKER_STOP_TIMEOUT)
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
        self._redispatches = self._hangs = 0

    # ------------------------------------------------------------------
    def run(self) -> FleetRunSummary:
        """Dispatch every unit without a verified result, then check.

        The check is the same verified query: a result that fails
        verification after the ledger drained (it moved to quarantine)
        is dispatched once more before the run counts as incomplete.
        """
        started = time.monotonic()
        units = expand_units(self.campaign)
        self.db.open_experiment(
            self.experiment_id,
            self.campaign.to_payload(),
            git_hash=current_git_hash(),
        )
        # A member whose key the expansion no longer yields belongs to
        # another matrix or to other simulator sources: it is set aside.
        self.db.quarantine_stale(
            self.experiment_id, {unit.key for unit in units}
        )
        reports: List[WorkerReport] = []
        todo = self._unverified(units)
        for _ in range(2):
            if not todo:
                break
            run = self._run_inline if self.workers <= 0 else self._run_distributed
            reports += run(todo)
            todo = self._unverified(units)
        if todo:
            raise FleetError(
                f"fleet run incomplete: {len(todo)} of {len(units)} "
                f"units missing from the database "
                f"({[unit.key for unit in todo[:4]]}...)"
            )
        self.db.finish_experiment(self.experiment_id)
        status = self.db.status(self.experiment_id)
        return FleetRunSummary(
            experiment_id=self.experiment_id,
            units_total=len(units),
            units_recorded=int(status["units"]),
            duplicates=int(status["duplicates"]),
            redispatches=self._redispatches,
            worker_deaths=sum(1 for r in reports if r.died),
            elapsed_s=time.monotonic() - started,
            hangs=self._hangs,
            respawns=sum(r.respawns for r in reports),
            workers=reports,
        )

    def _unverified(self, units: Sequence[FleetUnit]) -> List[FleetUnit]:
        """The units with no verified result in this experiment."""
        verified = {row.unit_key for row in self.db.unit_rows(self.experiment_id)}
        return [unit for unit in units if unit.key not in verified]

    # -- inline (workers == 0) -------------------------------------------
    def _run_inline(self, todo: Sequence[FleetUnit]) -> List[WorkerReport]:
        """No subprocesses: run the units in order, recording each."""
        report = WorkerReport(worker_id="inline")
        cache = TraceCache()
        previous = time.monotonic()
        for unit in todo:
            result = execute_unit(spec_to_run_unit(unit.spec), cache)
            landed = time.monotonic()
            self._record(report, unit, result_payload(result), landed - previous)
            previous = landed
        return [report]

    def _record(self, report, unit, payload, elapsed_s, ledger=None) -> None:
        """Record one result, complete it, count it, fire ``on_record``."""
        status = self.db.record_unit(
            self.experiment_id,
            unit.key,
            dict(unit.spec.to_wire()),
            payload,
            worker_id=report.worker_id,
            elapsed_s=elapsed_s,
        )
        if ledger is not None:
            ledger.complete(unit.key, report.worker_id)
        report.completed += 1
        report.duplicates += status == "duplicate"
        if self.on_record is not None:
            self.on_record(report.worker_id, unit.key)

    # -- distributed -----------------------------------------------------
    def _run_distributed(self, todo: Sequence[FleetUnit]) -> List[WorkerReport]:
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
                self._hangs += self._monitor.hangs
            for handle in handles:
                handle.stop()
            self._redispatches += ledger.redispatches
        return reports

    def _kill_stale_worker(self, worker: ServiceWorker) -> None:
        """Heartbeat verdict: kill the hung worker.  Its blocked submit
        then fails fast into the ordinary death path (requeue, respawn)."""
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
                    self._record(
                        report, unit, dict(frame["payload"]),
                        time.monotonic() - submit_started, ledger,
                    )
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
def add_campaign_flags(
    parser: argparse.ArgumentParser,
    seeds: str,
    transactions: int,
    heartbeat: float,
    stale_after: float,
    respawns: int,
) -> None:
    """The matrix, worker and supervision flags of ``fleet run`` and
    ``harness chaos``; each command passes its own defaults."""
    parser.add_argument("--workloads", default="hashmap")
    parser.add_argument(
        "--designs", default="dolos-partial,prewpq-eager",
        help="comma-separated controller designs",
    )
    parser.add_argument("--seeds", default=seeds, help="unit seeds")
    parser.add_argument("--transactions", type=int, default=transactions)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker service processes (0 = inline, no subprocesses)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=heartbeat,
        help=f"seconds between worker health probes (default {heartbeat}; "
        "0 = off)",
    )
    parser.add_argument(
        "--stale-after", type=float, default=stale_after,
        help="kill a worker silent for this many seconds "
        f"(default {stale_after}; 0 = 3x heartbeat)",
    )
    parser.add_argument(
        "--respawns", type=int, default=respawns,
        help=f"fleet-wide worker respawn budget (default {respawns})",
    )


def campaign_from_flags(args, name: str, **fields) -> CampaignSpec:
    """The :class:`CampaignSpec` the :func:`add_campaign_flags` flags name."""
    return CampaignSpec(
        name=name,
        workloads=tuple(w for w in args.workloads.split(",") if w),
        designs=tuple(d for d in args.designs.split(",") if d),
        seeds=tuple(int(s) for s in args.seeds.split(",") if s),
        transactions=args.transactions,
        **fields,
    ).validate()


def supervision_from_flags(args) -> SupervisionConfig:
    return SupervisionConfig(
        heartbeat_interval=args.heartbeat,
        stale_after=args.stale_after,
        respawn_budget=args.respawns,
    )


def _cmd_run(args) -> int:
    if args.campaign:
        campaign = CampaignSpec.from_file(Path(args.campaign))
    else:
        overrides = parse_overrides(args.override)
        campaign = campaign_from_flags(
            args,
            args.name,
            overrides=tuple(sorted(overrides.items())),
            fault_sites=args.fault_sites,
        )
    if args.db:
        # The campaign's database is also its workers' default memo.
        os.environ[ENV_DB] = args.db
    db = FleetDB()
    dispatcher = FleetDispatcher(
        campaign,
        db,
        workers=args.workers,
        experiment_id=args.experiment or None,
        supervision=supervision_from_flags(args),
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
    add_campaign_flags(
        run, seeds="1,2,3", transactions=60,
        heartbeat=0.0, stale_after=0.0, respawns=0,
    )
    run.add_argument(
        "--fault-sites", type=int, default=0,
        help="> 0 adds a fault-injection unit per matrix cell",
    )
    run.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE"
    )
    run.add_argument("--experiment", default="", help="experiment id")
    run.add_argument(
        "--db", default=None,
        help="sqlite database path (default: $REPRO_FLEET_DB or "
        "~/.cache/dolos-repro/fleet.sqlite)",
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
