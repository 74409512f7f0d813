"""The benchmark's four workloads.

Each workload runs in *rounds*; a round starts from empty caches and is
the smallest piece of work whose figures mean something on their own (a
whole Fig 12 sweep, a pair of server lifetimes, a whole fleet campaign).
A run repeats rounds until its time is up.  Every round's inputs come
from the run's seed alone, so the same seed gives the same inputs, and
every round of a run runs the same operations: the timed metrics use
each operation's fastest time across the rounds (see ``Pass.best``).

What the workloads stress, and why both sweeps exist:

* ``sweep-write`` is the paper's headline (Fig 12).  Its cost is the
  per-write chain controller -> WPQ -> Mi-SU -> Ma-SU -> NVM.
* ``sweep-read`` drives the same model layers the other way round: 100
  writes against ~6.1k reads.  A write-path optimisation should leave
  it unchanged; it also covers Triad-NVM and write-through counters.
* ``service-resubmit`` wraps the simulation in the protocol, the
  scheduler's batch window and the server's dedup and result caches.
* ``fleet-campaign`` is the only one through the dispatcher, the FleetDB
  and the fault/oracle/recovery layers.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fleet.db import FleetDB
from repro.fleet.dispatcher import (
    CampaignSpec,
    FleetDispatcher,
    ServiceWorker,
    expand_units,
    spec_to_run_unit,
)
from repro.fleet.report import build_report, render_html
from repro.harness import parallel
from repro.harness.experiments import run_experiment
from repro.harness.parallel import RecordingExecutor, RunUnit, executor_scope
from repro.harness.trace_store import TraceCache
from repro.matrix import controller_matrix
from repro.service.client import ServiceError
from repro.service.protocol import JobSpec, job_key

import hostspeed
from checks import Checker, digest_of, unit_label

SWEEP_WRITE_TRANSACTIONS = 60
SWEEP_READ_TRANSACTIONS = 100
SERVICE_TRANSACTIONS = 40
FLEET_TRANSACTIONS = 40

#: Fig 12 mean speedups over Pre-WPQ reported by the paper.
PAPER_FIG12 = {
    "mean Full-WPQ-MiSU": 1.66,
    "mean Partial-WPQ-MiSU": 1.66,
    "mean Post-WPQ-MiSU": 1.59,
}

SERVICE_WORKLOADS = ("hashmap", "redis")
SERVICE_DESIGNS = ("dolos-full", "dolos-partial", "prewpq-eager", "eadr")
#: Jobs of lifetime one that are sent twice in it and replayed after the
#: restart.  With 16 jobs a round makes 16 cold, 4 deduplicated and 4
#: replayed requests, so the median and the 90th percentile round trip
#: both fall among the cold jobs: sub-millisecond round trips spread too
#: much from run to run to bound (their medians are per-layer metrics).
SERVICE_REPEATED = 4

FLEET_WORKLOADS = ("hashmap", "btree")
FLEET_DESIGNS = ("dolos-partial", "prewpq-eager", "dolos-full")
FLEET_FAULT_SITES = 2

#: Setup of the sweeps: what a fresh process imports and builds before
#: its first unit can run.
SWEEP_SETUP = (
    "import repro.harness.experiments\n"
    "from repro.harness.trace_store import TraceCache\n"
    "from repro.matrix import controller_matrix\n"
    "controller_matrix(); TraceCache()\n"
)


@dataclass
class Context:
    """Per-run state shared by the workloads."""

    seed: int
    checker: Checker
    #: The run's scratch directory, relative to the checkout root.
    work: Path
    #: Environment of every subprocess (servers, fleet workers, setup).
    server_env: Dict[str, str]
    #: Direct ``execute_unit`` of each unit, by label: (digest, seconds).
    direct: Dict[str, Tuple[str, float]] = field(default_factory=dict)

    @property
    def runtime(self) -> Path:
        """Socket directory; relative, so socket paths stay short."""
        return self.work / "rt"

    def fresh(self, name: str) -> None:
        """Empty one cache directory under the scratch directory."""
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)

    def direct_run(self, unit: RunUnit) -> Tuple[str, float]:
        """Digest and host time of ``unit`` run in-process, once per run.

        A memory-only trace cache keeps the run independent of the
        caches the measured path filled.
        """
        label = unit_label(unit)
        if label not in self.direct:
            started = time.perf_counter()
            result = parallel.execute_unit(unit, TraceCache(None))
            self.direct[label] = (digest_of(result), time.perf_counter() - started)
        return self.direct[label]


@dataclass
class Pass:
    """What one measured stretch of rounds produced."""

    rounds: int = 0
    #: Host seconds of the rounds, setup excluded.
    wall: float = 0.0
    #: ``wall`` split by round.
    round_walls: List[float] = field(default_factory=list)
    #: Host seconds of each operation (unit, request or campaign unit).
    op_seconds: List[float] = field(default_factory=list)
    #: Fastest host seconds of each operation across the rounds, by the
    #: operation's key; every round runs the same operations.
    best: Dict[object, float] = field(default_factory=dict)
    #: Fastest host seconds of each step of a round that is not an
    #: operation but counts towards its throughput (the fleet report).
    best_steps: Dict[str, float] = field(default_factory=dict)
    #: Simulated instructions of the results the operations returned.
    instructions: int = 0
    #: ``instructions`` split by round.
    round_instructions: List[int] = field(default_factory=list)
    #: Whether a host-speed probe runs after every operation.
    probing: bool = True
    #: Host seconds of each of those probes.
    probes: List[float] = field(default_factory=list)
    #: Host seconds the probes took; ``measure`` takes them out of ``wall``.
    probe_wall: float = 0.0
    #: Per-layer metrics this workload owns, measured untraced.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific raw samples behind ``layer``.
    samples: Dict[str, list] = field(default_factory=dict)

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, key, seconds: float) -> None:
        """Record one operation of the current round, then probe the host.

        Probing right after each operation samples the host at the
        moments the operations ran.
        """
        self.op_seconds.append(seconds)
        self.best[key] = min(seconds, self.best.get(key, seconds))
        if self.probing:
            started = time.perf_counter()
            self.probes.extend(hostspeed.sample())
            self.probe_wall += time.perf_counter() - started

    def step(self, name: str, seconds: float) -> None:
        """Record a timed step of the round that is not an operation."""
        self.best_steps[name] = min(seconds, self.best_steps.get(name, seconds))


def median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


class _TimedUnits:
    """Record/replay executor that times each sweep unit.

    ``run_experiment`` hands every unit to the installed executor; this
    one runs it exactly as the serial path does (``execute_unit``
    through the trace cache and unit memo).  Results are checked by
    :meth:`check`, after the sweep's wall time has been taken.
    """

    def __init__(self, out: Pass) -> None:
        self.out = out
        self.cache = TraceCache()
        self.results = []

    def run(self, unit: RunUnit):
        started = time.perf_counter()
        result = parallel.execute_unit(unit, self.cache)
        self.out.op(unit_label(unit), time.perf_counter() - started)
        self.out.instructions += result.instructions
        self.results.append((unit, result))
        return result

    def check(self, checker: Checker) -> None:
        for unit, result in self.results:
            checker.check(unit_label(unit), result, unit.transactions)


def fig12_error_pct(summary: Dict[str, float]) -> float:
    """Mean |measured - paper| / paper over the three Fig 12 means, in %."""
    return 100.0 * statistics.fmean(
        abs(summary[key] - paper) / paper for key, paper in PAPER_FIG12.items()
    )


def sweep_setup(ctx: Context) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SWEEP_SETUP], env=ctx.server_env, check=True
    )
    return time.perf_counter() - started


def worker_setup(ctx: Context, with_db: bool) -> float:
    """Start a ``harness serve --jobs 1`` worker until its ready file."""
    ctx.fresh("server")
    started = time.perf_counter()
    if with_db:
        FleetDB(ctx.work / "server" / "setup.sqlite").close()
    worker = ServiceWorker("setup", ctx.runtime, jobs=1, env=ctx.server_env)
    try:
        worker.start()
        return time.perf_counter() - started
    finally:
        worker.stop()


class SweepWrite:
    name = "sweep-write"

    def setup(self, ctx: Context) -> float:
        return sweep_setup(ctx)

    def units(self, seed: int) -> List[RunUnit]:
        recorder = RecordingExecutor()
        with executor_scope(recorder):
            run_experiment(
                "fig12", jobs=1, transactions=SWEEP_WRITE_TRANSACTIONS,
                seed=seed,
            )
        return recorder.units

    def round(self, ctx: Context, out: Pass) -> None:
        ctx.fresh("local")
        timer = _TimedUnits(out)
        started = time.perf_counter()
        with executor_scope(timer):
            result = run_experiment(
                "fig12", jobs=1, transactions=SWEEP_WRITE_TRANSACTIONS,
                seed=ctx.seed,
            )
        out.wall += time.perf_counter() - started
        timer.check(ctx.checker)
        out.sample("fig12_err_pct", fig12_error_pct(result.summary))

    def finish(self, ctx: Context, out: Pass) -> None:
        _sweep_overhead(out)
        out.layer["fig12_err_pct"] = statistics.median(out.samples["fig12_err_pct"])


class SweepRead:
    name = "sweep-read"

    def setup(self, ctx: Context) -> float:
        return sweep_setup(ctx)

    def units(self, seed: int) -> List[RunUnit]:
        return [
            RunUnit("read-heavy", config, SWEEP_READ_TRANSACTIONS, seed)
            for config in controller_matrix().values()
        ]

    def round(self, ctx: Context, out: Pass) -> None:
        ctx.fresh("local")
        timer = _TimedUnits(out)
        started = time.perf_counter()
        for unit in self.units(ctx.seed):
            timer.run(unit)
        out.wall += time.perf_counter() - started
        timer.check(ctx.checker)

    def finish(self, ctx: Context, out: Pass) -> None:
        _sweep_overhead(out)


def _sweep_overhead(out: Pass) -> None:
    """Sweep wall time not spent inside units, as a share of it."""
    out.layer["experiments.overhead_pct"] = (
        100.0 * (out.wall - sum(out.op_seconds)) / out.wall
    )


class ServiceResubmit:
    """A closed-loop client over two server lifetimes per round.

    Lifetime one sees half the jobs: each first request is simulated
    (cold); :data:`SERVICE_REPEATED` of them are sent again and hit the
    server's in-memory dedup.  After a restart on the same caches,
    lifetime two replays those jobs from the ResultStore and runs the
    other half cold.
    """

    name = "service-resubmit"

    def setup(self, ctx: Context) -> float:
        return worker_setup(ctx, with_db=False)

    def specs(self, seed: int) -> List[JobSpec]:
        return [
            JobSpec(
                workload=workload, design=design,
                transactions=SERVICE_TRANSACTIONS, seed=job_seed,
            ).validate()
            for workload in SERVICE_WORKLOADS
            for design in SERVICE_DESIGNS
            for job_seed in (seed, seed + 1)
        ]

    def units(self, seed: int) -> List[RunUnit]:
        return [spec_to_run_unit(spec) for spec in self.specs(seed)]

    def round(self, ctx: Context, out: Pass) -> None:
        # Every round sends the same stream, so each request has a
        # fastest time across the rounds.
        rng = random.Random(f"{ctx.seed}")
        specs = self.specs(ctx.seed)
        rng.shuffle(specs)
        half = len(specs) // 2
        first, second = specs[:half], specs[half:]
        repeated = first[:SERVICE_REPEATED]
        ctx.fresh("server")
        stream = [(spec, "cold") for spec in first + repeated]
        rng.shuffle(stream)
        self._lifetime(ctx, out, 0, stream)
        stream = [(spec, "replay") for spec in repeated] + [(spec, "cold") for spec in second]
        rng.shuffle(stream)
        self._lifetime(ctx, out, 1, stream)

    def _lifetime(self, ctx: Context, out: Pass, lifetime: int, stream) -> None:
        """Serve ``stream``; a job's repeats after its first request are dedup hits."""
        requests = []
        seen = set()
        for spec, kind in stream:
            key = job_key(spec)
            requests.append((spec, "dedup" if key in seen else kind, spec_to_run_unit(spec)))
            seen.add(key)
        worker = ServiceWorker("svc", ctx.runtime, jobs=1, env=ctx.server_env)
        client = None
        worker.start()
        try:
            client = worker.connect()
            started = time.perf_counter()
            for index, (spec, kind, unit) in enumerate(requests):
                self._request(ctx, out, client, (lifetime, index), spec, kind, unit)
            out.wall += time.perf_counter() - started
            stats = client.stats()
        finally:
            # Stop the server while the client is still connected: a
            # session that has just said ``bye`` can hold up the
            # server's drain until the stop timeout kills it.
            worker.stop()
            if client is not None:
                client.close()
        out.sample("submitted", stats["submitted"])
        out.sample("dedup_hits", stats["dedup_hits"])
        out.sample("result_store_hits", stats["result_store_hits"])

    def _request(self, ctx, out: Pass, client, key, spec: JobSpec, kind: str, unit) -> None:
        started = time.perf_counter()
        try:
            frame = client.submit(spec)
        except (ServiceError, OSError) as exc:
            ctx.checker.fail(unit_label(unit), f"{type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - started
        out.op(key, elapsed)
        out.sample(kind, (unit, elapsed))
        payload = frame["payload"]
        out.instructions += payload["instructions"]
        if frame["cached"] != (kind == "replay") and kind != "dedup":
            ctx.checker.fail(
                unit_label(unit), f"{kind} request came back cached={frame['cached']}"
            )
            return
        out.sample("results", (unit, payload))

    def finish(self, ctx: Context, out: Pass) -> None:
        for unit, payload in out.samples.get("results", []):
            digest, _ = ctx.direct_run(unit)
            ctx.checker.check(unit_label(unit), payload, unit.transactions, digest)
        for kind in ("cold", "dedup", "replay"):
            out.layer[f"service.rtt_ms_p50.{kind}"] = median_ms(
                [seconds for _, seconds in out.samples.get(kind, [])]
            )
        out.layer["service.wait_ms_cold"] = median_ms(
            [
                seconds - ctx.direct_run(unit)[1]
                for unit, seconds in out.samples.get("cold", [])
            ]
        )
        submitted = sum(out.samples["submitted"])
        out.layer["service.dedup_hit_ratio"] = sum(out.samples["dedup_hits"]) / submitted
        out.layer["service.result_store_hit_ratio"] = (
            sum(out.samples["result_store_hits"]) / submitted
        )


class FleetCampaign:
    """``fleet run --workers 1`` with fault units, then its report."""

    name = "fleet-campaign"

    def setup(self, ctx: Context) -> float:
        return worker_setup(ctx, with_db=True)

    def campaign(self, seed: int, name: str = "perfbench") -> CampaignSpec:
        return CampaignSpec(
            name=name,
            workloads=FLEET_WORKLOADS,
            designs=FLEET_DESIGNS,
            seeds=(seed,),
            transactions=FLEET_TRANSACTIONS,
            fault_sites=FLEET_FAULT_SITES,
        )

    def units(self, seed: int) -> List[RunUnit]:
        return [spec_to_run_unit(unit.spec) for unit in expand_units(self.campaign(seed))]

    def round(self, ctx: Context, out: Pass) -> None:
        ctx.fresh("server")
        db = FleetDB(ctx.work / "server" / "fleet.sqlite")
        # A unit's time runs from the previous record (or the worker's
        # start) to its own; the dispatcher waits while ``out.op`` probes.
        marks: List[float] = []

        def recorded(_worker, key: str) -> None:
            out.op(key, time.perf_counter() - marks[-1])
            marks.append(time.perf_counter())

        probed = out.probe_wall
        dispatcher = FleetDispatcher(
            self.campaign(ctx.seed, name=f"perfbench-{out.rounds}"),
            db,
            workers=1,
            runtime_dir=ctx.runtime,
            worker_env=ctx.server_env,
            on_record=recorded,
            on_worker_start=lambda _worker: marks.append(time.perf_counter()),
        )
        try:
            started = time.perf_counter()
            summary = dispatcher.run()
            finished = time.perf_counter()
            report = build_report(db, summary.experiment_id)
            render_html(report)
            reported = time.perf_counter()
            rows = db.unit_rows(summary.experiment_id)
            loaded = time.perf_counter()
        finally:
            db.close()
        # The campaign ends with its last recorded unit: stopping the
        # worker afterwards can stall in the server's drain (see
        # ``configure_environment``), which is not campaign work.
        probed = out.probe_wall - probed
        out.wall += marks[-1] - marks[0] + reported - finished
        out.step("report", reported - finished)
        campaign_s = marks[-1] - started - probed
        out.sample(
            "overhead_pct",
            100.0 * (campaign_s - sum(row.elapsed_s for row in rows)) / campaign_s,
        )
        out.sample("report_s", reported - finished)
        out.sample("db_load_s", loaded - reported)
        expected = {unit_label(unit) for unit in self.units(ctx.seed)}
        for row in rows:
            unit = spec_to_run_unit(JobSpec.from_wire(row.spec))
            expected.discard(unit_label(unit))
            out.instructions += row.payload.get("instructions", 0)
            out.sample("results", (unit, row.payload))
        for label in sorted(expected):
            ctx.checker.fail(label, "unit missing from the FleetDB")

    def finish(self, ctx: Context, out: Pass) -> None:
        for unit, payload in out.samples.get("results", []):
            digest, _ = ctx.direct_run(unit)
            ctx.checker.check(unit_label(unit), payload, unit.transactions, digest)
        out.layer["fleet.overhead_pct"] = statistics.median(out.samples["overhead_pct"])
        out.layer["fleet.report_ms"] = median_ms(out.samples["report_s"])
        out.layer["fleet.db.load_ms"] = median_ms(out.samples["db_load_s"])
        out.layer["faults.unit_ms_p50"] = median_ms(
            [
                seconds
                for label, (_, seconds) in ctx.direct.items()
                if label.endswith(f"/faults{FLEET_FAULT_SITES}")
            ]
        )


WORKLOADS = {
    workload.name: workload
    for workload in (SweepWrite(), SweepRead(), ServiceResubmit(), FleetCampaign())
}


def measure(
    workload, ctx: Context, seconds: float = 0.0, rounds: Optional[int] = None,
    probe: bool = True,
) -> Pass:
    """Run whole rounds until ``seconds`` have passed, or exactly ``rounds``.

    With ``probe``, the host-speed probe runs after every operation.
    """
    out = Pass(probing=probe)
    started = time.perf_counter()
    while (
        out.rounds < rounds
        if rounds is not None
        else out.rounds == 0 or time.perf_counter() - started < seconds
    ):
        before, instructions, ops = out.wall, out.instructions, len(out.best)
        probed = out.probe_wall
        workload.round(ctx, out)
        out.wall -= out.probe_wall - probed
        out.round_walls.append(out.wall - before)
        out.round_instructions.append(out.instructions - instructions)
        if out.rounds and len(out.best) != ops:
            raise RuntimeError(f"round {out.rounds} ran operations the first round did not")
        out.rounds += 1
    workload.finish(ctx, out)
    return out
