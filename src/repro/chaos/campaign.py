"""Chaos campaigns: run the fleet under fault schedules, prove zero loss.

``python -m repro.harness chaos`` drives one :class:`CampaignSpec`
through the fleet dispatcher N times, each under a different seeded
:class:`ChaosPlan` (wire, process, and storage faults), and checks the
**zero-loss invariant** against a calm baseline run first inline with
no faults:

* every expanded unit is recorded **exactly once** in the FleetDB;
* every recorded digest is **bit-identical** to the calm baseline's;
* sqlite's own ``integrity_check`` passes on a fresh reopen (after the
  torn-WAL and killed-writer storage drills);
* every fault that fired is classified — *tolerated* (absorbed with no
  recovery machinery), *recovered* (supervision or client retries had
  to act), or *degraded* (the respawn budget ran out, but the campaign
  still completed).  A fault that fired while any invariant broke is
  *silent* — and any silent fault fails the campaign.

The orchestrator, the proxies, the storage drills and the dispatcher's
supervision plane all record into one
:class:`~repro.instrumentation.EventLog`, and classification reads that
one time-ordered list.  It is mechanical, not judged: a fault is
*silent* only when an invariant violation proves data was actually
lost or corrupted; *recovered* requires matching supervision evidence
(worker-death / respawn / hang-detected / client-retry for the fault's
worker at or after the injection); *degraded* requires
respawn-exhaustion evidence.  Faults whose trigger never arrived (e.g.
frame 4 of a wire that only carried 3) are reported *unreached* and
excluded from the tally.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chaos.orchestrator import ChaosOrchestrator
from repro.chaos.plan import ChaosFault, ChaosPlan, injections, record_injection
from repro.fleet.db import FleetDB
from repro.fleet.dispatcher import (
    CampaignSpec,
    FleetDispatcher,
    FleetError,
    expand_units,
)
from repro.fleet.supervisor import SupervisionConfig
from repro.instrumentation import EventLog

__all__ = [
    "ChaosCampaignConfig",
    "run_chaos_campaign",
    "check_invariants",
    "classify_faults",
    "main",
]

#: Supervision evidence that means "the fleet had to act to recover".
RECOVERY_KINDS = frozenset(
    {"worker-death", "worker-respawn", "hang-detected", "client-retry"}
)
#: Evidence that capacity was permanently lost (campaign still done).
DEGRADED_KINDS = frozenset({"respawn-exhausted"})


@dataclass(frozen=True)
class ChaosCampaignConfig:
    """One chaos campaign: the experiment matrix plus the chaos knobs."""

    name: str = "chaos"
    workloads: Tuple[str, ...] = ("hashmap",)
    designs: Tuple[str, ...] = ("dolos-partial", "prewpq-eager")
    unit_seeds: Tuple[int, ...] = (1, 2)
    transactions: int = 8
    chaos_seeds: Tuple[int, ...] = (1, 2, 3)
    workers: int = 2
    #: Supervision under chaos (always on — a chaos run without hang
    #: detection would wait out every SIGSTOP on the submit timeout).
    heartbeat: float = 0.1
    stale_after: float = 0.5
    respawns: int = 4
    wire_faults: int = 3
    process_faults: int = 2
    storage_faults: int = 2

    def campaign_spec(self) -> CampaignSpec:
        return CampaignSpec(
            name=self.name,
            workloads=self.workloads,
            designs=self.designs,
            seeds=self.unit_seeds,
            transactions=self.transactions,
        ).validate()

    def supervision(self) -> SupervisionConfig:
        return SupervisionConfig(
            heartbeat_interval=self.heartbeat,
            stale_after=self.stale_after,
            respawn_budget=self.respawns,
        )


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
def check_invariants(
    db: FleetDB,
    experiment_id: str,
    expected_keys: Set[str],
    calm_digests: Dict[str, str],
) -> List[str]:
    """Zero-loss checks; returns human-readable violations (empty = ok)."""
    violations: List[str] = []
    integrity = db.integrity_check()
    if integrity != "ok":
        violations.append(f"sqlite integrity_check: {integrity}")
    rows = {row.unit_key: row for row in db.unit_rows(experiment_id)}
    missing = sorted(expected_keys - set(rows))
    extra = sorted(set(rows) - expected_keys)
    if missing:
        violations.append(
            f"{len(missing)} unit(s) lost: {missing[:3]}"
            + ("..." if len(missing) > 3 else "")
        )
    if extra:
        violations.append(f"{len(extra)} phantom unit(s): {extra[:3]}")
    for key in sorted(expected_keys & set(rows)):
        calm = calm_digests.get(key)
        if calm is None:
            violations.append(f"no calm baseline digest for {key}")
        elif rows[key].payload_digest != calm:
            violations.append(
                f"digest mismatch for {key}: chaos "
                f"{rows[key].payload_digest} != calm {calm}"
            )
    status = db.status(experiment_id)
    if int(status["units"]) != len(expected_keys):
        violations.append(
            f"status rollup counts {status['units']} units, "
            f"expected {len(expected_keys)}"
        )
    return violations


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def classify_faults(
    plan: ChaosPlan,
    events: Sequence[Dict],
    invariants_ok: bool,
) -> Dict[str, Dict[str, object]]:
    """Account for every planned fault from the run's event-log payload;
    see the module docstring."""
    result: Dict[str, Dict[str, object]] = {}
    for fault in plan.faults:
        fired = [
            event
            for event in injections(events)
            if event["fields"]["fault_id"] == fault.fault_id
        ]
        entry: Dict[str, object] = {
            "kind": fault.kind,
            "layer": fault.layer,
            "worker": fault.worker,
        }
        if not fired:
            entry["status"] = "unreached"
            result[fault.fault_id] = entry
            continue
        entry["detail"] = fired[0]["fields"]["detail"]
        if not invariants_ok:
            entry["status"] = "silent"
            result[fault.fault_id] = entry
            continue
        horizon = min(event["time"] for event in fired) - 0.05
        evidence = {
            event["kind"]
            for event in events
            if event["time"] >= horizon
            and (not fault.worker or event["source"] == fault.worker)
        }
        if evidence & DEGRADED_KINDS:
            entry["status"] = "degraded"
        elif fault.layer != "storage" and evidence & RECOVERY_KINDS:
            entry["status"] = "recovered"
        else:
            entry["status"] = "tolerated"
        result[fault.fault_id] = entry
    return result


#: Every classification outcome, in report order.
STATUSES = ("tolerated", "recovered", "degraded", "silent", "unreached")


def _tally(classification: Dict[str, Dict[str, object]]) -> Dict[str, int]:
    counts = dict.fromkeys(STATUSES, 0)
    for entry in classification.values():
        counts[str(entry["status"])] += 1
    return counts


# ----------------------------------------------------------------------
# Storage drills
# ----------------------------------------------------------------------
_CRASH_WRITER_SCRIPT = """\
import sqlite3, sys, time
conn = sqlite3.connect(sys.argv[1])
conn.execute("PRAGMA journal_mode=WAL")
conn.execute(
    "CREATE TABLE IF NOT EXISTS chaos_drill (k TEXT PRIMARY KEY, v TEXT)"
)
conn.commit()
conn.execute("BEGIN IMMEDIATE")
conn.execute(
    "INSERT OR REPLACE INTO chaos_drill (k, v) "
    "VALUES ('sentinel', 'must-never-commit')"
)
print("armed", flush=True)
time.sleep(30)
"""


def _crash_writer_drill(
    db_path: Path, fault: ChaosFault, events: EventLog
) -> List[str]:
    """SIGKILL a writer inside ``BEGIN IMMEDIATE``; nothing may commit."""
    process = subprocess.Popen(
        [sys.executable, "-c", _CRASH_WRITER_SCRIPT, str(db_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        armed = process.stdout.readline()
        if "armed" not in armed:
            process.kill()
            process.wait()
            return [f"{fault.fault_id}: writer drill never armed"]
        process.send_signal(signal.SIGKILL)
        process.wait()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    record_injection(
        events, fault, "writer SIGKILLed inside BEGIN IMMEDIATE"
    )
    conn = sqlite3.connect(str(db_path))
    try:
        count = conn.execute("SELECT COUNT(*) FROM chaos_drill").fetchone()[0]
    finally:
        conn.close()
    if count:
        return [
            f"{fault.fault_id}: {count} uncommitted sentinel row(s) "
            "survived the writer kill"
        ]
    return []


def _torn_wal_drill(
    db_path: Path, fault: ChaosFault, events: EventLog, seed: int
) -> List[str]:
    """Append a garbage tail to the WAL; sqlite must shrug it off."""
    rng = random.Random(f"torn-wal-{seed}")
    garbage = bytes(rng.randrange(256) for _ in range(512))
    wal_path = Path(f"{db_path}-wal")
    try:
        with open(wal_path, "ab") as handle:
            handle.write(garbage)
    except OSError as exc:
        return [f"{fault.fault_id}: could not tear WAL: {exc}"]
    record_injection(
        events, fault, f"appended {len(garbage)} garbage bytes to WAL"
    )
    conn = sqlite3.connect(str(db_path))
    try:
        verdict = conn.execute("PRAGMA integrity_check").fetchone()[0]
    finally:
        conn.close()
    if verdict != "ok":
        return [
            f"{fault.fault_id}: integrity_check after torn WAL: {verdict}"
        ]
    return []


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
def _run_calm_baseline(
    config: ChaosCampaignConfig, out_dir: Path
) -> Tuple[Set[str], Dict[str, str]]:
    """Faultless inline run: the digest ground truth for every unit."""
    spec = config.campaign_spec()
    expected = {unit.key for unit in expand_units(spec)}
    db = FleetDB(out_dir / "calm.sqlite")
    try:
        FleetDispatcher(
            spec, db, workers=0, experiment_id=f"{config.name}-calm"
        ).run()
        digests = {
            row.unit_key: row.payload_digest
            for row in db.unit_rows(f"{config.name}-calm")
        }
    finally:
        db.close()
    if set(digests) != expected:
        raise FleetError("calm baseline is incomplete; aborting chaos")
    return expected, digests


def run_chaos_once(
    config: ChaosCampaignConfig,
    out_dir: Path,
    chaos_seed: int,
    expected_keys: Set[str],
    calm_digests: Dict[str, str],
    plan: Optional[ChaosPlan] = None,
) -> Dict[str, object]:
    """One faulted campaign under ``chaos_seed``; returns its report.

    ``plan`` overrides the seed-generated schedule (replay tests pin
    hand-built plans whose triggers are guaranteed to fire).
    """
    runtime = out_dir / f"chaos-{chaos_seed}"
    runtime.mkdir(parents=True, exist_ok=True)
    db_path = runtime / "fleet.sqlite"
    experiment_id = f"{config.name}-chaos-{chaos_seed}"
    if plan is None:
        plan = ChaosPlan.generate(
            chaos_seed,
            workers=config.workers,
            wire_faults=config.wire_faults,
            process_faults=config.process_faults,
            storage_faults=config.storage_faults,
        )
    result_cache = runtime / "result-cache"
    # One log for the whole run: injections, supervision, client retries.
    events = EventLog()
    orchestrator = ChaosOrchestrator(
        plan, runtime, events, result_cache_dir=result_cache
    )
    env = dict(os.environ)
    env["REPRO_TRACE_CACHE"] = str(out_dir / "trace-cache")
    env["REPRO_UNIT_MEMO"] = str(result_cache)

    db = FleetDB(db_path)
    dispatcher = FleetDispatcher(
        config.campaign_spec(),
        db,
        workers=config.workers,
        experiment_id=experiment_id,
        runtime_dir=runtime,
        worker_env=env,
        on_record=orchestrator.on_record,
        on_worker_start=orchestrator.on_worker_start,
        supervision=config.supervision(),
        events=events,
    )
    started = time.monotonic()
    failure: Optional[str] = None
    summary = None
    try:
        summary = dispatcher.run()
    except FleetError as exc:
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        orchestrator.close()
        db.close()

    violations: List[str] = []
    if failure is not None:
        violations.append(f"campaign failed: {failure}")
    for fault in plan.by_layer("storage"):
        if fault.kind == "db-crash-writer":
            violations += _crash_writer_drill(db_path, fault, events)
        elif fault.kind == "db-torn-wal":
            violations += _torn_wal_drill(db_path, fault, events, chaos_seed)

    # A *fresh* reopen proves recovery: the drills must have left a
    # database a cold process still reads completely and verifies.
    fresh = FleetDB(db_path)
    try:
        violations += check_invariants(
            fresh, experiment_id, expected_keys, calm_digests
        )
    finally:
        fresh.close()

    timeline = events.to_payload()
    classification = classify_faults(
        plan, timeline, invariants_ok=not violations
    )
    counts = _tally(classification)
    ok = not violations and counts["silent"] == 0
    return {
        "chaos_seed": chaos_seed,
        "experiment_id": experiment_id,
        "plan": plan.to_payload(),
        "events": timeline,
        "summary": summary.to_payload() if summary else None,
        "violations": violations,
        "classification": classification,
        "counts": counts,
        "elapsed_s": time.monotonic() - started,
        "ok": ok,
    }


def run_chaos_campaign(
    config: ChaosCampaignConfig, out_dir: Path
) -> Dict[str, object]:
    """Calm baseline + one faulted run per chaos seed + roll-up."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    expected_keys, calm_digests = _run_calm_baseline(config, out_dir)
    runs = [
        run_chaos_once(config, out_dir, seed, expected_keys, calm_digests)
        for seed in config.chaos_seeds
    ]
    totals = {
        "faults_planned": sum(len(run["plan"]["faults"]) for run in runs),
        "faults_fired": sum(len(injections(run["events"])) for run in runs),
        **{
            status: sum(run["counts"][status] for run in runs)
            for status in STATUSES
        },
        "violations": sum(len(run["violations"]) for run in runs),
        "lost_units": 0 if all(run["ok"] for run in runs) else None,
    }
    report = {
        "config": {
            "name": config.name,
            "workloads": list(config.workloads),
            "designs": list(config.designs),
            "unit_seeds": list(config.unit_seeds),
            "transactions": config.transactions,
            "chaos_seeds": list(config.chaos_seeds),
            "workers": config.workers,
        },
        "units": len(expected_keys),
        "runs": runs,
        "totals": totals,
        "ok": all(run["ok"] for run in runs),
    }
    report_path = out_dir / "chaos-report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2))
    report["report_path"] = str(report_path)
    return report


# ----------------------------------------------------------------------
# CLI: python -m repro.harness chaos
# ----------------------------------------------------------------------
def _csv(text: str) -> Tuple[str, ...]:
    return tuple(item for item in text.split(",") if item)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness chaos",
        description="Run a fleet campaign under seeded chaos schedules "
        "and assert the zero-loss invariant (docs/robustness.md).",
    )
    parser.add_argument(
        "--chaos-seeds", default="1,2,3",
        help="comma-separated chaos schedule seeds",
    )
    parser.add_argument("--workloads", default="hashmap")
    parser.add_argument(
        "--designs", default="dolos-partial,prewpq-eager",
        help="comma-separated controller designs",
    )
    parser.add_argument("--seeds", default="1,2", help="unit seeds")
    parser.add_argument("--transactions", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--heartbeat", type=float, default=0.1,
        help="supervision heartbeat interval (seconds)",
    )
    parser.add_argument(
        "--stale-after", type=float, default=0.5,
        help="hang-detection staleness threshold (seconds)",
    )
    parser.add_argument(
        "--respawns", type=int, default=4,
        help="fleet-wide worker respawn budget per run",
    )
    parser.add_argument(
        "--out", default=None,
        help="output directory (default: a fresh temp dir)",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    config = ChaosCampaignConfig(
        workloads=_csv(args.workloads),
        designs=_csv(args.designs),
        unit_seeds=tuple(int(s) for s in _csv(args.seeds)),
        transactions=args.transactions,
        chaos_seeds=tuple(int(s) for s in _csv(args.chaos_seeds)),
        workers=args.workers,
        heartbeat=args.heartbeat,
        stale_after=args.stale_after,
        respawns=args.respawns,
    )
    out_dir = Path(
        args.out
        if args.out
        else tempfile.mkdtemp(prefix="repro-chaos-")
    )
    try:
        report = run_chaos_campaign(config, out_dir)
    except FleetError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if report["ok"] else 1
    for run in report["runs"]:
        counts = run["counts"]
        verdict = "ok" if run["ok"] else "FAILED"
        print(
            f"[chaos] seed {run['chaos_seed']}: "
            f"{len(run['plan']['faults'])} faults planned, "
            f"{len(injections(run['events']))} fired "
            f"({counts['tolerated']} tolerated, "
            f"{counts['recovered']} recovered, "
            f"{counts['degraded']} degraded, "
            f"{counts['silent']} silent, "
            f"{counts['unreached']} unreached) — {verdict}"
        )
        for violation in run["violations"]:
            print(f"[chaos]   violation: {violation}")
    totals = report["totals"]
    print(
        f"[chaos] {report['units']} units x "
        f"{len(report['runs'])} chaos schedules: "
        f"{totals['faults_fired']}/{totals['faults_planned']} faults "
        f"fired, {totals['silent']} silent, "
        f"{totals['violations']} invariant violations"
    )
    print(f"[chaos] report: {report['report_path']}")
    if report["ok"]:
        print(
            "[chaos] zero-loss invariant held: every unit recorded "
            "exactly once, digests bit-identical to the calm baseline"
        )
        return 0
    print("[chaos] FAILED — see violations above", file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
