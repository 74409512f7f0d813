"""Chaos campaigns: run the fleet under fault schedules, prove zero loss.

``python -m repro.harness chaos`` drives one :class:`CampaignSpec`
through the fleet dispatcher N times, each under a different seeded
:class:`ChaosPlan` (wire, process, and storage faults), and checks the
**zero-loss invariant** against a calm baseline: every unit run first
serially (``execute_unit``), with no faults:

* every expanded unit is recorded **exactly once** in the FleetDB;
* every recorded digest is **bit-identical** to the calm baseline's;
* sqlite's own ``integrity_check`` passes on a fresh reopen (after the
  torn-WAL and killed-writer storage drills), and a result the
  store-corrupt drill rewrote mid-run was quarantined and re-recorded;
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
excluded from the tally — but a layer (wire, process, storage) that
planned faults in some run and fired none in any run fails the
campaign: a proxy or orchestrator that stopped injecting would
otherwise pass the zero-loss gate without testing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.chaos.orchestrator import ChaosOrchestrator
from repro.chaos.plan import ChaosFault, ChaosPlan, injections, record_injection
from repro.fleet.db import FleetDB
from repro.fleet.dispatcher import (
    CampaignSpec,
    FleetDispatcher,
    FleetError,
    add_campaign_flags,
    campaign_from_flags,
    expand_units,
    supervision_from_flags,
)
from repro.fleet.supervisor import SupervisionConfig
from repro.harness.parallel import execute_unit
from repro.harness.trace_store import TraceCache
from repro.instrumentation import EventLog
from repro.service.protocol import (
    result_digest,
    result_payload,
    spec_to_run_unit,
)

__all__ = [
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


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
def check_invariants(
    db: FleetDB, experiment_id: str, calm_digests: Dict[str, str]
) -> List[str]:
    """Zero-loss checks against the calm baseline's digests (one per
    expected unit); returns human-readable violations (empty = ok)."""
    violations: List[str] = []
    integrity = db.integrity_check()
    if integrity != "ok":
        violations.append(f"sqlite integrity_check: {integrity}")
    rows = {row.unit_key: row for row in db.unit_rows(experiment_id)}
    missing = sorted(set(calm_digests) - set(rows))
    extra = sorted(set(rows) - set(calm_digests))
    if missing:
        violations.append(
            f"{len(missing)} unit(s) lost: {missing[:3]}"
            + ("..." if len(missing) > 3 else "")
        )
    if extra:
        violations.append(f"{len(extra)} phantom unit(s): {extra[:3]}")
    for key in sorted(calm_digests.keys() & rows.keys()):
        if rows[key].payload_digest != calm_digests[key]:
            violations.append(
                f"digest mismatch for {key}: chaos "
                f"{rows[key].payload_digest} != calm {calm_digests[key]}"
            )
    status = db.status(experiment_id)
    if int(status["units"]) != len(calm_digests):
        violations.append(
            f"status rollup counts {status['units']} units, "
            f"expected {len(calm_digests)}"
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
        result[fault.fault_id] = entry
        if not fired:
            entry["status"] = "unreached"
            continue
        entry["detail"] = fired[0]["fields"]["detail"]
        horizon = min(event["time"] for event in fired) - 0.05
        evidence = {
            event["kind"]
            for event in events
            if event["time"] >= horizon
            and (not fault.worker or event["source"] == fault.worker)
        }
        if not invariants_ok:
            entry["status"] = "silent"
        elif evidence & DEGRADED_KINDS:
            entry["status"] = "degraded"
        elif fault.layer != "storage" and evidence & RECOVERY_KINDS:
            entry["status"] = "recovered"
        else:
            entry["status"] = "tolerated"
    return result


#: Every classification outcome, in report order.
STATUSES = ("tolerated", "recovered", "degraded", "silent", "unreached")


# ----------------------------------------------------------------------
# Storage drills
# ----------------------------------------------------------------------
#: Inserts a sentinel results row inside ``BEGIN IMMEDIATE``, then
#: waits to be killed: the row must never commit.
_CRASH_WRITER_SCRIPT = """\
import sqlite3, sys, time
conn = sqlite3.connect(sys.argv[1], isolation_level=None)
conn.execute("BEGIN IMMEDIATE")
conn.execute("INSERT INTO results VALUES ('chaos-sentinel', '{}', 'x')")
print("armed", flush=True)
time.sleep(30)
"""


def _crash_writer_drill(
    db_path: Path, fault: ChaosFault, events: EventLog
) -> List[str]:
    """SIGKILL a results writer inside ``BEGIN IMMEDIATE``; nothing may
    commit."""
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
        count = conn.execute(
            "SELECT COUNT(*) FROM results WHERE unit_key='chaos-sentinel'"
        ).fetchone()[0]
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
    return []  # check_invariants' cold integrity_check is the verdict


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
def _run_calm_baseline(campaign: CampaignSpec) -> Dict[str, str]:
    """Faultless serial run: the digest ground truth for every unit."""
    cache = TraceCache()
    return {
        unit.key: result_digest(
            result_payload(execute_unit(spec_to_run_unit(unit.spec), cache))
        )
        for unit in expand_units(campaign)
    }


def run_chaos_once(
    campaign: CampaignSpec,
    supervision: SupervisionConfig,
    workers: int,
    out_dir: Path,
    chaos_seed: int,
    calm_digests: Dict[str, str],
    plan: Optional[ChaosPlan] = None,
) -> Dict[str, object]:
    """One faulted campaign under ``chaos_seed``; returns its report.

    ``plan`` overrides the seed-generated schedule (replay tests pin
    hand-built plans whose triggers are guaranteed to fire).  The run
    starts from an empty ``chaos-<seed>`` directory: a database left by
    an earlier run would let it resume with nothing to dispatch.
    """
    runtime = out_dir / f"chaos-{chaos_seed}"
    shutil.rmtree(runtime, ignore_errors=True)
    runtime.mkdir(parents=True)
    db_path = runtime / "fleet.sqlite"
    experiment_id = f"{campaign.name}-chaos-{chaos_seed}"
    if plan is None:
        plan = ChaosPlan.generate(chaos_seed, workers=workers)
    # One log for the whole run: injections, supervision, client retries.
    events = EventLog()
    orchestrator = ChaosOrchestrator(plan, runtime, events, db_path)
    env = dict(os.environ)
    env["REPRO_TRACE_CACHE"] = str(out_dir / "trace-cache")
    # The workers' memo is the run's FleetDB: one store, which all
    # three storage drills hit.
    env["REPRO_UNIT_MEMO"] = str(db_path)

    db = FleetDB(db_path)
    dispatcher = FleetDispatcher(
        campaign,
        db,
        workers=workers,
        experiment_id=experiment_id,
        runtime_dir=runtime,
        worker_env=env,
        on_record=orchestrator.on_record,
        on_worker_start=orchestrator.on_worker_start,
        supervision=supervision,
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
        violations += check_invariants(fresh, experiment_id, calm_digests)
    finally:
        fresh.close()

    timeline = events.to_payload()
    classification = classify_faults(
        plan, timeline, invariants_ok=not violations
    )
    counts = {
        status: sum(e["status"] == status for e in classification.values())
        for status in STATUSES
    }
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


def unfired_layers(runs: Sequence[Dict[str, object]]) -> List[str]:
    """Layers that planned faults in some run but fired none in any."""
    planned = {
        fault["layer"] for run in runs for fault in run["plan"]["faults"]
    }
    fired = {
        event["fields"]["layer"]
        for run in runs
        for event in injections(run["events"])
    }
    return sorted(planned - fired)


def run_chaos_campaign(
    campaign: CampaignSpec,
    supervision: SupervisionConfig,
    workers: int,
    chaos_seeds: Sequence[int],
    out_dir: Path,
) -> Dict[str, object]:
    """Calm baseline + one faulted run per chaos seed + roll-up."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    calm_digests = _run_calm_baseline(campaign)
    runs = [
        run_chaos_once(
            campaign, supervision, workers, out_dir, seed, calm_digests
        )
        for seed in chaos_seeds
    ]
    unfired = unfired_layers(runs)
    totals = {
        "faults_planned": sum(len(run["plan"]["faults"]) for run in runs),
        "faults_fired": sum(len(injections(run["events"])) for run in runs),
        **{
            status: sum(run["counts"][status] for run in runs)
            for status in STATUSES
        },
        "violations": sum(len(run["violations"]) for run in runs),
        "unfired_layers": unfired,
        "lost_units": 0 if all(run["ok"] for run in runs) else None,
    }
    report = {
        "config": {
            **campaign.to_payload(),
            "chaos_seeds": list(chaos_seeds),
            "workers": workers,
        },
        "units": len(calm_digests),
        "runs": runs,
        "totals": totals,
        "ok": all(run["ok"] for run in runs) and not unfired,
    }
    report_path = out_dir / "chaos-report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2))
    report["report_path"] = str(report_path)
    return report


# ----------------------------------------------------------------------
# CLI: python -m repro.harness chaos
# ----------------------------------------------------------------------
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
    # Supervision is always on under chaos: without hang detection a
    # run would wait out every SIGSTOP on the submit timeout.
    add_campaign_flags(
        parser, seeds="1,2", transactions=8,
        heartbeat=0.1, stale_after=0.5, respawns=4,
    )
    parser.add_argument(
        "--out", default=None,
        help="output directory (default: a fresh temp dir)",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    out_dir = Path(args.out or tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        report = run_chaos_campaign(
            campaign_from_flags(args, "chaos"),
            supervision_from_flags(args),
            args.workers,
            [int(seed) for seed in args.chaos_seeds.split(",") if seed],
            out_dir,
        )
    except FleetError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0 if report["ok"] else 1
    for run in report["runs"]:
        tally = ", ".join(f"{run['counts'][s]} {s}" for s in STATUSES)
        print(
            f"[chaos] seed {run['chaos_seed']}: "
            f"{len(run['plan']['faults'])} faults planned, "
            f"{len(injections(run['events']))} fired ({tally}) — "
            f"{'ok' if run['ok'] else 'FAILED'}"
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
    if totals["unfired_layers"]:
        print(
            "[chaos] no fault fired in layer(s) "
            f"{', '.join(totals['unfired_layers'])}: the gate tested nothing "
            "there"
        )
    print(f"[chaos] report: {report['report_path']}")
    if report["ok"]:
        print(
            "[chaos] zero-loss invariant held: every unit recorded "
            "exactly once, digests bit-identical to the calm baseline"
        )
        return 0
    print("[chaos] FAILED — see above", file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
