"""Tier-1 tests for the chaos harness: plans, proxy, classification,
storage drills, and small end-to-end campaigns under pinned fault
schedules.

The replay tests are the heart of the determinism story: the same
seed must produce the same :class:`ChaosPlan`, the same
:class:`WireSchedule` decisions, and — end to end, over real worker
subprocesses — the same injections in the run's event log (modulo
wall-clock stamps).
"""

from __future__ import annotations

import os
import signal
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import campaign as chaos_campaign
from repro.chaos.campaign import (
    _crash_writer_drill,
    _run_calm_baseline,
    _torn_wal_drill,
    check_invariants,
    classify_faults,
    run_chaos_campaign,
    run_chaos_once,
)
from repro.chaos.plan import (
    INJECTED,
    PROCESS_KINDS,
    STORAGE_KINDS,
    WIRE_KINDS,
    ChaosFault,
    ChaosPlan,
    WireSchedule,
    injection_tuple,
    injections,
    record_injection,
)
from repro.chaos.proxy import garble
from repro.fleet.db import FleetDB
from repro.fleet.dispatcher import (
    CampaignSpec,
    FleetDispatcher,
    expand_units,
)
from repro.fleet.supervisor import SupervisionConfig
from repro.instrumentation import EventLog


def _fired_ids(events: EventLog) -> set:
    return {e["fields"]["fault_id"] for e in injections(events.to_payload())}


# ======================================================================
# Plans
# ======================================================================
class TestChaosPlan:
    def test_same_seed_same_plan(self):
        assert ChaosPlan.generate(42) == ChaosPlan.generate(42)

    def test_different_seeds_differ(self):
        assert ChaosPlan.generate(1) != ChaosPlan.generate(2)

    def test_layers_and_counts(self):
        plan = ChaosPlan.generate(3, wire_faults=4, process_faults=3,
                                  storage_faults=2)
        assert len(plan.by_layer("wire")) == 4
        assert len(plan.by_layer("process")) == 3
        assert len(plan.by_layer("storage")) == 2
        for fault in plan.by_layer("wire"):
            assert fault.kind in WIRE_KINDS
            assert fault.direction in ("c2s", "s2c")
            assert 1 <= fault.frame <= 4
        for fault in plan.by_layer("process"):
            assert fault.kind in PROCESS_KINDS
        for fault in plan.by_layer("storage"):
            assert fault.kind in STORAGE_KINDS
            assert fault.worker == ""

    def test_storage_faults_capped_at_catalogue(self):
        plan = ChaosPlan.generate(5, storage_faults=99)
        assert len(plan.by_layer("storage")) == len(STORAGE_KINDS)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ChaosPlan.generate(1, workers=0)

    def test_for_worker_filters(self):
        plan = ChaosPlan.generate(11, workers=2)
        for fault in plan.for_worker("worker-0", "wire"):
            assert fault.worker == "worker-0"

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_generate_is_a_pure_function_of_the_seed(self, seed):
        plan = ChaosPlan.generate(seed)
        assert ChaosPlan.generate(seed) == plan


# ======================================================================
# Wire schedules
# ======================================================================
class TestWireSchedule:
    def test_ordinals_count_per_direction(self):
        schedule = WireSchedule(ChaosPlan.generate(1), "worker-0")
        assert [schedule.next_ordinal("c2s") for _ in range(3)] == [1, 2, 3]
        assert schedule.next_ordinal("s2c") == 1  # independent counter

    def test_first_fault_wins_on_ordinal_collision(self):
        first = ChaosFault("wire-0", "conn-reset", worker="worker-0",
                           direction="s2c", frame=2)
        second = ChaosFault("wire-1", "frame-dup", worker="worker-0",
                            direction="s2c", frame=2)
        plan = ChaosPlan(seed=0, workers=1, faults=(first, second))
        schedule = WireSchedule(plan, "worker-0")
        assert schedule.action("s2c", 2) is first
        assert schedule.planned() == [first]

    @given(
        seed=st.integers(0, 5000),
        c2s=st.integers(0, 12),
        s2c=st.integers(0, 12),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_seed_schedules_log_identical_injections(
        self, seed, c2s, s2c
    ):
        """Replay property: identical frame streams, identical logs."""
        plan = ChaosPlan.generate(seed)
        logs = []
        for replica in range(2):
            schedule = WireSchedule(plan, "worker-0")
            events = EventLog()
            for direction, frames in (("c2s", c2s), ("s2c", s2c)):
                for _ in range(frames):
                    ordinal = schedule.next_ordinal(direction)
                    fault = schedule.action(direction, ordinal)
                    if fault is not None:
                        assert fault.frame == ordinal
                        record_injection(events, fault)
            logs.append(
                [injection_tuple(e) for e in injections(events.to_payload())]
            )
        assert logs[0] == logs[1]


# ======================================================================
# Frame garbling
# ======================================================================
class TestGarble:
    def test_deterministic(self):
        line = b'{"type":"result","id":"q1"}\n'
        assert garble(line, 5) == garble(line, 5)

    def test_flips_exactly_one_byte_and_preserves_framing(self):
        line = b'{"type":"result","id":"q1"}\n'
        for ordinal in range(1, 40):
            out = garble(line, ordinal)
            assert out != line
            assert len(out) == len(line)
            assert out.endswith(b"\n")
            assert out.count(b"\n") == 1  # never fabricates a boundary
            assert sum(a != b for a, b in zip(out, line)) == 1

    def test_tiny_lines_pass_through(self):
        assert garble(b"\n", 3) == b"\n"
        assert garble(b"", 3) == b""

    @given(
        body=st.binary(min_size=1, max_size=200).filter(
            lambda b: b"\n" not in b
        ),
        ordinal=st.integers(1, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_introduces_a_newline(self, body, ordinal):
        out = garble(body + b"\n", ordinal)
        assert out.endswith(b"\n")
        assert out.count(b"\n") == 1


# ======================================================================
# Injection records
# ======================================================================
class TestInjectionRecords:
    def test_replay_tuple_excludes_stamps(self):
        fault = ChaosFault("wire-0", "stall", worker="worker-1",
                           direction="c2s", frame=3, param=0.1)
        events = EventLog()
        record_injection(events, fault, "held 0.1s")
        (entry,) = events.to_payload()
        assert entry["kind"] == INJECTED and entry["time"] > 0
        assert entry["fields"]["detail"] == "held 0.1s"
        assert injection_tuple(entry) == (
            "wire-0", "stall", "wire", "worker-1", "c2s", 3
        )

    def test_injections_skip_supervision_records(self):
        events = EventLog()
        events.record("worker-0", "worker-death", detail="EOF")
        record_injection(events, ChaosFault("store-0", "db-torn-wal"))
        (entry,) = injections(events.to_payload())
        assert entry["source"] == "storage"  # no worker: the layer
        assert _fired_ids(events) == {"store-0"}


# ======================================================================
# Classification
# ======================================================================
def _inj(fault: ChaosFault, time: float) -> dict:
    events = EventLog(clock=lambda: time)
    record_injection(events, fault, "synthetic")
    return events.to_payload()[0]


def _event(kind: str, worker: str, time: float) -> dict:
    return {"time": time, "source": worker, "kind": kind,
            "fields": {"detail": ""}}


class TestClassifyFaults:
    WIRE = ChaosFault("wire-0", "conn-reset", worker="worker-0",
                      direction="s2c", frame=2)
    PROC = ChaosFault("proc-0", "sigkill", worker="worker-1", frame=1)
    STORE = ChaosFault("store-0", "db-torn-wal")

    def _plan(self, *faults) -> ChaosPlan:
        return ChaosPlan(seed=0, workers=2, faults=tuple(faults))

    def test_unreached_when_never_fired(self):
        result = classify_faults(self._plan(self.WIRE), [], True)
        assert result["wire-0"]["status"] == "unreached"

    def test_silent_when_invariants_broke(self):
        result = classify_faults(
            self._plan(self.WIRE), [_inj(self.WIRE, 10.0)], False
        )
        assert result["wire-0"]["status"] == "silent"

    def test_recovered_needs_matching_evidence(self):
        events = [
            _inj(self.PROC, 10.0),
            _event("worker-death", "worker-1", 10.2),
        ]
        result = classify_faults(self._plan(self.PROC), events, True)
        assert result["proc-0"]["status"] == "recovered"

    def test_evidence_before_the_injection_does_not_count(self):
        events = [
            _event("worker-death", "worker-1", 5.0),
            _inj(self.PROC, 10.0),
        ]
        result = classify_faults(self._plan(self.PROC), events, True)
        assert result["proc-0"]["status"] == "tolerated"

    def test_other_workers_evidence_does_not_count(self):
        events = [
            _inj(self.PROC, 10.0),
            _event("worker-death", "worker-0", 10.2),
        ]
        result = classify_faults(self._plan(self.PROC), events, True)
        assert result["proc-0"]["status"] == "tolerated"

    def test_degraded_beats_recovered(self):
        events = [
            _inj(self.PROC, 10.0),
            _event("worker-death", "worker-1", 10.2),
            _event("respawn-exhausted", "worker-1", 10.5),
        ]
        result = classify_faults(self._plan(self.PROC), events, True)
        assert result["proc-0"]["status"] == "degraded"

    def test_storage_faults_are_never_recovered(self):
        # A worker-death around the drill is a coincidence, not
        # recovery machinery for the storage layer.
        events = [
            _inj(self.STORE, 10.0),
            _event("worker-death", "worker-0", 10.2),
        ]
        result = classify_faults(self._plan(self.STORE), events, True)
        assert result["store-0"]["status"] == "tolerated"


# ======================================================================
# Storage drills + invariants
# ======================================================================
class TestStorageDrills:
    def test_killed_writer_leaves_nothing_behind(self, tmp_path):
        db_path = tmp_path / "fleet.sqlite"
        FleetDB(db_path).close()  # create the real schema first
        fault = ChaosFault("store-0", "db-crash-writer")
        events = EventLog()
        violations = _crash_writer_drill(db_path, fault, events)
        assert violations == []
        assert _fired_ids(events) == {"store-0"}
        db = FleetDB(db_path)
        try:
            assert db.integrity_check() == "ok"
        finally:
            db.close()

    def test_torn_wal_is_shrugged_off(self, tmp_path):
        db_path = tmp_path / "fleet.sqlite"
        FleetDB(db_path).close()
        fault = ChaosFault("store-0", "db-torn-wal")
        events = EventLog()
        violations = _torn_wal_drill(db_path, fault, events, seed=1)
        assert violations == []
        assert _fired_ids(events) == {"store-0"}
        db = FleetDB(db_path)
        try:
            assert db.integrity_check() == "ok"
            assert db.experiments() == []  # still readable cold
        finally:
            db.close()


class TestCheckInvariants:
    def test_lost_units_are_violations(self, tmp_path):
        db = FleetDB(tmp_path / "fleet.sqlite")
        try:
            db.open_experiment("exp", {"name": "exp"})
            violations = check_invariants(
                db, "exp", {"unit-a": "digest-a", "unit-b": "digest-b"}
            )
        finally:
            db.close()
        assert any("lost" in v for v in violations)

    def test_clean_empty_experiment_passes(self, tmp_path):
        db = FleetDB(tmp_path / "fleet.sqlite")
        try:
            db.open_experiment("exp", {"name": "exp"})
            violations = check_invariants(db, "exp", {})
        finally:
            db.close()
        assert violations == []


# ======================================================================
# End-to-end: real workers under pinned and seeded chaos
# ======================================================================
def _worker_env_patch(monkeypatch, tmp_path):
    """Hermetic chaos runs: private caches, no cross-run memo state."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_UNIT_MEMO", "off")


#: Two units, small enough for one worker to finish in seconds.
_TINY = CampaignSpec(
    name="ctest",
    workloads=("hashmap",),
    designs=("dolos-partial", "prewpq-eager"),
    seeds=(1,),
    transactions=6,
)


def _supervision(respawns: int = 4) -> SupervisionConfig:
    return SupervisionConfig(
        heartbeat_interval=0.1, stale_after=0.5, respawn_budget=respawns
    )


def _pinned_plan() -> ChaosPlan:
    """Two faults whose triggers a 2-unit single-worker run must reach:
    the second server->client frame always exists (hello + accepted),
    and worker-0 always records at least one unit."""
    return ChaosPlan(
        seed=99,
        workers=1,
        faults=(
            ChaosFault("wire-0", "conn-reset", worker="worker-0",
                       direction="s2c", frame=2),
            ChaosFault("proc-0", "sigkill", worker="worker-0", frame=1),
        ),
    )


class TestChaosEndToEnd:
    def test_pinned_plan_zero_loss_and_replay_identical(
        self, tmp_path, monkeypatch
    ):
        _worker_env_patch(monkeypatch, tmp_path)
        digests = _run_calm_baseline(_TINY)
        assert len(digests) == 2

        # Both replays write to one directory, as a re-run of `make
        # chaos-smoke` does: the second must re-test, not resume.
        runs = [
            run_chaos_once(
                _TINY,
                _supervision(),
                1,
                tmp_path / "run",
                1,
                digests,
                plan=_pinned_plan(),
            )
            for _ in range(2)
        ]
        for run in runs:
            assert run["violations"] == []
            assert run["ok"] is True
            assert run["counts"]["silent"] == 0
            assert run["counts"]["unreached"] == 0
            fired = {
                inj["fields"]["fault_id"] for inj in injections(run["events"])
            }
            assert fired == {"wire-0", "proc-0"}
            times = [event["time"] for event in run["events"]]
            assert times == sorted(times)
            # The SIGKILL demands real recovery machinery (death ->
            # requeue -> respawn), which classification must credit.
            assert run["classification"]["proc-0"]["status"] == "recovered"

        def deterministic(run):
            return sorted(
                injection_tuple(inj) for inj in injections(run["events"])
            )

        assert deterministic(runs[0]) == deterministic(runs[1])

    def test_crash_looping_worker_spends_the_budget_and_degrades(
        self, tmp_path, monkeypatch
    ):
        """Every incarnation of worker-0 is killed as it becomes ready:
        the one respawn is spent, worker-0 ends in respawn-exhausted,
        and worker-1 still records every unit exactly once."""
        _worker_env_patch(monkeypatch, tmp_path)
        digests = _run_calm_baseline(_TINY)
        plan = ChaosPlan(
            seed=98,
            workers=2,
            faults=tuple(
                ChaosFault(f"proc-{n}", "crash-on-start", worker="worker-0",
                           frame=n)
                for n in (0, 1)
            ),
        )
        run = run_chaos_once(
            _TINY, _supervision(respawns=1), 2, tmp_path / "run", 1,
            digests, plan=plan,
        )
        assert run["violations"] == []
        assert run["ok"] is True
        assert {
            fault_id: entry["status"]
            for fault_id, entry in run["classification"].items()
        } == {"proc-0": "degraded", "proc-1": "degraded"}
        exhausted = [
            event for event in run["events"]
            if event["kind"] == "respawn-exhausted"
        ]
        assert [event["source"] for event in exhausted] == ["worker-0"]
        summary = run["summary"]
        assert summary["units_recorded"] == summary["units_total"] == 2
        assert summary["duplicates"] == 0
        assert summary["respawns"] == 1

    def test_store_corrupt_is_quarantined_and_recorded_again(
        self, tmp_path, monkeypatch
    ):
        """The drill rewrites the first recorded results row of the
        run's FleetDB (the workers' memo too); the dispatcher's verified
        re-read quarantines it and records the unit again."""
        _worker_env_patch(monkeypatch, tmp_path)
        digests = _run_calm_baseline(_TINY)
        plan = ChaosPlan(
            seed=97, workers=1,
            faults=(ChaosFault("store-0", "store-corrupt"),),
        )
        run = run_chaos_once(
            _TINY, _supervision(), 1, tmp_path / "run", 1,
            digests, plan=plan,
        )
        assert run["violations"] == [] and run["ok"] is True
        [injection] = injections(run["events"])
        detail = injection["fields"]["detail"]
        assert detail.startswith("corrupted results row ")
        assert detail.rsplit(" ", 1)[-1] in digests
        assert run["classification"]["store-0"]["status"] == "tolerated"
        summary = run["summary"]
        assert summary["units_recorded"] == summary["units_total"] == 2
        # Two first records plus the corrupted unit's second record.
        assert summary["duplicates"] == 1
        assert sum(w["completed"] for w in summary["workers"]) == 3

    def test_seeded_campaign_reports_zero_loss(self, tmp_path, monkeypatch):
        from repro.chaos.campaign import main as chaos_main

        _worker_env_patch(monkeypatch, tmp_path)
        out = tmp_path / "out"
        code = chaos_main(
            [
                "--chaos-seeds", "1",
                "--seeds", "1",
                "--transactions", "6",
                "--workers", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "chaos-report.json").exists()

    def test_a_layer_that_never_fires_fails_the_gate(
        self, tmp_path, monkeypatch
    ):
        """With injection disabled every unit still lands exactly once,
        so only the unfired-layer check can tell the gate tested
        nothing."""

        class Inert:
            def __init__(self, *args, **kwargs):
                pass

            def on_record(self, worker_id, unit_key):
                pass

            def on_worker_start(self, worker):
                pass

            def close(self):
                pass

        _worker_env_patch(monkeypatch, tmp_path)
        monkeypatch.setattr(chaos_campaign, "ChaosOrchestrator", Inert)
        for drill in ("_crash_writer_drill", "_torn_wal_drill"):
            monkeypatch.setattr(
                chaos_campaign, drill, lambda *args: []
            )
        report = run_chaos_campaign(
            _TINY, _supervision(), 1, [1], tmp_path / "out"
        )
        [run] = report["runs"]
        assert run["violations"] == [] and run["ok"] is True
        assert report["totals"]["faults_fired"] == 0
        assert report["totals"]["unfired_layers"] == [
            "process", "storage", "wire"
        ]
        assert report["ok"] is False


# ======================================================================
# Supervision: hang detection over real SIGSTOPped workers
# ======================================================================
class TestHeartbeatSupervision:
    def test_sigstopped_worker_is_detected_killed_and_replaced(
        self, tmp_path, monkeypatch
    ):
        _worker_env_patch(monkeypatch, tmp_path)
        campaign = CampaignSpec(
            name="hang",
            workloads=("hashmap",),
            designs=("dolos-partial", "prewpq-eager"),
            seeds=(1, 2),
            transactions=6,
        ).validate()
        expected = {unit.key for unit in expand_units(campaign)}
        db = FleetDB(tmp_path / "fleet.sqlite")
        holder = {}
        stopped = []
        lock = threading.Lock()

        def stop_once(worker_id: str, unit_key: str) -> None:
            # SIGSTOP the first worker to record a unit: from outside
            # it is indistinguishable from a deadlock, and only the
            # heartbeat monitor can unblock the campaign.
            with lock:
                if stopped:
                    return
                handle = holder["dispatcher"].worker_handles.get(worker_id)
                if handle is None or not handle.alive:
                    return
                stopped.append(worker_id)
                os.kill(handle.process.pid, signal.SIGSTOP)

        dispatcher = FleetDispatcher(
            campaign,
            db,
            workers=2,
            runtime_dir=tmp_path / "rt",
            worker_env=dict(os.environ),
            on_record=stop_once,
            supervision=SupervisionConfig(
                heartbeat_interval=0.1,
                stale_after=0.4,
                respawn_budget=2,
            ),
        )
        holder["dispatcher"] = dispatcher
        try:
            summary = dispatcher.run()
            rows = db.unit_rows("hang")
        finally:
            db.close()

        assert stopped, "no worker ever recorded a unit"
        assert summary.hangs >= 1
        assert dispatcher.events.records("hang-detected")
        assert summary.respawns >= 1
        # Zero loss despite the hang: every unit exactly once.
        assert sorted(row.unit_key for row in rows) == sorted(expected)
