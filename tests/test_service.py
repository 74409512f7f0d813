"""Tier-1 tests for the experiment service: protocol, scheduler, server.

Everything here runs in-process (the asyncio server bound to an
ephemeral loopback port); the subprocess end-to-end path is covered by
``python -m repro.service.smoke`` and the slow-marked soak test.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal
import sqlite3
import time

import pytest

from repro.config import ControllerKind, MiSUDesign
from repro.harness import memo, parallel
from repro.harness.parallel import RunUnit, execute_unit
from repro.harness.runner import RunResult
from repro.harness.trace_store import (
    ResultStore,
    TraceCache,
    UnitDigestMismatch,
)
from repro.instrumentation import EventLog
from repro.oracle.check import controller_matrix
from repro.service import protocol as proto
from repro.service.client import ServiceClient
from repro.service.scheduler import (
    JOB_EVENT_KINDS,
    DrainingError,
    ExperimentScheduler,
    JobStatus,
)
from repro.service.server import ExperimentServer, TokenBucket, _ClientSession

#: Small enough to finish in milliseconds, large enough to be a real run.
TX = 8

SPEC = proto.JobSpec(
    workload="hashmap", design="dolos-partial", transactions=TX, seed=1
)


@pytest.fixture(autouse=True)
def _memo_off(monkeypatch):
    """Hermetic scheduler: no replays of units earlier runs memoized."""
    monkeypatch.setattr(parallel, "_UNIT_MEMO", memo.UnitMemo(None))


def _spec(**changes) -> proto.JobSpec:
    return dataclasses.replace(SPEC, **changes).validate()


def _direct_payload(spec: proto.JobSpec, tmp_path) -> dict:
    unit = RunUnit(
        spec.workload, proto.resolve_config(spec), spec.transactions, spec.seed
    )
    return proto.result_payload(
        execute_unit(unit, TraceCache(tmp_path / "traces"))
    )


# ======================================================================
# Protocol
# ======================================================================
class TestJobSpec:
    def test_wire_roundtrip(self):
        spec = _spec(
            experiment_id="fig12",
            overrides={"transaction_size": 256, "wpq_coalescing": False},
        )
        assert proto.JobSpec.from_wire(spec.to_wire()) == spec

    @pytest.mark.parametrize(
        "changes",
        [
            {"workload": "no-such-workload"},
            {"design": "no-such-design"},
            {"transactions": 0},
            {"transactions": -5},
            {"overrides": {"no_such_knob": 1}},
            {"overrides": {"transaction_size": "not-a-number"}},
        ],
    )
    def test_validate_rejects(self, changes):
        spec = dataclasses.replace(SPEC, **changes)
        with pytest.raises(proto.ProtocolError):
            spec.validate()

    def test_from_wire_requires_core_fields(self):
        with pytest.raises(proto.ProtocolError, match="missing field"):
            proto.JobSpec.from_wire({"workload": "hashmap"})
        with pytest.raises(proto.ProtocolError):
            proto.JobSpec.from_wire("not an object")

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            (["wpq_coalescing=true"], {"wpq_coalescing": True}),
            (["wpq_coalescing=False"], {"wpq_coalescing": False}),
            (["adr_budget=12", "transaction_size=-3"],
             {"adr_budget": 12, "transaction_size": -3}),
            (["persist_model=strict"], {"persist_model": "strict"}),
            (["persist_model=a=b"], {"persist_model": "a=b"}),
            ([], {}),
            (["adr_budget"], "expects key=value"),
        ],
    )
    def test_parse_overrides(self, pairs, expected):
        """The one ``--override KEY=VALUE`` parser of ``submit`` and
        ``fleet run``."""
        if isinstance(expected, str):
            with pytest.raises(proto.ProtocolError, match=expected):
                proto.parse_overrides(pairs)
        else:
            assert proto.parse_overrides(pairs) == expected


class TestJobKey:
    def test_key_is_trace_store_shaped(self):
        key = proto.job_key(SPEC)
        assert len(key) == 24
        int(key, 16)  # hex

    def test_label_is_not_hashed(self):
        # Two users asking for the same simulation under different
        # experiment labels must share one execution.
        assert proto.job_key(SPEC) == proto.job_key(
            _spec(experiment_id="another-label")
        )

    @pytest.mark.parametrize(
        "changes",
        [
            {"workload": "btree"},
            {"design": "dolos-post"},
            {"transactions": TX + 1},
            {"seed": 2},
            {"overrides": {"wpq_coalescing": False}},
        ],
    )
    def test_simulation_relevant_fields_are_hashed(self, changes):
        assert proto.job_key(SPEC) != proto.job_key(_spec(**changes))

    def test_generator_version_is_folded_in(self, monkeypatch):
        # The key is the unit-memo key, which carries the trace
        # generator version, so a generator bump re-keys service jobs,
        # memo entries and disk traces in lockstep.
        key = proto.job_key(SPEC)
        version = memo.GENERATOR_VERSION
        monkeypatch.setattr(memo, "GENERATOR_VERSION", version + 1)
        assert proto.job_key(SPEC) != key


class TestResolveConfig:
    def test_base_config_comes_from_the_oracle_matrix(self):
        assert proto.resolve_config(SPEC) == controller_matrix()[SPEC.design]

    def test_overrides_apply(self):
        config = proto.resolve_config(
            _spec(
                overrides={
                    "transaction_size": 256,
                    "adr_budget": 32,
                    "wpq_coalescing": False,
                }
            )
        )
        assert config.transaction_size == 256
        assert config.adr.budget_entries == 32
        assert config.wpq_coalescing is False

    def test_persist_model_override_preserves_other_core_fields(self):
        base = controller_matrix()[SPEC.design]
        config = proto.resolve_config(
            _spec(overrides={"persist_model": "strict"})
        )
        assert config.core.persist_model == "strict"
        assert config.core.frequency_ghz == base.core.frequency_ghz
        assert config.core.ipc == base.core.ipc
        assert config.core.mlp == base.core.mlp


class TestFraming:
    def test_roundtrip(self):
        message = {"type": "submit", "id": "r1", "job": SPEC.to_wire()}
        assert proto.decode_message(proto.encode_message(message)) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(proto.ProtocolError):
            proto.decode_message(b"\xff\xfe not json\n")
        with pytest.raises(proto.ProtocolError):
            proto.decode_message(b"[1, 2, 3]\n")
        with pytest.raises(proto.ProtocolError):
            proto.decode_message(b'{"no_type": true}\n')

    def test_line_bound_enforced_both_ways(self):
        big = {"type": "submit", "blob": "x" * proto.MAX_LINE_BYTES}
        with pytest.raises(proto.ProtocolError):
            proto.encode_message(big)
        with pytest.raises(proto.ProtocolError):
            proto.decode_message(b"x" * (proto.MAX_LINE_BYTES + 1))


class TestResultPayload:
    def _result(self) -> RunResult:
        return RunResult(
            workload="hashmap",
            controller=ControllerKind.DOLOS,
            misu_design=MiSUDesign.PARTIAL_WPQ,
            transactions=TX,
            payload_bytes=4096,
            cycles=12345,
            instructions=678,
            stats={"wpq.inserts": 9, "controller.writes": 11},
        )

    def test_payload_roundtrip(self):
        result = self._result()
        rebuilt = proto.payload_to_result(proto.result_payload(result))
        assert rebuilt == result

    def test_digest_is_key_order_invariant(self):
        payload = proto.result_payload(self._result())
        reordered = dict(reversed(list(payload.items())))
        assert proto.result_digest(payload) == proto.result_digest(reordered)
        # JSON roundtrip (the wire) preserves the digest too.
        wired = json.loads(json.dumps(payload))
        assert proto.result_digest(wired) == proto.result_digest(payload)


# ======================================================================
# Result store
# ======================================================================
class TestResultStore:
    PAYLOAD = {"workload": "hashmap", "cycles": 123, "stats": {"a": 1}}
    KEY = "k" * 24

    def _store(self, tmp_path) -> ResultStore:
        return ResultStore(tmp_path / "results.sqlite")

    def test_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        store.store(self.KEY, self.PAYLOAD)
        assert store.load(self.KEY) == self.PAYLOAD
        assert self._store(tmp_path).load(self.KEY) == self.PAYLOAD

    def test_miss(self, tmp_path):
        assert self._store(tmp_path).load("0" * 24) is None

    def test_corrupt_entry_is_quarantined_not_served(self, tmp_path):
        store = self._store(tmp_path)
        store.store(self.KEY, self.PAYLOAD)
        tampered = json.dumps({**self.PAYLOAD, "cycles": 999})
        store.connect().execute("UPDATE results SET payload=?", (tampered,))
        assert store.load(self.KEY) is None
        assert store.quarantined == 1
        row = store.connect().execute(
            "SELECT unit_key, payload, reason FROM quarantine"
        ).fetchone()
        assert (row["unit_key"], row["payload"]) == (self.KEY, tampered)
        assert "digest" in row["reason"]
        # Gone from the results: the next load is a plain miss, and a
        # re-run records cleanly.
        assert store.load(self.KEY) is None
        store.store(self.KEY, self.PAYLOAD)
        assert store.load(self.KEY) == self.PAYLOAD

    def test_first_record_wins_and_a_different_digest_raises(self, tmp_path):
        store = self._store(tmp_path)
        store.store(self.KEY, self.PAYLOAD)
        store.store(self.KEY, dict(reversed(list(self.PAYLOAD.items()))))
        with pytest.raises(UnitDigestMismatch, match="non-deterministic"):
            store.store(self.KEY, {**self.PAYLOAD, "cycles": 124})
        assert store.load(self.KEY) == self.PAYLOAD

    def test_a_rotten_row_is_replaced_by_the_next_record(self, tmp_path):
        store = self._store(tmp_path)
        store.store(self.KEY, self.PAYLOAD)
        store.connect().execute("UPDATE results SET payload='{}'")
        store.store(self.KEY, self.PAYLOAD)
        assert store.load(self.KEY) == self.PAYLOAD
        assert store.quarantined == 1

    def test_a_deleted_file_is_reopened_not_served(self, tmp_path):
        """A kept connection would go on reading the deleted file."""
        store = self._store(tmp_path)
        store.store(self.KEY, self.PAYLOAD)
        for suffix in ("", "-wal", "-shm"):
            os.unlink(f"{store.path}{suffix}")
        assert store.load(self.KEY) is None
        store.store("j" * 24, self.PAYLOAD)
        assert store.load("j" * 24) == self.PAYLOAD
        assert store.path.exists()

    def test_a_new_file_is_created_unsynced_then_commits_at_normal(
        self, tmp_path, monkeypatch
    ):
        """Creating a file costs no fsync (six when synced, all inside
        the first unit a new store serves); every connection then runs
        at NORMAL, whose checkpoints sync."""
        statements = []
        connect = sqlite3.connect

        def traced(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced)
        store = self._store(tmp_path)
        store.store(self.KEY, self.PAYLOAD)
        assert statements[0] == "PRAGMA synchronous=OFF"
        reopened = self._store(tmp_path)
        statements.clear()
        assert reopened.load(self.KEY) == self.PAYLOAD
        assert statements[0] == "PRAGMA synchronous=NORMAL"
        for conn in (store.connect(), reopened.connect()):
            assert conn.execute("PRAGMA synchronous").fetchone()[0] == 1

    def test_a_forked_child_opens_its_own_connection(self, tmp_path):
        """The ``--jobs 2`` pool forks after the loop thread used the
        store: the child must not use the connection it inherited."""
        store = self._store(tmp_path)
        store.store("p" * 24, self.PAYLOAD)
        inherited = store.connect()
        child = multiprocessing.get_context("fork").Process(
            target=_child_records, args=(store, inherited)
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        store.store("q" * 24, self.PAYLOAD)
        assert store.connect() is inherited
        for key in ("p", "c", "q"):
            assert store.load(key * 24) == self.PAYLOAD
        verdict = store.connect().execute("PRAGMA integrity_check")
        assert verdict.fetchone()[0] == "ok"


def _child_records(store: ResultStore, inherited) -> None:
    if store.connect() is inherited:
        os._exit(3)
    store.store("c" * 24, TestResultStore.PAYLOAD)
    os._exit(0 if store.load("c" * 24) == TestResultStore.PAYLOAD else 4)


# ======================================================================
# Scheduler
# ======================================================================
def _run_async(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _scheduler(**kwargs) -> ExperimentScheduler:
    kwargs.setdefault("jobs", 1)
    return ExperimentScheduler(**kwargs)


def _restart_memo(monkeypatch, memo_path) -> None:
    """A restarted server: a fresh process memo over ``memo_path``."""
    monkeypatch.setattr(parallel, "_UNIT_MEMO", memo.UnitMemo(memo_path))


class TestScheduler:
    def test_inline_execution_matches_direct_run(self, tmp_path):
        async def scenario():
            scheduler = _scheduler()
            job = await scheduler.submit(SPEC)
            await job.done
            await scheduler.close()
            return job

        job = _run_async(scenario())
        assert job.status is JobStatus.DONE
        assert job.payload == _direct_payload(SPEC, tmp_path)
        assert job.digest == proto.result_digest(job.payload)
        assert not job.cached and not job.degraded

    def test_inflight_duplicates_share_one_job(self):
        async def scenario():
            scheduler = _scheduler()
            first = await scheduler.submit(SPEC)
            second = await scheduler.submit(_spec(experiment_id="other"))
            await first.done
            stats = scheduler.stats()
            await scheduler.close()
            return first, second, stats

        first, second, stats = _run_async(scenario())
        assert first is second
        assert stats["submitted"] == 2
        assert stats["unique_jobs"] == 1
        assert stats["dedup_inflight"] == 1
        assert stats["dedup_hit_rate"] == 0.5

    def test_result_store_replays_across_scheduler_restarts(
        self, tmp_path, monkeypatch
    ):
        memo_path = tmp_path / "memo.sqlite"

        async def first_life():
            scheduler = _scheduler()
            job = await scheduler.submit(SPEC)
            await job.done
            await scheduler.close()
            return job.payload

        async def second_life():
            scheduler = _scheduler()
            job = await scheduler.submit(SPEC)
            # Replay resolves synchronously inside submit.
            assert job.finished
            stats = scheduler.stats()
            await scheduler.close()
            return job, stats

        _restart_memo(monkeypatch, memo_path)
        payload = _run_async(first_life())
        _restart_memo(monkeypatch, memo_path)
        job, stats = _run_async(second_life())
        assert job.cached
        assert job.payload == payload
        assert stats["dedup_cached"] == 1
        assert stats["result_store_hits"] == 1

    def test_result_store_misses_after_a_simulator_change(
        self, tmp_path, monkeypatch
    ):
        async def scenario():
            scheduler = _scheduler()
            job = await scheduler.submit(SPEC)
            await job.done
            stats = scheduler.stats()
            await scheduler.close()
            return job, stats

        def life():
            _restart_memo(monkeypatch, tmp_path / "memo.sqlite")
            return _run_async(scenario())

        life()
        real = memo.model_fingerprint()
        # A new fingerprint stands for edited simulator sources.
        monkeypatch.setattr(memo, "_MODEL_FINGERPRINT", "edited-simulator")
        job, stats = life()
        assert not job.cached
        assert stats["result_store_hits"] == 0
        monkeypatch.setattr(memo, "_MODEL_FINGERPRINT", real)
        job, stats = life()
        assert job.cached
        assert stats["result_store_hits"] == 1

    def test_cold_job_is_dispatched_at_admission(self):
        events = EventLog()

        async def scenario():
            scheduler = _scheduler(events=events)
            job = await scheduler.submit(SPEC)
            status = job.status
            await job.done
            await scheduler.close()
            return job, status

        job, status = _run_async(scenario())
        assert status is JobStatus.RUNNING
        kinds = [record.kind for record in events.records(source=job.key)]
        assert kinds[:2] == ["job.submitted", "job.started"]

    def test_drain_refuses_new_work_but_finishes_accepted(self):
        async def scenario():
            scheduler = _scheduler()
            job = await scheduler.submit(SPEC)
            await scheduler.drain()
            assert job.finished
            with pytest.raises(DrainingError):
                await scheduler.submit(_spec(seed=99))
            stats = scheduler.stats()
            await scheduler.close()
            return stats

        stats = _run_async(scenario())
        assert stats["draining"] is True
        assert stats["completed"] == 1
        assert stats["in_flight"] == 0

    def test_job_lifecycle_rides_the_event_timeline(self):
        events = EventLog()

        async def scenario():
            scheduler = _scheduler(events=events)
            job = await scheduler.submit(SPEC)
            await scheduler.submit(SPEC)  # dedup
            await job.done
            stats = scheduler.stats()
            await scheduler.close()
            return job, stats

        job, stats = _run_async(scenario())
        counts = events.counts
        assert counts["job.submitted"] == 2
        assert counts["job.dedup"] == 1
        assert counts["job.started"] == 1
        assert counts["job.completed"] == 1
        assert set(counts) <= set(JOB_EVENT_KINDS)
        assert stats["events"] == counts
        history = events.records(source=job.key)
        assert [record.kind for record in history] == [
            "job.submitted", "job.started", "job.submitted", "job.dedup",
            "job.completed",
        ]
        assert history[3].fields == {"via": "inflight"}
        assert history[-1].fields == {"outcome": "ok"}
        times = [record.time for record in history]
        assert times == sorted(times)


def _die_in_pool(unit, cache):
    """``execute_unit`` that SIGKILLs a pool worker; runs in-process."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_unit(unit, cache)


class TestPooledScheduler:
    """``jobs >= 2``: jobs run on a long-lived process pool."""

    def test_pool_results_equal_direct_runs(self, tmp_path, bounded):
        async def scenario():
            scheduler = _scheduler(jobs=2)
            jobs = [await scheduler.submit(_spec(seed=s)) for s in (1, 2, 3)]
            await asyncio.gather(*(job.done for job in jobs))
            stats = scheduler.stats()
            await scheduler.close()
            return jobs, stats

        jobs, stats = bounded(lambda: _run_async(scenario()))
        assert stats["jobs"] == 2
        assert stats["in_flight"] == 0 and stats["completed"] == 3
        for job in jobs:
            assert job.status is JobStatus.DONE and not job.degraded
            assert job.payload == _direct_payload(job.spec, tmp_path)

    def test_pool_stays_warm_across_submissions(self, bounded):
        # One pool (and its workers' trace caches) serves every job the
        # scheduler admits, not just the jobs in flight together.
        async def scenario():
            scheduler = _scheduler(jobs=2)
            first = [await scheduler.submit(_spec(seed=s)) for s in (1, 2)]
            await asyncio.gather(*(job.done for job in first))
            pool = scheduler._pool
            later = await scheduler.submit(_spec(seed=3))
            await later.done
            warm = pool is not None and scheduler._pool is pool
            stats = scheduler.stats()
            await scheduler.close()
            return first + [later], warm, stats

        jobs, warm, stats = bounded(lambda: _run_async(scenario()))
        assert warm
        assert stats["submitted"] == 3 and stats["completed"] == 3
        assert all(job.status is JobStatus.DONE for job in jobs)

    def test_killed_pool_worker_degrades_the_job_and_drain_returns(
        self, tmp_path, monkeypatch, bounded
    ):
        real = parallel.execute_unit
        monkeypatch.setattr(parallel, "execute_unit", _die_in_pool)

        async def scenario():
            scheduler = _scheduler(jobs=2)
            killed = await scheduler.submit(SPEC)
            await killed.done
            broken_pool_dropped = scheduler._pool is None
            # Workers forked from here on run the real unit.
            monkeypatch.setattr(parallel, "execute_unit", real)
            fresh = await scheduler.submit(_spec(seed=2))
            await scheduler.drain()
            stats = scheduler.stats()
            await scheduler.close()
            return killed, fresh, broken_pool_dropped, stats

        killed, fresh, dropped, stats = bounded(
            lambda: _run_async(scenario())
        )
        assert killed.status is JobStatus.DONE
        assert killed.degraded
        assert killed.payload == _direct_payload(SPEC, tmp_path)
        assert dropped
        assert fresh.status is JobStatus.DONE and not fresh.degraded
        assert stats["in_flight"] == 0 and stats["failed"] == 0


# ======================================================================
# Server (in-process, ephemeral loopback port)
# ======================================================================
class _AsyncClient:
    """Minimal asyncio frame client for in-process server tests."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server: ExperimentServer) -> "_AsyncClient":
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        client = cls(reader, writer)
        hello = await client.read()
        assert hello["type"] == "hello"
        assert hello["version"] == proto.PROTOCOL_VERSION
        return client

    async def send(self, message: dict) -> None:
        self.writer.write(proto.encode_message(message))
        await self.writer.drain()

    async def read(self) -> dict:
        line = await self.reader.readline()
        assert line, "server closed the connection"
        return proto.decode_message(line)

    async def read_until(self, kinds) -> dict:
        while True:
            frame = await self.read()
            if frame["type"] in kinds:
                return frame

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def _with_server(handler, **scheduler_kwargs):
    scheduler = _scheduler(**scheduler_kwargs)
    server = ExperimentServer(scheduler, port=0)
    await server.start()
    try:
        return await handler(server)
    finally:
        await server.shutdown()


class TestServer:
    def test_ping_stats_and_unknown_type(self):
        async def scenario(server):
            client = await _AsyncClient.connect(server)
            await client.send({"type": "ping"})
            assert (await client.read())["type"] == "pong"
            await client.send({"type": "stats"})
            stats = await client.read()
            assert stats["type"] == "stats"
            assert stats["submitted"] == 0
            await client.send({"type": "nope"})
            error = await client.read()
            assert (error["type"], error["code"]) == ("error", "unknown-type")
            await client.close()

        _run_async(_with_server(scenario))

    def test_submit_accepted_then_result(self, tmp_path):
        direct = _direct_payload(SPEC, tmp_path)

        async def scenario(server):
            client = await _AsyncClient.connect(server)
            await client.send(
                {"type": "submit", "id": "r1", "job": SPEC.to_wire()}
            )
            accepted = await client.read()
            assert accepted["type"] == "accepted"
            assert accepted["id"] == "r1"
            assert accepted["dedup"] == "new"
            assert accepted["key"] == proto.job_key(SPEC)
            # A cold job is dispatched before the accepted frame is sent.
            assert accepted["state"] == "running"
            result = await client.read_until({"result"})
            assert result["id"] == "r1"
            assert result["payload"] == direct
            assert result["digest"] == proto.result_digest(direct)
            await client.close()

        _run_async(_with_server(scenario))

    def test_duplicate_submissions_share_one_execution(self):
        async def scenario(server):
            client = await _AsyncClient.connect(server)
            await client.send(
                {"type": "submit", "id": "a", "job": SPEC.to_wire()}
            )
            await client.send(
                {"type": "submit", "id": "b", "job": SPEC.to_wire()}
            )
            frames = {}
            while len(frames) < 2:
                frame = await client.read_until({"result"})
                frames[frame["id"]] = frame
            await client.send({"type": "stats"})
            stats = await client.read_until({"stats"})
            await client.close()
            return frames, stats

        frames, stats = _run_async(_with_server(scenario))
        assert frames["a"]["payload"] == frames["b"]["payload"]
        assert frames["a"]["digest"] == frames["b"]["digest"]
        assert stats["submitted"] == 2
        assert stats["unique_jobs"] == 1
        assert stats["dedup_hits"] == 1

    def test_bad_job_gets_an_error_frame(self):
        async def scenario(server):
            client = await _AsyncClient.connect(server)
            bad = dict(SPEC.to_wire(), workload="no-such-workload")
            await client.send({"type": "submit", "id": "r1", "job": bad})
            error = await client.read_until({"error"})
            assert error["id"] == "r1"
            assert error["code"] == "bad-job"
            await client.close()

        _run_async(_with_server(scenario))

    def test_undecodable_line_is_an_error_not_a_crash(self):
        async def scenario(server):
            client = await _AsyncClient.connect(server)
            client.writer.write(b"this is not json\n")
            await client.writer.drain()
            error = await client.read_until({"error"})
            assert error["code"] == "protocol"
            # The connection survives a protocol error.
            await client.send({"type": "ping"})
            assert (await client.read_until({"pong"}))["type"] == "pong"
            await client.close()

        _run_async(_with_server(scenario))

    def test_bye_reports_dropped_progress(self):
        async def scenario(server):
            client = await _AsyncClient.connect(server)
            await client.send({"type": "bye"})
            bye = await client.read_until({"bye"})
            assert bye["dropped_progress"] == 0
            await client.close()

        _run_async(_with_server(scenario))

    def test_shutdown_racing_a_bye_finishes_promptly(self, monkeypatch):
        # Land a shutdown in the window after a session has queued its
        # writer sentinel (right after ``bye``) but before the session
        # is torn down.  A ``draining`` post queued behind the sentinel
        # is never consumed, so a shutdown that waited for that queue to
        # flush would sit out its whole 15 s timeout.
        original = _ClientSession.drain_writer
        shutdowns = []

        async def drain_then_shutdown(session):
            await original(session)
            started = time.monotonic()
            shutdowns.append(
                (started, asyncio.create_task(session.server.shutdown()))
            )
            # Hold the teardown back until the shutdown has had time to
            # post to this session and collect the queues to flush.
            await asyncio.sleep(0.05)

        monkeypatch.setattr(_ClientSession, "drain_writer", drain_then_shutdown)

        async def scenario():
            server = ExperimentServer(_scheduler(), port=0)
            await server.start()
            client = await _AsyncClient.connect(server)
            await client.send({"type": "bye"})
            assert (await client.read_until({"bye"}))["type"] == "bye"
            while not shutdowns:
                await asyncio.sleep(0.001)
            started, shutdown = shutdowns[0]
            await shutdown
            elapsed = time.monotonic() - started
            await client.close()
            return elapsed

        assert _run_async(scenario(), timeout=30.0) < 1.0

    def test_shutdown_drains_accepted_jobs_then_refuses(self, caplog):
        async def scenario():
            scheduler = _scheduler()
            server = ExperimentServer(scheduler, port=0)
            await server.start()
            # A listener that errors while closing must be logged with
            # its address on the drain path, never silently swallowed.
            for listener in server._servers:

                async def wait_closed_raises():
                    raise ConnectionResetError("listener torn down")

                listener.wait_closed = wait_closed_raises
            client = await _AsyncClient.connect(server)
            await client.send(
                {"type": "submit", "id": "r1", "job": SPEC.to_wire()}
            )
            accepted = await client.read_until({"accepted"})
            assert accepted["id"] == "r1"
            # Shut down with the job accepted but (possibly) unfinished:
            # the result must still be delivered.
            shutdown = asyncio.create_task(server.shutdown())
            result = await client.read_until({"result"})
            assert result["id"] == "r1"
            await shutdown
            # The still-open session now refuses new work.
            await client.send(
                {"type": "submit", "id": "r2", "job": _spec(seed=7).to_wire()}
            )
            refused = await client.read_until({"error"})
            assert refused["code"] == "draining"
            await client.close()
            return scheduler.stats()

        with caplog.at_level("DEBUG", logger="repro.service.server"):
            stats = _run_async(scenario())
        assert stats["draining"] is True
        assert stats["completed"] == 1
        drain_logs = [
            record for record in caplog.records
            if "failed to close" in record.getMessage()
        ]
        assert drain_logs, "listener close failure on drain was not logged"

    def test_blocking_service_client_against_inprocess_server(self, tmp_path):
        specs = [SPEC, _spec(design="dolos-post"), SPEC]
        direct = {
            spec.design: _direct_payload(spec, tmp_path) for spec in specs
        }

        def client_work(port: int):
            with ServiceClient(("127.0.0.1", port)) as client:
                assert client.ping()["type"] == "pong"
                frames = client.submit_many(specs)
                stats = client.stats()
            return frames, stats

        async def scenario(server):
            return await asyncio.to_thread(client_work, server.port)

        frames, stats = _run_async(_with_server(scenario))
        for spec, frame in zip(specs, frames):
            assert frame["payload"] == direct[spec.design]
        assert stats["submitted"] == 3
        assert stats["unique_jobs"] == 2
        assert stats["dedup_hits"] == 1


class TestTokenBucket:
    def test_burst_then_refill(self):
        async def scenario():
            bucket = TokenBucket(rate=1000.0, burst=2)
            loop = asyncio.get_running_loop()
            start = loop.time()
            for _ in range(3):
                await bucket.acquire()
            return loop.time() - start

        elapsed = _run_async(scenario())
        # Two tokens are free (burst); the third waits ~1/rate seconds.
        assert elapsed >= 0.0005
        assert elapsed < 1.0
