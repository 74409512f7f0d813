"""Job admission: dedup, dispatch, the worker pool, and drain.

The scheduler is the single-writer owner of all job state; it runs on
the server's asyncio loop, so no locks are needed — each job is one
coroutine that awaits its result, whether a worker thread or a pool
process computes it.

Admission pipeline for one ``submit``:

1. **Key** the spec: build its run unit once and key it with the
   process's :class:`~repro.harness.memo.UnitMemo` — the key
   :func:`repro.service.protocol.job_key` returns.
2. **Dedup** — a job with the same key admitted earlier in this
   scheduler's life (running or finished) is shared
   (``dedup="inflight"``); a result the memo — the same one-result
   cache :func:`~repro.harness.parallel.execute_unit` fills — holds
   under that key replays from disk with its payload digest
   re-verified (``dedup="cached"``); otherwise the job is new.  Memo
   keys name the run unit and the simulator sources, so the replay
   needs no trace and a server restarted after a simulator change
   re-runs the job instead of replaying a payload the old code
   computed.
3. **Dispatch** — a new job starts before ``submit`` returns.  Each
   job is its own submission, and every caller waits for one result
   before sending its next request, so holding jobs back to group them
   would only add latency.
4. **Execute** — ``jobs <= 1`` runs
   :func:`repro.harness.parallel.execute_unit` on a thread;
   ``jobs >= 2`` submits :func:`repro.harness.parallel.run_unit` to a
   long-lived :func:`~repro.harness.parallel.process_pool` whose
   workers keep their trace caches warm across jobs.  Results are
   identical either way.  A job whose pool worker raises or dies gets
   one in-process retry and is marked ``degraded``; a pool that a dead
   worker broke is replaced by a fresh one for the next job.
5. **Complete** — the result payload is digest-stamped (the unit memo
   stored the result when it ran), and every waiter's future resolves.

``drain()`` implements graceful shutdown: new submissions are refused,
but every *accepted* job completes and reaches its waiters before
drain returns.
"""

from __future__ import annotations

import asyncio
import enum
from concurrent.futures import BrokenExecutor, Executor
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.harness.parallel import (
    RunUnit,
    execute_unit,
    process_pool,
    run_unit,
    unit_memo,
)
from repro.harness.trace_store import TraceCache
from repro.instrumentation import EventLog
from repro.service.protocol import (
    JobSpec,
    result_digest,
    result_payload,
    spec_to_run_unit,
)

#: The job-lifecycle kinds the scheduler records, in lifecycle order.
#: Each record's source is the job key; ``job.submitted`` carries the
#: ``experiment`` label, ``job.dedup`` ``via`` (``inflight`` or
#: ``cached``), ``job.completed`` ``outcome`` (``ok``, ``error`` or
#: ``degraded``).
JOB_EVENT_KINDS = ("job.submitted", "job.dedup", "job.started", "job.completed")


class DrainingError(RuntimeError):
    """Submission refused: the scheduler is draining for shutdown."""


class JobStatus(enum.Enum):
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One deduplicated unit of work and everyone waiting on it."""

    key: str
    spec: JobSpec
    unit: RunUnit
    #: RUNNING from admission (dispatch does not wait) until terminal.
    status: JobStatus = JobStatus.RUNNING
    payload: Optional[dict] = None
    digest: Optional[str] = None
    error: Optional[str] = None
    #: Replayed from the unit memo at admission (no simulation ran).
    cached: bool = False
    #: Its pool worker raised or died, so it ran again in-process.
    degraded: bool = False
    #: Resolved (with this Job) when the job reaches a terminal state.
    done: asyncio.Future = field(default_factory=asyncio.Future)

    @property
    def finished(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.FAILED)


class ExperimentScheduler:
    """Dedup + dispatch front of the simulation pool (single-loop)."""

    def __init__(
        self,
        jobs: int = 1,
        events: Optional[EventLog] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.events = events if events is not None else EventLog()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[Executor] = None
        self._thread_cache: Optional[TraceCache] = None
        self._tasks: Set[asyncio.Task] = set()
        self._jobs: Dict[str, Job] = {}
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        # -- counters (the ``stats`` wire reply) --
        #: Jobs started and not yet completed; ``_idle`` is set at 0.
        self.in_flight = 0
        self.submitted = 0
        self.dedup_inflight = 0
        self.dedup_cached = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec) -> Job:
        """Admit one job; returns its (possibly shared) :class:`Job`.

        The returned job is finished (cache replay / dedup against a
        completed job) or already running; await ``job.done``.
        """
        self._loop = asyncio.get_running_loop()
        if self._draining:
            raise DrainingError("server is draining; job refused")
        memo = unit_memo()
        unit = spec_to_run_unit(spec)
        key = memo.key_for(unit)
        self.submitted += 1
        self.events.record(key, "job.submitted", experiment=spec.experiment_id)

        existing = self._jobs.get(key)
        if existing is not None:
            self.dedup_inflight += 1
            self.events.record(key, "job.dedup", via="inflight")
            return existing

        job = Job(key=key, spec=spec, unit=unit)
        self._jobs[key] = job

        result = memo.load(key, unit.mode)
        if result is not None:
            self.dedup_cached += 1
            job.cached = True
            self.events.record(key, "job.dedup", via="cached")
            self._finish(job, result=result)
            return job

        self.in_flight += 1
        self._idle.clear()
        self.events.record(key, "job.started")
        task = self._loop.create_task(self._run(job))
        self._tasks.add(task)  # the loop holds tasks weakly
        task.add_done_callback(self._tasks.discard)
        return job

    async def _run(self, job: Job) -> None:
        """Compute ``job`` on the pool (``jobs >= 2``) or a thread."""
        try:
            if self.jobs >= 2:
                if self._pool is None:
                    self._pool = process_pool(self.jobs)
                pool = self._pool
                try:
                    result = await asyncio.wrap_future(
                        pool.submit(run_unit, job.unit)
                    )
                except Exception as exc:
                    broken = isinstance(exc, BrokenExecutor)
                    if broken and pool is self._pool:
                        self._pool = None
                        pool.shutdown(wait=False)
                    job.degraded = True
            if self.jobs == 1 or job.degraded:
                if self._thread_cache is None:
                    self._thread_cache = TraceCache()
                result = await asyncio.to_thread(
                    execute_unit, job.unit, self._thread_cache
                )
        except Exception as exc:
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
        else:
            self._finish(job, result=result)
        self.in_flight -= 1
        if not self.in_flight:
            self._idle.set()

    def _finish(
        self, job: Job, result=None, error: Optional[str] = None
    ) -> None:
        if error is not None:
            job.status = JobStatus.FAILED
            job.error = error
            self.failed += 1
            outcome = "error"
        else:
            job.payload = result_payload(result)
            job.digest = result_digest(job.payload)
            job.status = JobStatus.DONE
            self.completed += 1
            outcome = "degraded" if job.degraded else "ok"
        self.events.record(job.key, "job.completed", outcome=outcome)
        if not job.done.done():
            job.done.set_result(job)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters for the wire ``stats`` reply and the smoke test."""
        dedup_hits = self.dedup_inflight + self.dedup_cached
        return {
            "submitted": self.submitted,
            "unique_jobs": len(self._jobs),
            "in_flight": self.in_flight,
            "completed": self.completed,
            "failed": self.failed,
            "dedup_inflight": self.dedup_inflight,
            "dedup_cached": self.dedup_cached,
            "dedup_hits": dedup_hits,
            "dedup_hit_rate": (
                dedup_hits / self.submitted if self.submitted else 0.0
            ),
            "result_store_hits": self.dedup_cached,
            "events": {
                kind: self.events.counts.get(kind, 0)
                for kind in JOB_EVENT_KINDS
            },
            "draining": self._draining,
            "jobs": self.jobs,
        }

    # -- shutdown --------------------------------------------------------
    async def drain(self) -> None:
        """Refuse new work, then wait until every accepted job finishes."""
        self._draining = True
        await self._idle.wait()

    async def close(self) -> None:
        """Drain, then release the worker pool."""
        await self.drain()
        if self._pool is not None:
            await asyncio.to_thread(self._pool.shutdown, True)
            self._pool = None
