"""Job admission: dedup, dispatch, the warm pool, and drain.

The scheduler is the single-writer owner of all job state; it runs on
the server's asyncio loop, so no locks are needed — pool completion
callbacks (which arrive on the pool's result-handler thread) are
trampolined back onto the loop with ``call_soon_threadsafe``.

Admission pipeline for one ``submit``:

1. **Key** the spec (:func:`repro.service.protocol.job_key`).
2. **Dedup** — a job with the same key admitted earlier in this
   scheduler's life (running or finished) is shared
   (``dedup="inflight"``); a result in the process's
   :class:`~repro.harness.memo.UnitMemo` — the same one-result cache
   :func:`~repro.harness.parallel.execute_unit` fills — replays from
   disk with its payload digest re-verified (``dedup="cached"``);
   otherwise the job is new.  Memo keys name the run unit and the
   simulator sources, so the lookup needs no trace and a server
   restarted after a simulator change re-runs the job instead of
   replaying a payload the old code computed.
3. **Dispatch** — a new job starts before ``submit`` returns.  Each
   job is its own pool submission, and every caller waits for one
   result before sending its next request, so holding jobs back to
   group them would only add latency.
4. **Execute** — jobs run on a shared
   :class:`~repro.harness.parallel.WarmPool` (``jobs >= 2``) or an
   in-process thread (``jobs <= 1``; identical results either way,
   both run :func:`repro.harness.parallel.execute_unit`).  A unit
   whose worker dies is retried once in-process — the service-side
   analogue of :func:`repro.harness.parallel._resilient_map`'s serial
   degrade — before the job is failed.
5. **Complete** — the result payload is digest-stamped (the unit memo
   stored the result when it ran), and every waiter's future resolves.

``drain()`` implements graceful shutdown: new submissions are refused,
but every *accepted* job completes and reaches its waiters before
drain returns.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.harness.parallel import WarmPool, execute_unit, RunUnit, unit_memo
from repro.harness.trace_store import TraceCache
from repro.service.protocol import (
    JobSpec,
    job_key,
    result_digest,
    result_payload,
    spec_to_run_unit,
)
from repro.tracing.progress import JobEventLog


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
    #: Completed by the in-process retry after a worker death.
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
        events: Optional[JobEventLog] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.events = events if events is not None else JobEventLog()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[WarmPool] = None
        self._thread_cache: Optional[TraceCache] = None
        self._jobs: Dict[str, Job] = {}
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        # -- counters (the ``stats`` wire reply) --
        self.submitted = 0
        self.dedup_inflight = 0
        self.dedup_cached = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------
    def _emit(self, kind: str, detail: str) -> None:
        loop = self._loop or asyncio.get_event_loop()
        self.events.event(int(loop.time() * 1e6), kind, detail)

    async def submit(self, spec: JobSpec) -> Job:
        """Admit one job; returns its (possibly shared) :class:`Job`.

        The returned job is finished (cache replay / dedup against a
        completed job) or already running; await ``job.done``.
        """
        self._loop = asyncio.get_running_loop()
        if self._draining:
            raise DrainingError("server is draining; job refused")
        key = job_key(spec)
        self.submitted += 1
        self._emit("job.submitted", f"{key}:{spec.experiment_id or '-'}")

        existing = self._jobs.get(key)
        if existing is not None:
            self.dedup_inflight += 1
            self._emit("job.dedup", f"{key}:inflight")
            return existing

        job = Job(key=key, spec=spec, unit=spec_to_run_unit(spec))
        self._jobs[key] = job

        result = unit_memo().lookup(job.unit)
        if result is not None:
            self.dedup_cached += 1
            job.cached = True
            self._emit("job.dedup", f"{key}:cached")
            self._finish(job, result=result)
            return job

        self._idle.clear()
        self._dispatch(job)
        return job

    def _dispatch(self, job: Job) -> None:
        self._emit("job.started", job.key)
        if self.jobs >= 2:
            self._ensure_pool().submit(job.unit, self._pool_done(job))
        else:
            task = self._loop.create_task(self._run_inline(job))
            task.add_done_callback(lambda _t: None)

    def _ensure_pool(self) -> WarmPool:
        if self._pool is None:
            self._pool = WarmPool(self.jobs)
        return self._pool

    # -- completion paths ------------------------------------------------
    def _pool_done(self, job: Job):
        loop = self._loop

        def on_done(_unit, result, error):
            # Pool result-handler thread -> loop thread.
            loop.call_soon_threadsafe(self._pool_landed, job, result, error)

        return on_done

    def _pool_landed(self, job: Job, result, error) -> None:
        if error is None:
            self._finish(job, result=result)
            return
        # Worker died: one in-process retry before failing the job.
        task = self._loop.create_task(self._run_inline(job, degraded=True))
        task.add_done_callback(lambda _t: None)

    async def _run_inline(self, job: Job, degraded: bool = False) -> None:
        if self._thread_cache is None:
            self._thread_cache = TraceCache()
        try:
            result = await asyncio.to_thread(
                execute_unit, job.unit, self._thread_cache
            )
        except Exception as exc:
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
            return
        job.degraded = degraded
        self._finish(job, result=result)

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
        self._emit("job.completed", f"{job.key}:{outcome}")
        if not job.done.done():
            job.done.set_result(job)
        if not any(not j.finished for j in self._jobs.values()):
            self._idle.set()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters for the wire ``stats`` reply and the smoke test."""
        in_flight = sum(1 for j in self._jobs.values() if not j.finished)
        dedup_hits = self.dedup_inflight + self.dedup_cached
        return {
            "submitted": self.submitted,
            "unique_jobs": len(self._jobs),
            "in_flight": in_flight,
            "completed": self.completed,
            "failed": self.failed,
            "dedup_inflight": self.dedup_inflight,
            "dedup_cached": self.dedup_cached,
            "dedup_hits": dedup_hits,
            "dedup_hit_rate": (
                dedup_hits / self.submitted if self.submitted else 0.0
            ),
            "result_store_hits": self.dedup_cached,
            "events": self.events.snapshot(),
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
            await asyncio.to_thread(self._pool.close, True)
            self._pool = None
