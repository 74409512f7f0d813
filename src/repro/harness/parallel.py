"""Parallel experiment engine: fan independent run units over processes.

Every paper experiment is a pure function of its *run units* — one
simulation per (workload, controller config, transactions, seed).  The
units are independent, so they can execute in any order on any worker;
only the surrounding arithmetic (speedup ratios, means, table rows)
cares about which result belongs to which unit.

The engine exploits that with a record/replay scheme that needs no
per-experiment orchestration code:

1. **Record** — run the experiment function once with a
   :class:`RecordingExecutor` installed.  Each ``_run`` call yields a
   cheap placeholder result while its :class:`RunUnit` is recorded (in
   first-request order, deduplicated).  No simulation happens.
2. **Execute** — run the recorded units over a process pool
   (:func:`run_units`, which is :func:`fan_out` over :func:`run_unit`);
   workers share the persistent disk trace cache, so each trace is
   generated at most once across the whole sweep.
3. **Replay** — run the experiment function again with a
   :class:`ReplayExecutor` that returns the real result for each unit.
   The replay performs the exact arithmetic of a serial run, in the
   same order, on the same values — so tables, summaries and exports
   are **bit-identical** to ``jobs=1`` output.

The scheme assumes an experiment requests the same units on both
passes — true for the paper's sweeps, whose unit set is a static
(workload × config) product.  If control flow ever diverges, the replay
executor falls back to simulating the missing unit serially, trading
speed for correctness.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import os
import sys
import time
from concurrent.futures import BrokenExecutor, Executor, Future
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.harness.breakdown import CycleBreakdown, run_with_breakdown
from repro.harness.memo import UnitMemo
from repro.harness.runner import RunResult
from repro.harness.trace_store import TraceCache, default_cache_dir

#: Fork keeps worker start cheap and inherits the warm interpreter; it
#: is the default on Linux.  Platforms without fork fall back to spawn.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class RunUnit:
    """One independent simulation: the unit of parallel work.

    Hashable (every field is frozen/immutable), so units key result
    maps directly.
    """

    workload: str
    config: SimConfig
    transactions: int
    seed: int
    #: ``"run"`` → :func:`repro.harness.runner.run_trace` →
    #: :class:`RunResult`; ``"breakdown"`` →
    #: :func:`repro.harness.breakdown.run_with_breakdown` →
    #: ``(RunResult, CycleBreakdown)``; ``"faults"`` →
    #: :func:`repro.faults.campaign.run_fault_unit` → payload dict;
    #: ``"scenario"`` → :func:`repro.scenarios.loadcurve.run_scenario`
    #: → open-loop sojourn/queueing payload dict.
    mode: str = "run"
    #: Interior crash sites per fault unit (``"faults"`` mode only).
    fault_sites: int = 0
    #: Arrival-process descriptor as sorted key/value pairs
    #: (``"scenario"`` mode only; tuple form keeps the unit hashable).
    scenario: Tuple = ()

    def __str__(self) -> str:
        return f"{self.workload} x{self.transactions} {self.mode}"


#: Per-process unit memo (lazily constructed; see repro.harness.memo).
_UNIT_MEMO: Optional[UnitMemo] = None


def unit_memo() -> UnitMemo:
    """This process's unit memo: the one result cache every path shares."""
    global _UNIT_MEMO
    if _UNIT_MEMO is None:
        _UNIT_MEMO = UnitMemo()
    return _UNIT_MEMO


def execute_unit(unit: RunUnit, cache: TraceCache):
    """Simulate one unit, resolving its trace through ``cache``.

    ``run``, ``faults`` and ``scenario`` units go through the unit
    memo: a unit already computed by the same simulator sources is
    replayed without loading a trace or simulating.  Breakdown runs
    replay the packed trace too but bypass the memo: their instrumented
    results carry per-span state it does not capture.
    """
    if unit.mode == "breakdown":
        trace = cache.get_packed(
            unit.workload, unit.transactions, unit.config.transaction_size,
            unit.seed,
        )
        return run_with_breakdown(
            unit.config, trace, unit.workload, unit.transactions
        )
    return unit_memo().run(unit, cache)


# ----------------------------------------------------------------------
# Executors (installed via executor_scope; consulted by experiments._run)
# ----------------------------------------------------------------------
class RecordingExecutor:
    """Discovery pass: record every requested unit, return placeholders."""

    def __init__(self) -> None:
        self._units: Dict[RunUnit, None] = {}

    @property
    def units(self) -> List[RunUnit]:
        """Recorded units, deduplicated, in first-request order."""
        return list(self._units)

    def run(self, unit: RunUnit):
        self._units[unit] = None
        placeholder = RunResult(
            workload=unit.workload,
            controller=unit.config.controller,
            misu_design=unit.config.misu_design,
            transactions=unit.transactions,
            payload_bytes=unit.config.transaction_size,
            cycles=1,
            instructions=1,
        )
        if unit.mode == "breakdown":
            return placeholder, CycleBreakdown(
                total=1, fence_stall=0, read_stall=0
            )
        return placeholder


class ReplayExecutor:
    """Replay pass: serve precomputed results keyed by unit."""

    def __init__(self, results: Dict[RunUnit, object], cache_dir=None) -> None:
        self._results = dict(results)
        self._cache_dir = cache_dir
        self._fallback_cache: Optional[TraceCache] = None
        #: Units the discovery pass missed (control-flow divergence).
        self.fallback_units: List[RunUnit] = []

    def run(self, unit: RunUnit):
        try:
            return self._results[unit]
        except KeyError:
            if self._fallback_cache is None:
                self._fallback_cache = TraceCache(self._cache_dir)
            self.fallback_units.append(unit)
            result = execute_unit(unit, self._fallback_cache)
            self._results[unit] = result
            return result


_ACTIVE = None


def active_executor():
    """The executor installed for the current record/replay pass, if any."""
    return _ACTIVE


@contextmanager
def executor_scope(executor):
    """Install ``executor`` for the duration of one experiment pass.

    Not thread-safe: the engine parallelises across *processes*; the
    coordinating process runs one pass at a time.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = executor
    try:
        yield executor
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# Process-pool execution
# ----------------------------------------------------------------------
def process_pool(jobs: int) -> Executor:
    """A ``ProcessPoolExecutor`` of ``jobs`` workers (imported on use)."""
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context(_START_METHOD)
    )


@functools.lru_cache(maxsize=1)
def _trace_cache(cache_dir) -> TraceCache:
    return TraceCache(cache_dir)


def run_unit(unit: RunUnit, cache_dir=TraceCache.AUTO):
    """Simulate ``unit`` on this process's trace cache for ``cache_dir``.

    A pool worker keeps that cache across every unit it runs, so each
    trace is loaded at most once per worker.
    """
    return execute_unit(unit, _trace_cache(cache_dir))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a ``--jobs`` request.

    ``None`` reads ``REPRO_JOBS`` (default 1); 0 or negative means
    "all cores".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# Worker resilience
# ----------------------------------------------------------------------
@dataclass
class WorkerFailure:
    """One unit's trip through the retry machinery."""

    index: int
    label: str
    attempts: int
    error: str
    #: ``"retried"`` (a later pool attempt succeeded), ``"serial"``
    #: (completed by the in-process fallback), or ``"failed"``.
    resolution: str


class ParallelExecutionError(RuntimeError):
    """A unit failed even in the serial fallback."""


#: Per-unit wall-clock limit of a pool attempt (seconds; None =
#: unbounded).  :func:`fan_out` reads these four at call time.
WORKER_TIMEOUT: Optional[float] = None
#: Fresh pools a failed unit is retried on before the serial fallback.
WORKER_RETRIES = 2
#: Sleep before the first replacement pool, doubling per pool (seconds).
WORKER_BACKOFF = 0.05
#: Cap on one pool-replacement backoff sleep (seconds).
MAX_WORKER_BACKOFF = 30.0


def report_failures(failures: List[WorkerFailure]) -> None:
    """Print a per-unit failure summary to stderr (empty list: silent)."""
    for failure in failures:
        print(
            f"[parallel] unit {failure.index} ({failure.label}): "
            f"{failure.resolution} after {failure.attempts} attempt(s)"
            + (f" — last error: {failure.error}" if failure.error else ""),
            file=sys.stderr,
        )


def _submit(pool: Executor, fn, item) -> Future:
    try:
        return pool.submit(fn, item)
    except BrokenExecutor as exc:
        # A worker died while the batch was still being submitted.
        future: Future = Future()
        future.set_exception(exc)
        return future


def fan_out(
    fn,
    items: Sequence,
    jobs: int,
    failures: Optional[List[WorkerFailure]] = None,
    on_result: Optional[Callable[[int, object, object], None]] = None,
) -> List:
    """Map ``fn`` over ``items`` on ``jobs`` worker processes.

    The one batch executor (sweeps via :func:`run_units`, the crash
    oracle, the fault campaign).  ``fn`` and each item must pickle;
    results line up with ``items``; ``jobs <= 1`` runs in-process.

    A unit whose worker raises, dies (``BrokenProcessPool``) or exceeds
    :data:`WORKER_TIMEOUT` is retried on a *fresh* pool up to
    :data:`WORKER_RETRIES` times, then completed in-process, so one bad
    worker cannot kill the sweep.  Pool ``n + 1`` starts after
    ``WORKER_BACKOFF * 2**n`` seconds, capped at
    :data:`MAX_WORKER_BACKOFF`.  Each such unit gets a
    :class:`WorkerFailure` in
    ``failures`` (else printed to stderr).  Raises
    :class:`ParallelExecutionError` only if the in-process run fails
    too.  ``on_result(index, item, result)`` fires exactly once per
    item, the moment its result lands.
    """
    items = list(items)
    results: List = [None] * len(items)

    def land(index: int, result) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, items[index], result)

    if jobs <= 1 or len(items) <= 1:
        for index, item in enumerate(items):
            land(index, fn(item))
        return results

    own_failures: List[WorkerFailure] = [] if failures is None else failures
    history: Dict[int, List[str]] = {}

    def note(index: int, resolution: str, error: str) -> None:
        own_failures.append(
            WorkerFailure(
                index=index,
                label=str(items[index])[:80],
                attempts=len(history[index]) + 1,
                error=error,
                resolution=resolution,
            )
        )

    timeout = WORKER_TIMEOUT
    pending = list(range(len(items)))
    for attempt in range(WORKER_RETRIES + 1):
        if not pending:
            break
        if attempt:
            # Unjittered, so the retry schedule is deterministic.
            time.sleep(
                min(MAX_WORKER_BACKOFF, WORKER_BACKOFF * 2 ** (attempt - 1))
            )
        pool = process_pool(min(jobs, len(pending)))
        hung = False
        try:
            futures = [
                (index, _submit(pool, fn, items[index])) for index in pending
            ]
            pending = []
            for index, future in futures:
                try:
                    result = future.result(timeout)
                except FuturesTimeout:
                    hung = True
                    error = f"timed out after {timeout}s"
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    land(index, result)
                    if index in history:
                        note(index, "retried", history[index][-1])
                    continue
                history.setdefault(index, []).append(error)
                pending.append(index)
        finally:
            if hung:
                # No public way to kill a hung worker before Python 3.14.
                for process in list(pool._processes.values()):
                    process.kill()
            pool.shutdown(wait=True)

    for index in pending:
        errors = history[index]
        try:
            result = fn(items[index])
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            note(index, "failed", error)
            raise ParallelExecutionError(
                f"unit {index} ({str(items[index])[:80]}) failed after "
                f"{len(errors)} pool attempt(s) ({'; '.join(errors)}) "
                f"and the serial fallback: {error}"
            ) from exc
        land(index, result)
        note(index, "serial", errors[-1])
    if failures is None and own_failures:
        report_failures(own_failures)
    return results


def run_units(
    units: Sequence[RunUnit],
    jobs: int,
    cache_dir=TraceCache.AUTO,
    failures: Optional[List[WorkerFailure]] = None,
    on_result: Optional[Callable[[int, RunUnit, object], None]] = None,
) -> List:
    """Execute ``units`` on ``jobs`` workers; results in input order.

    :func:`fan_out` over :func:`run_unit`, with the same retry, serial
    degrade, ``failures`` and ``on_result`` contract.  Units run in this
    process (``jobs <= 1``, or the fallback) share one trace cache, which
    is dropped when the call returns.
    """
    if cache_dir is TraceCache.AUTO:
        cache_dir = default_cache_dir()
    try:
        return fan_out(
            functools.partial(run_unit, cache_dir=cache_dir),
            units, jobs, failures, on_result,
        )
    finally:
        _trace_cache.cache_clear()


def run_experiment_parallel(
    name: str,
    jobs: int,
    cache_dir=TraceCache.AUTO,
    **kwargs,
):
    """Record/execute/replay one registered experiment on ``jobs`` workers.

    Returns the same :class:`~repro.harness.experiments.ExperimentResult`
    a serial ``run_experiment(name, **kwargs)`` would, bit-identically.
    """
    # Imported here: experiments.py imports this module at load time.
    from repro.harness.experiments import EXPERIMENTS

    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None

    recorder = RecordingExecutor()
    with executor_scope(recorder):
        discovery_result = fn(**kwargs)
    units = recorder.units
    if not units:
        # Static experiment (tab03, sec55): no run units were requested,
        # so the discovery pass already computed the real result.
        return discovery_result

    results = run_units(units, jobs, cache_dir)
    replay = ReplayExecutor(dict(zip(units, results)), cache_dir)
    with executor_scope(replay):
        return fn(**kwargs)
