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
2. **Execute** — run the recorded units over a ``multiprocessing`` pool
   (:func:`run_units`); workers share the persistent disk trace cache,
   so each trace is generated at most once across the whole sweep.
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

import multiprocessing
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.retry import RetryPolicy
from repro.config import SimConfig
from repro.harness.breakdown import CycleBreakdown, run_with_breakdown
from repro.harness.runner import RunResult, run_trace
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


#: Per-process unit memo (lazily constructed; see repro.harness.memo).
_UNIT_MEMO = None


def _unit_memo():
    global _UNIT_MEMO
    if _UNIT_MEMO is None:
        from repro.harness.memo import UnitMemo

        _UNIT_MEMO = UnitMemo()
    return _UNIT_MEMO


def execute_unit(unit: RunUnit, cache: TraceCache):
    """Simulate one unit, resolving its trace through ``cache``.

    Plain runs are replayed from the packed trace columns through the
    content-addressed unit memo — a unit whose op stream, config and
    simulator sources all match an earlier run is not resimulated.
    Breakdown runs replay the packed trace too but bypass the memo:
    their instrumented results carry per-span state it does not capture.
    """
    if unit.mode == "breakdown":
        trace = cache.get_packed(
            unit.workload, unit.transactions, unit.config.transaction_size,
            unit.seed,
        )
        return run_with_breakdown(
            unit.config, trace, unit.workload, unit.transactions
        )
    if unit.mode == "faults":
        # Fault units run the seeded injection campaign (crash sites +
        # recovery classification) instead of a plain simulation; their
        # result is the stable payload dict the fleet db records.
        from repro.faults.campaign import fault_unit_payload, run_fault_unit
        from repro.oracle.check import controller_matrix

        label = next(
            (
                name
                for name, config in controller_matrix().items()
                if config == unit.config
            ),
            getattr(unit.config.controller, "value", str(unit.config.controller)),
        )
        report = run_fault_unit(
            unit.workload,
            label,
            unit.config,
            unit.transactions,
            seed=unit.seed,
            sites=unit.fault_sites or 2,
        )
        return fault_unit_payload(report)
    if unit.mode == "scenario":
        # Scenario units replay an arrival-stamped open-loop trace and
        # return the JSON-shaped sojourn/queueing payload.  They bypass
        # the trace cache and unit memo: the stamped trace is built
        # fresh (it is cheap relative to simulation and keyed by more
        # knobs than the cache folds today).
        from repro.scenarios.loadcurve import run_scenario, scenario_tenants

        tenants = scenario_tenants(unit.workload, dict(unit.scenario))
        payload = run_scenario(
            unit.config,
            tenants,
            unit.transactions,
            seed=unit.seed,
            workload_name=unit.workload,
        )
        payload["kind"] = "scenario"
        return payload
    packed = cache.get_packed(
        unit.workload, unit.transactions, unit.config.transaction_size, unit.seed
    )
    return _unit_memo().run(
        unit.config, packed, unit.workload, unit.transactions
    )


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
_WORKER_CACHE: Optional[TraceCache] = None


def _init_worker(cache_dir) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = TraceCache(cache_dir)


def _execute_indexed(item):
    index, unit = item
    return index, execute_unit(unit, _WORKER_CACHE)


def _execute_pooled(unit: RunUnit):
    """Worker-side entry for :class:`WarmPool` submissions."""
    return execute_unit(unit, _WORKER_CACHE)


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


def _worker_timeout() -> Optional[float]:
    """Per-unit wall-clock limit (seconds); None (default) = unbounded."""
    env = os.environ.get("REPRO_WORKER_TIMEOUT", "").strip()
    return float(env) if env else None


def _worker_retries() -> int:
    env = os.environ.get("REPRO_WORKER_RETRIES", "").strip()
    return int(env) if env else 2


def _worker_backoff() -> float:
    env = os.environ.get("REPRO_WORKER_BACKOFF", "").strip()
    return float(env) if env else 0.05


def _worker_retry_policy() -> RetryPolicy:
    """Pool-replacement backoff as a shared :class:`RetryPolicy`.

    Jitter defaults to 0 so the parallel path stays bit-deterministic;
    ``REPRO_WORKER_RETRY_JITTER`` opts in when thundering-herd matters.
    """
    env = os.environ.get("REPRO_WORKER_RETRY_JITTER", "").strip()
    return RetryPolicy(
        attempts=_worker_retries() + 1,
        base_delay=_worker_backoff(),
        multiplier=2.0,
        max_delay=30.0,
        jitter=float(env) if env else 0.0,
    )


def _resilient_map(
    worker: Callable,
    initializer: Optional[Callable],
    initargs: tuple,
    items: List,
    jobs: int,
    serial_fn: Callable,
    label_fn: Callable[[object], str],
    failures: Optional[List[WorkerFailure]] = None,
    on_result: Optional[Callable[[int, object, object], None]] = None,
) -> List:
    """Pool-map ``worker`` over indexed ``items`` with retry + fallback.

    ``worker`` receives ``(index, item)`` and returns ``(index,
    payload)``.  A unit whose worker raises or exceeds
    ``REPRO_WORKER_TIMEOUT`` is retried on a *fresh* pool (up to
    ``REPRO_WORKER_RETRIES`` times, with exponential backoff); a unit
    that keeps failing is completed in-process by ``serial_fn`` so one
    bad worker cannot kill the sweep.  Hung workers die with their
    pool (context exit terminates).  Raises
    :class:`ParallelExecutionError` only when the serial fallback
    fails too.

    ``on_result(index, item, payload)`` streams each unit's completion
    the moment it lands (at most once per unit).  The callback is
    carried by this function, not by any one pool, so it keeps firing
    for units completed on a retry-replacement pool and for units the
    serial fallback finishes — a fleet recording results incrementally
    must not lose the units that needed a second pool.
    """
    timeout = _worker_timeout()
    policy = _worker_retry_policy()
    results: List = [None] * len(items)
    history: Dict[int, List[str]] = {}
    pending: List[Tuple[int, object]] = list(enumerate(items))
    ctx = multiprocessing.get_context(_START_METHOD)

    for attempt in range(policy.attempts):
        if not pending:
            break
        if attempt:
            time.sleep(policy.delay(attempt - 1))
        still_failing: List[Tuple[int, object]] = []
        with ctx.Pool(
            processes=min(jobs, len(pending)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            handles = [
                (index, item, pool.apply_async(worker, ((index, item),)))
                for index, item in pending
            ]
            for index, item, handle in handles:
                try:
                    got_index, payload = handle.get(timeout)
                except multiprocessing.TimeoutError:
                    history.setdefault(index, []).append(
                        f"timed out after {timeout}s"
                    )
                    still_failing.append((index, item))
                except Exception as exc:
                    history.setdefault(index, []).append(
                        f"{type(exc).__name__}: {exc}"
                    )
                    still_failing.append((index, item))
                else:
                    results[got_index] = payload
                    if on_result is not None:
                        on_result(got_index, item, payload)
                    if got_index in history and failures is not None:
                        failures.append(
                            WorkerFailure(
                                index=got_index,
                                label=label_fn(item),
                                attempts=len(history[got_index]) + 1,
                                error=history[got_index][-1],
                                resolution="retried",
                            )
                        )
            # Context exit terminates the pool, reaping hung workers.
        pending = still_failing

    for index, item in pending:
        errors = history.get(index, [])
        try:
            results[index] = serial_fn(item)
            if on_result is not None:
                on_result(index, item, results[index])
        except Exception as exc:
            if failures is not None:
                failures.append(
                    WorkerFailure(
                        index=index,
                        label=label_fn(item),
                        attempts=len(errors) + 1,
                        error=f"{type(exc).__name__}: {exc}",
                        resolution="failed",
                    )
                )
            raise ParallelExecutionError(
                f"unit {index} ({label_fn(item)}) failed after "
                f"{len(errors)} pool attempt(s) ({'; '.join(errors)}) "
                f"and the serial fallback: {type(exc).__name__}: {exc}"
            ) from exc
        if failures is not None:
            failures.append(
                WorkerFailure(
                    index=index,
                    label=label_fn(item),
                    attempts=len(errors) + 1,
                    error=errors[-1] if errors else "",
                    resolution="serial",
                )
            )
    return results


def report_failures(failures: List[WorkerFailure]) -> None:
    """Print a per-unit failure summary to stderr (empty list: silent)."""
    for failure in failures:
        print(
            f"[parallel] unit {failure.index} ({failure.label}): "
            f"{failure.resolution} after {failure.attempts} attempt(s)"
            + (f" — last error: {failure.error}" if failure.error else ""),
            file=sys.stderr,
        )


def run_units(
    units: Sequence[RunUnit],
    jobs: int,
    cache_dir=TraceCache.AUTO,
    failures: Optional[List[WorkerFailure]] = None,
    on_result: Optional[Callable[[int, RunUnit, object], None]] = None,
) -> List:
    """Execute ``units`` on ``jobs`` workers; results in input order.

    ``jobs <= 1`` runs serially in-process (no pool, easier debugging);
    either way the returned list lines up index-for-index with
    ``units``.  Crashed or hung workers are retried and finally
    degraded to in-process execution (see :func:`_resilient_map`); pass
    ``failures`` to collect the per-unit summary (it is also printed to
    stderr when the caller does not collect it).  ``on_result(index,
    unit, result)`` streams each completion as it lands, surviving
    retry-triggered pool replacement and the serial fallback.
    """
    units = list(units)
    if cache_dir is TraceCache.AUTO:
        cache_dir = default_cache_dir()
    if jobs <= 1 or len(units) <= 1:
        cache = TraceCache(cache_dir)
        results = []
        for index, unit in enumerate(units):
            result = execute_unit(unit, cache)
            results.append(result)
            if on_result is not None:
                on_result(index, unit, result)
        return results
    jobs = min(jobs, len(units))

    serial_cache: List[Optional[TraceCache]] = [None]

    def serial_fn(unit: RunUnit):
        if serial_cache[0] is None:
            serial_cache[0] = TraceCache(cache_dir)
        return execute_unit(unit, serial_cache[0])

    own_failures: List[WorkerFailure] = [] if failures is None else failures
    results = _resilient_map(
        _execute_indexed,
        _init_worker,
        (cache_dir,),
        units,
        jobs,
        serial_fn,
        lambda unit: f"{unit.workload} x{unit.transactions} {unit.mode}",
        own_failures,
        on_result=on_result,
    )
    if failures is None and own_failures:
        report_failures(own_failures)
    return results


# ----------------------------------------------------------------------
# Warm pool: long-lived workers with incremental completion callbacks
# ----------------------------------------------------------------------
class WarmPool:
    """A persistent worker pool that reports each unit as it finishes.

    :func:`run_units` is batch-shaped: it owns a pool for one call,
    blocks until every unit is done and returns results together —
    right for one-shot CLI sweeps, wrong for a long-lived service that
    admits jobs continuously and wants to stream completions.
    ``WarmPool`` keeps the workers (and their per-process trace caches)
    warm across submissions and invokes a caller-supplied callback for
    every unit the moment it completes.

    Callbacks run on the pool's result-handler *thread*; callers
    bridging into asyncio must trampoline through
    ``loop.call_soon_threadsafe``.  A unit whose worker raises is
    reported through the callback's ``error`` slot rather than raising
    out of the pool — the caller decides whether to retry (the
    :mod:`repro.service` scheduler falls back to in-process execution,
    mirroring :func:`_resilient_map`'s serial degrade).
    """

    def __init__(self, jobs: Optional[int] = None, cache_dir=TraceCache.AUTO):
        self.jobs = resolve_jobs(jobs)
        if cache_dir is TraceCache.AUTO:
            cache_dir = default_cache_dir()
        self.cache_dir = cache_dir
        self._ctx = multiprocessing.get_context(_START_METHOD)
        self._pool = self._ctx.Pool(
            processes=self.jobs,
            initializer=_init_worker,
            initargs=(cache_dir,),
        )
        self._closed = False
        #: Units handed to workers since construction.
        self.submitted = 0
        #: Units whose callback has fired (success or error).
        self.completed = 0

    # -- submission ------------------------------------------------------
    def submit(
        self,
        unit: RunUnit,
        on_done: Callable[[RunUnit, object, Optional[BaseException]], None],
    ) -> None:
        """Queue ``unit``; call ``on_done(unit, result, error)`` when done.

        Exactly one of ``result``/``error`` is meaningful: ``error`` is
        ``None`` on success.  Never blocks — the pool's internal task
        queue is unbounded, so admission control (backpressure) belongs
        to the caller.
        """
        if self._closed:
            raise RuntimeError("WarmPool is closed")
        self.submitted += 1

        def _ok(result, _unit=unit):
            self.completed += 1
            on_done(_unit, result, None)

        def _err(exc, _unit=unit):
            self.completed += 1
            on_done(_unit, None, exc)

        self._pool.apply_async(
            _execute_pooled, (unit,), callback=_ok, error_callback=_err
        )

    # -- lifecycle -------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self.submitted - self.completed

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for in-flight units."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        if wait:
            self._pool.join()

    def terminate(self) -> None:
        """Kill workers immediately (in-flight units are abandoned)."""
        self._closed = True
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close(wait=True)
        else:
            self.terminate()


_FAN_OUT_FN = None


def _init_fan_out(fn) -> None:
    global _FAN_OUT_FN
    _FAN_OUT_FN = fn


def _fan_out_indexed(item):
    index, value = item
    return index, _FAN_OUT_FN(value)


def fan_out(
    fn,
    items: Sequence,
    jobs: int,
    failures: Optional[List[WorkerFailure]] = None,
    on_result: Optional[Callable[[int, object, object], None]] = None,
) -> List:
    """Map ``fn`` over ``items`` on ``jobs`` worker processes.

    The generic sibling of :func:`run_units` for work that is not a
    :class:`RunUnit` (e.g. the crash-oracle's per-controller sweeps).
    ``fn`` and each item must be picklable under the fork start method;
    results line up index-for-index with ``items``.  ``jobs <= 1`` runs
    serially in-process.  Failing or hung workers are retried then
    degraded to in-process execution, exactly as in :func:`run_units`.

    ``on_result(index, item, result)`` is the streaming per-item
    completion callback.  It is registered with the retry machinery
    itself rather than with the first pool, so when a crashed worker
    forces the pool to be replaced, the callback is re-registered on
    the fresh pool and still fires exactly once per item.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            results.append(result)
            if on_result is not None:
                on_result(index, item, result)
        return results
    jobs = min(jobs, len(items))
    own_failures: List[WorkerFailure] = [] if failures is None else failures
    results = _resilient_map(
        _fan_out_indexed,
        _init_fan_out,
        (fn,),
        items,
        jobs,
        fn,
        lambda item: repr(item)[:80],
        own_failures,
        on_result=on_result,
    )
    if failures is None and own_failures:
        report_failures(own_failures)
    return results


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
