"""Parallel experiment engine + persistent trace cache.

The contract under test is the acceptance bar of the parallel harness:
``--jobs N`` must be a pure wall-clock optimisation — every table row,
summary value and note bit-identical to the serial run — and the disk
trace cache must round-trip traces exactly.
"""

import multiprocessing
import os
import signal
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.config import eager_config
from repro.harness import parallel
from repro.harness.experiments import run_experiment
from repro.harness.parallel import (
    ParallelExecutionError,
    RecordingExecutor,
    ReplayExecutor,
    RunUnit,
    executor_scope,
    fan_out,
    report_failures,
    resolve_jobs,
    run_units,
)
from repro.harness.runner import RunResult, run_trace
from repro.harness.trace_store import TraceCache, TraceStore
from repro.workloads import generate_trace

TXNS = 40
SEED = 1

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    and "spawn" not in multiprocessing.get_all_start_methods(),
    reason="no usable multiprocessing start method",
)


def _result_fields(result):
    return (
        result.experiment,
        result.title,
        result.headers,
        result.rows,
        result.summary,
        result.notes,
    )


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("name", ["fig06", "tab02"])
    def test_jobs4_matches_jobs1(self, name, tmp_path):
        serial = run_experiment(
            name, jobs=1, transactions=TXNS, seed=SEED
        )
        parallel = run_experiment(
            name, jobs=4, cache_dir=tmp_path, transactions=TXNS, seed=SEED
        )
        assert _result_fields(serial) == _result_fields(parallel)

    def test_breakdown_units_parallelise(self, tmp_path):
        serial = run_experiment("breakdown", jobs=1, transactions=TXNS, seed=SEED)
        parallel = run_experiment(
            "breakdown", jobs=2, cache_dir=tmp_path, transactions=TXNS, seed=SEED
        )
        assert _result_fields(serial) == _result_fields(parallel)

    def test_static_experiment_passthrough(self):
        # tab03 has no run units; jobs>1 must not change (or break) it.
        assert _result_fields(run_experiment("tab03", jobs=4)) == _result_fields(
            run_experiment("tab03")
        )

    def test_run_units_order_matches_input(self, tmp_path):
        units = [
            RunUnit("hashmap", eager_config(), TXNS, SEED),
            RunUnit("btree", eager_config(), TXNS, SEED),
        ]
        serial = run_units(units, jobs=1, cache_dir=tmp_path)
        pooled = run_units(units, jobs=2, cache_dir=tmp_path)
        for a, b in zip(serial, pooled):
            assert isinstance(a, RunResult) and isinstance(b, RunResult)
            assert (a.workload, a.cycles, a.stats) == (b.workload, b.cycles, b.stats)
        assert [r.workload for r in pooled] == ["hashmap", "btree"]


class TestExecutors:
    def test_recording_then_replay(self, tmp_path):
        unit = RunUnit("hashmap", eager_config(), TXNS, SEED)
        recorder = RecordingExecutor()
        with executor_scope(recorder):
            placeholder = recorder.run(unit)
        assert placeholder.cycles == 1
        assert recorder.units == [unit]

        real = run_units([unit], jobs=1, cache_dir=tmp_path)[0]
        replay = ReplayExecutor({unit: real}, cache_dir=tmp_path)
        assert replay.run(unit) is real
        assert replay.fallback_units == []

    def test_replay_falls_back_on_unknown_unit(self, tmp_path):
        unit = RunUnit("hashmap", eager_config(), TXNS, SEED)
        replay = ReplayExecutor({}, cache_dir=tmp_path)
        result = replay.run(unit)
        assert replay.fallback_units == [unit]
        trace = generate_trace("hashmap", TXNS, 1024, SEED)
        assert result.cycles == run_trace(eager_config(), trace).cycles

    def test_units_dedup_preserves_order(self):
        recorder = RecordingExecutor()
        a = RunUnit("hashmap", eager_config(), TXNS, SEED)
        b = RunUnit("btree", eager_config(), TXNS, SEED)
        for unit in (a, b, a):
            recorder.run(unit)
        assert recorder.units == [a, b]


# ----------------------------------------------------------------------
# Self-healing: crashed and hung workers must not kill a sweep.
#
# Workers must be module-level (picklable under fork/spawn); they key
# their misbehaviour off ``multiprocessing.parent_process()`` so the
# same function is well-behaved when the in-process serial fallback
# runs it.
# ----------------------------------------------------------------------
_MARKER_ENV = "REPRO_TEST_FLAKY_DIR"


def _flaky_square(item):
    """Crash on each item's first pool attempt, succeed afterwards."""
    marker = Path(os.environ[_MARKER_ENV]) / f"seen-{item}"
    if not marker.exists():
        marker.write_text("crashed once")
        raise RuntimeError(f"injected crash for {item}")
    return item * item


def _hang_in_pool(item):
    if multiprocessing.parent_process() is not None:
        time.sleep(60)
    return item + 1


def _raise_in_pool(item):
    if multiprocessing.parent_process() is not None:
        raise ValueError("worker poison")
    return item * 3


def _raise_everywhere(item):
    raise ValueError(f"unfixable {item}")


class TestWorkerResilience:
    def test_crashed_worker_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path))
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.01)
        failures = []
        results = fan_out(_flaky_square, [2, 3, 4], jobs=2, failures=failures)
        assert results == [4, 9, 16]
        assert failures and all(f.resolution == "retried" for f in failures)
        assert all("injected crash" in f.error for f in failures)

    def test_hung_worker_times_out_then_serial_matches_serial_run(
        self, monkeypatch
    ):
        monkeypatch.setattr(parallel, "WORKER_TIMEOUT", 0.5)
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 1)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        failures = []
        degraded = fan_out(_hang_in_pool, [5, 6], jobs=2, failures=failures)
        # The acceptance bar: results bit-identical to an all-serial run.
        assert degraded == fan_out(_hang_in_pool, [5, 6], jobs=1)
        assert {f.resolution for f in failures} == {"serial"}
        assert all("timed out" in f.error for f in failures)
        assert sorted(f.index for f in failures) == [0, 1]

    def test_poisoned_worker_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 1)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        failures = []
        results = fan_out(_raise_in_pool, [1, 2, 3], jobs=2, failures=failures)
        assert results == [3, 6, 9]
        assert {f.resolution for f in failures} == {"serial"}
        assert all(f.attempts == 3 for f in failures)  # 2 pool + 1 serial
        assert all("ValueError" in f.error for f in failures)

    def test_serial_fallback_failure_raises(self, monkeypatch):
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 0)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        failures = []
        with pytest.raises(ParallelExecutionError, match="serial fallback"):
            fan_out(_raise_everywhere, [1, 2], jobs=2, failures=failures)
        assert failures and failures[0].resolution == "failed"

    def test_report_failures_prints_summary(self, capsys, monkeypatch):
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 1)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        failures = []
        fan_out(_raise_in_pool, [1, 2], jobs=2, failures=failures)
        report_failures(failures)
        err = capsys.readouterr().err
        assert "serial" in err and "ValueError" in err

    def test_uncollected_failures_still_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 1)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        assert fan_out(_raise_in_pool, [7, 8], jobs=2) == [21, 24]
        assert "[parallel]" in capsys.readouterr().err

    def test_backoff_is_exponential_and_capped(self, monkeypatch):
        """Pool n + 1 waits WORKER_BACKOFF * 2**n s, at most 30 s."""
        sleeps = []
        monkeypatch.setattr(
            parallel, "time", SimpleNamespace(sleep=sleeps.append)
        )
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 3)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 10.0)
        assert fan_out(_raise_in_pool, [1, 2], jobs=2, failures=[]) == [3, 6]
        assert sleeps == [10.0, 20.0, parallel.MAX_WORKER_BACKOFF]

    def test_run_units_survive_worker_timeout(self, tmp_path, monkeypatch):
        """End-to-end through run_units: with a timeout so tight every
        pool attempt dies, the sweep still completes serially and the
        results match an undisturbed serial run."""
        units = [
            RunUnit("hashmap", eager_config(), TXNS, SEED),
            RunUnit("btree", eager_config(), TXNS, SEED),
        ]
        serial = run_units(units, jobs=1, cache_dir=tmp_path)
        monkeypatch.setattr(parallel, "WORKER_TIMEOUT", 1e-06)
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 1)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        failures = []
        degraded = run_units(
            units, jobs=2, cache_dir=tmp_path, failures=failures
        )
        for a, b in zip(serial, degraded):
            assert (a.workload, a.cycles, a.stats) == (b.workload, b.cycles, b.stats)
        assert failures and {f.resolution for f in failures} == {"serial"}


class TestStreamingCallbacks:
    """``on_result`` must fire exactly once per item, every path.

    The hazard: a retried unit completes on a *replacement* pool (or in
    the serial fallback), not the pool that first ran it.  The callback
    rides the mapping function, not any one pool, so it must still fire
    for those items — and never twice for a unit that times out on one
    pool but later completes elsewhere.
    """

    def _collect(self):
        seen = []

        def on_result(index, item, result):
            seen.append((index, item, result))

        return seen, on_result

    def test_fires_once_per_item_after_retry_pool_replacement(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path))
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.01)
        seen, on_result = self._collect()
        failures = []
        results = fan_out(
            _flaky_square, [2, 3, 4], jobs=2, failures=failures,
            on_result=on_result,
        )
        assert results == [4, 9, 16]
        # Every item crashed its first pool and was retried on a fresh
        # one — yet each streamed exactly once, with the right value.
        assert failures and all(f.resolution == "retried" for f in failures)
        assert sorted(seen) == [(0, 2, 4), (1, 3, 9), (2, 4, 16)]

    def test_fires_once_per_item_in_serial_fallback(self, monkeypatch):
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 1)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        seen, on_result = self._collect()
        results = fan_out(
            _raise_in_pool, [1, 2, 3], jobs=2, on_result=on_result
        )
        assert results == [3, 6, 9]
        assert sorted(seen) == [(0, 1, 3), (1, 2, 6), (2, 3, 9)]

    def test_fires_in_pure_serial_mode(self):
        seen, on_result = self._collect()
        assert fan_out(
            lambda x: x + 1, [7, 8], jobs=1, on_result=on_result
        ) == [8, 9]
        assert seen == [(0, 7, 8), (1, 8, 9)]

    def test_run_units_streams_each_unit(self, tmp_path):
        units = [
            RunUnit("hashmap", eager_config(), TXNS, SEED),
            RunUnit("btree", eager_config(), TXNS, SEED),
        ]
        seen, on_result = self._collect()
        results = run_units(
            units, jobs=2, cache_dir=tmp_path, on_result=on_result
        )
        assert len(seen) == 2
        by_index = {index: result for index, _unit, result in seen}
        for index, result in enumerate(results):
            assert by_index[index].cycles == result.cycles


class TestResolveJobs:
    def test_explicit_value_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1


class TestDiskTraceCache:
    def test_cold_generate_warm_load_identical(self, tmp_path):
        cold = TraceCache(tmp_path)
        trace = cold.get("hashmap", TXNS, 1024, SEED)
        assert cold.store.misses == 1 and cold.store.hits == 0

        warm = TraceCache(tmp_path)
        loaded = warm.get("hashmap", TXNS, 1024, SEED)
        assert warm.store.hits == 1 and warm.store.misses == 0
        assert loaded == trace
        # ...and the replayed trace produces an identical RunResult.
        a = run_trace(eager_config(), trace, "hashmap", TXNS)
        b = run_trace(eager_config(), loaded, "hashmap", TXNS)
        assert (a.cycles, a.instructions, a.stats) == (
            b.cycles,
            b.instructions,
            b.stats,
        )

    def test_distinct_keys_distinct_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        keys = [
            ("hashmap", TXNS, 1024, SEED),
            ("hashmap", TXNS, 1024, SEED + 1),
            ("hashmap", TXNS + 1, 1024, SEED),
            ("hashmap", TXNS, 512, SEED),
            ("btree", TXNS, 1024, SEED),
        ]
        assert len({store.digest(k) for k in keys}) == len(keys)
        assert len({store.path_for(k) for k in keys}) == len(keys)

    def test_corrupt_entry_degrades_to_regeneration(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = cache.get("hashmap", TXNS, 1024, SEED)
        path = cache.store.path_for(("hashmap", TXNS, 1024, SEED))
        path.write_bytes(b"not an npz file")

        fresh = TraceCache(tmp_path)
        regenerated = fresh.get("hashmap", TXNS, 1024, SEED)
        assert regenerated == trace
        assert fresh.store.misses == 1

    def test_disabled_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        cache = TraceCache()
        assert cache.store is None
        cache.get("hashmap", TXNS, 1024, SEED)

    def test_env_dir_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "sub"))
        cache = TraceCache()
        cache.get("hashmap", TXNS, 1024, SEED)
        assert list((tmp_path / "sub").glob("*.trace"))

    def test_deterministic_across_hash_seeds(self, tmp_path):
        # Regression: trace generation once keyed the workload RNG off
        # salted str hash(), so traces differed per interpreter process.
        import pathlib
        import subprocess
        import sys

        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        script = (
            "from repro.workloads import generate_trace;"
            "import hashlib;"
            "t = generate_trace('hashmap', 20, 1024, 1);"
            "print(hashlib.sha256(repr(t).encode()).hexdigest())"
        )
        digests = set()
        for hash_seed in ("0", "1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": src,
                    "PATH": "/usr/bin:/bin",
                },
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


def _kill_in_pool(item):
    """SIGKILL the pool worker that runs ``item``; succeed in-process."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return item * 5


def _kill_once_in_pool(item):
    """SIGKILL each item's first pool worker, succeed afterwards."""
    marker = Path(os.environ[_MARKER_ENV]) / f"killed-{item}"
    if multiprocessing.parent_process() is not None and not marker.exists():
        marker.write_text("killed once")
        os.kill(os.getpid(), signal.SIGKILL)
    return item * 5


class TestWorkerDeath:
    """A pool worker that dies takes the path of one that raises."""

    def test_killed_worker_degrades_to_serial(self, monkeypatch, bounded):
        monkeypatch.setattr(parallel, "WORKER_RETRIES", 1)
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        failures, seen = [], []
        results = bounded(
            lambda: fan_out(
                _kill_in_pool, [1, 2, 3], jobs=2, failures=failures,
                on_result=lambda index, _item, _result: seen.append(index),
            )
        )
        assert results == fan_out(_kill_in_pool, [1, 2, 3], jobs=1)
        assert sorted(seen) == [0, 1, 2]  # once each, on the serial path
        assert {f.resolution for f in failures} == {"serial"}
        assert all("BrokenProcessPool" in f.error for f in failures)

    def test_killed_worker_is_retried_on_a_fresh_pool(
        self, tmp_path, monkeypatch, bounded
    ):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path))
        monkeypatch.setattr(parallel, "WORKER_BACKOFF", 0.0)
        failures = []
        results = bounded(
            lambda: fan_out(
                _kill_once_in_pool, [1, 2, 3], jobs=2, failures=failures
            )
        )
        assert results == [5, 10, 15]
        assert failures
        assert {f.resolution for f in failures} <= {"retried", "serial"}
