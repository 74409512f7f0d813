"""Tests for the Timeline and EventLog instrumentation and multi-seed
statistics."""

import sys
import threading

import pytest

from repro.config import ControllerKind, CoreConfig, SimConfig
from repro.core.controller import make_controller
from repro.core.requests import WriteKind, WriteRequest
from repro.engine import Simulator
from repro.harness.multiseed import (
    MetricStats,
    compare,
    paired_speedups,
    sweep_seeds,
)
from repro.instrumentation import EventLog, Timeline


class TestTimeline:
    def test_sample_and_series(self):
        tl = Timeline()
        tl.sample(0, "x", 1.0)
        tl.sample(10, "x", 3.0)
        assert tl.series("x") == [(0, 1.0), (10, 3.0)]
        assert tl.channels() == ["x"]

    def test_summary(self):
        tl = Timeline()
        for t, v in enumerate([1, 2, 3, 3]):
            tl.sample(t, "x", v)
        summary = tl.summarize("x")
        assert summary.samples == 4
        assert summary.minimum == 1
        assert summary.maximum == 3
        assert summary.mean == pytest.approx(2.25)
        assert summary.at_maximum == pytest.approx(0.5)

    def test_empty_summary(self):
        assert Timeline().summarize("missing").samples == 0

    def test_events_bounded(self):
        tl = Timeline(max_events=2)
        for i in range(5):
            tl.event(i, "e")
        assert len(tl.events()) == 2
        assert tl.dropped_events == 3

    def test_event_filter(self):
        tl = Timeline()
        tl.event(0, "a")
        tl.event(1, "b")
        assert len(tl.events("a")) == 1

    def test_bucketize_shape(self):
        tl = Timeline()
        for t in range(100):
            tl.sample(t, "x", t)
        buckets = tl.bucketize("x", 10)
        assert len(buckets) == 10
        assert buckets[0] < buckets[-1]

    def test_sparkline_width(self):
        tl = Timeline()
        for t in range(100):
            tl.sample(t, "x", t % 7)
        assert len(tl.sparkline("x", width=40)) == 40

    def test_sparkline_empty(self):
        assert Timeline().sparkline("x") == ""

    def test_report_mentions_channels(self):
        tl = Timeline()
        tl.sample(0, "wpq", 5)
        assert "wpq" in tl.report()


class TestEventLog:
    def test_record_filter_and_payload(self):
        log = EventLog()
        log.record("worker-0", "worker-start", detail="incarnation 0")
        log.record("worker-0", "hang-detected", detail="stale")
        log.record("worker-1", "worker-start", detail="incarnation 0")
        assert len(log.records()) == 3
        assert [r.source for r in log.records("worker-start")] == [
            "worker-0",
            "worker-1",
        ]
        assert [r.kind for r in log.records(source="worker-0")] == [
            "worker-start",
            "hang-detected",
        ]
        payload = log.to_payload()
        assert set(payload[1]) == {"time", "source", "kind", "fields"}
        assert payload[1]["kind"] == "hang-detected"
        assert payload[1]["fields"] == {"detail": "stale"}
        assert payload[1]["time"] > 0

    def test_records_from_many_threads_stay_time_ordered(self):
        log = EventLog()

        def append(source):
            for index in range(500):
                log.record(source, "tick", index=index)

        threads = [
            threading.Thread(target=append, args=(f"t{n}",)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        times = [record.time for record in log.records()]
        assert len(times) == log.counts["tick"] == 8 * 500
        assert times == sorted(times)
        assert [r.fields["index"] for r in log.records(source="t2")] == list(
            range(500)
        )

    def test_bound_drops_records_but_counts_every_kind(self):
        ticks = iter(range(100))
        log = EventLog(clock=lambda: next(ticks))
        log.max_records = 2
        for kind in ("a", "b", "a", "c"):
            log.record("s", kind)
        assert [(r.time, r.kind) for r in log.records()] == [(0, "a"), (1, "b")]
        assert log.dropped == 2
        assert log.counts == {"a": 2, "b": 1, "c": 1}


class TestControllerTimeline:
    def test_occupancy_recorded(self):
        sim = Simulator()
        controller = make_controller(sim, SimConfig())
        tl = Timeline()
        controller.attach_timeline(tl)
        for i in range(5):
            controller.submit_write(
                WriteRequest(0x1000 + i * 64, WriteKind.PERSIST)
            )
        sim.run()
        summary = tl.summarize("wpq.occupancy")
        assert summary.samples > 0
        assert summary.maximum >= 1

    def test_retry_events_recorded(self):
        sim = Simulator()
        controller = make_controller(sim, SimConfig())
        tl = Timeline()
        controller.attach_timeline(tl)
        for i in range(40):
            controller.submit_write(
                WriteRequest(0x1000 + i * 64, WriteKind.PERSIST)
            )
        sim.run()
        assert len(tl.events("wpq.retry")) == controller.wpq.retry_events
        assert controller.wpq.retry_events > 0


class TestMetricStats:
    def test_mean_and_stdev(self):
        stats = MetricStats([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.stdev == pytest.approx(1.0)
        assert stats.n == 3

    def test_single_value_no_variance(self):
        stats = MetricStats([5.0])
        assert stats.stdev == 0.0
        assert stats.ci95() == 0.0

    def test_str_format(self):
        assert "n=2" in str(MetricStats([1.0, 2.0]))


class TestSeedSweeps:
    def test_sweep_runs_all_seeds(self):
        sweep = sweep_seeds(SimConfig(), "ctree", transactions=15, seeds=3)
        assert len(sweep.runs) == 3
        assert sweep.cycles.n == 3
        assert sweep.cycles.mean > 0

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            sweep_seeds(SimConfig(), "ctree", 10, seeds=0)

    def test_compare_speedup_above_one(self):
        baseline = SimConfig().with_(controller=ControllerKind.PRE_WPQ_SECURE)
        stats = compare(baseline, SimConfig(), "ctree", transactions=15, seeds=3)
        assert stats.n == 3
        assert stats.mean > 1.0


class TestStrictPersistency:
    def test_strict_slower_than_epoch(self):
        from repro.harness.runner import run_trace
        from repro.workloads import generate_trace

        trace = generate_trace("ctree", 20, 512, seed=1)
        epoch = run_trace(SimConfig(), trace, "t", 20)
        strict = run_trace(
            SimConfig().with_(core=CoreConfig(persist_model="strict")),
            trace, "t", 20,
        )
        assert strict.cycles > epoch.cycles

    def test_strict_amplifies_dolos_gain(self):
        from repro.harness.runner import run_trace, speedup
        from repro.workloads import generate_trace

        trace = generate_trace("ctree", 25, 1024, seed=1)

        def gain(core):
            baseline = run_trace(
                SimConfig().with_(
                    controller=ControllerKind.PRE_WPQ_SECURE, core=core
                ),
                trace, "t", 25,
            )
            dolos = run_trace(SimConfig().with_(core=core), trace, "t", 25)
            return speedup(baseline, dolos)

        assert gain(CoreConfig(persist_model="strict")) > gain(CoreConfig())


class TestPairedSweeps:
    """Regression: compare() must not silently truncate unequal sweeps."""

    def _sweep(self, n, first_seed=1):
        sweep = sweep_seeds(
            SimConfig(), "ctree", transactions=10, seeds=n, first_seed=first_seed
        )
        return sweep

    def test_length_mismatch_raises(self):
        base = self._sweep(3)
        fast = self._sweep(3)
        fast.runs.pop()
        fast.seeds.pop()
        with pytest.raises(ValueError, match="unequal length"):
            paired_speedups(base, fast)

    def test_seed_mismatch_raises(self):
        base = self._sweep(2, first_seed=1)
        fast = self._sweep(2, first_seed=5)
        with pytest.raises(ValueError, match="seed-for-seed"):
            paired_speedups(base, fast)

    def test_matched_sweeps_pair(self):
        base = self._sweep(2)
        fast = self._sweep(2)
        stats = paired_speedups(base, fast)
        assert stats.n == 2
        assert stats.mean == pytest.approx(1.0)

    def test_sweep_records_seeds(self):
        sweep = self._sweep(3, first_seed=7)
        assert sweep.seeds == [7, 8, 9]
