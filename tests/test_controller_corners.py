"""Corner-case tests for controller interactions.

These cover the interleavings the main suites don't: reads racing
drains, coalescing vs in-flight entries, eviction/persist mixing,
timelines of persist completion, and cross-controller determinism.
"""

import pytest

from repro.config import ControllerKind, MiSUDesign, SimConfig
from repro.core.controller import DolosController, make_controller
from repro.core.requests import WriteKind, WriteRequest
from repro.engine import Simulator

HEAP = 0x1_0000_0000


def build(kind=ControllerKind.DOLOS, **changes):
    config = SimConfig().with_(controller=kind, **changes)
    sim = Simulator()
    return sim, make_controller(sim, config)


class TestReadsVsWrites:
    def test_read_hits_wpq_before_drain(self, record_read):
        sim, controller = build()
        controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST))
        sim.run(until=200)  # entry inserted, not yet drained
        latencies = []
        record_read(controller, HEAP, latencies)
        sim.run(until=300)
        assert latencies and latencies[0] <= 2
        assert controller.wpq.read_hits == 1

    def test_read_after_drain_goes_to_nvm(self):
        sim, controller = build()
        controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST))
        sim.run()  # fully drained, tag removed
        latencies = []
        controller.read(HEAP).subscribe(latencies.append)
        sim.run()
        assert latencies[0] >= controller.config.nvm.read_latency

    def test_read_does_not_hit_in_flight_cleared_entry(self):
        """Once drained, the tag is gone even though the slot content
        is architecturally retained for the WPQ tree."""
        sim, controller = build()
        controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST))
        sim.run()
        assert controller.wpq.lookup(HEAP) is None

    def test_many_reads_same_address_all_complete(self):
        sim, controller = build()
        done = []
        for _ in range(10):
            controller.read(HEAP + 0x100000).subscribe(done.append)
        sim.run()
        assert len(done) == 10


class TestCoalescingCorners:
    def test_coalesce_blocked_by_in_flight_allocates_new_slot(self):
        sim, controller = build()
        controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST))
        # Let the Ma-SU pick it up (in_flight), then write again.
        sim.run(until=400)
        first_inserts = controller.wpq.inserts
        controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST))
        sim.run()
        assert controller.wpq.inserts == first_inserts + 1

    def test_burst_of_same_address_coalesces_heavily(self):
        sim, controller = build()
        completed = []
        for _ in range(10):
            done = controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST))
            done.subscribe(lambda _v: completed.append(1))
        sim.run()
        assert len(completed) == 10
        # Far fewer slots consumed than writes submitted.
        assert controller.wpq.inserts < 5
        assert controller.wpq.coalesced >= 5

    def test_masu_processes_each_slot_once(self):
        sim, controller = build()
        for _ in range(10):
            controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST))
        sim.run()
        assert (
            controller.stats.get("masu.writes")
            == controller.wpq.inserts
        )


class TestMixedTraffic:
    def test_evictions_and_persists_all_drain(self):
        sim, controller = build()
        persists = []
        for i in range(10):
            kind = WriteKind.PERSIST if i % 2 else WriteKind.EVICTION
            done = controller.submit_write(WriteRequest(HEAP + i * 64, kind))
            if done is not None:
                done.subscribe(lambda _v: persists.append(1))
        sim.run()
        assert len(persists) == 5
        assert controller.stats.get("masu.writes") == 10

    def test_conservation_submitted_equals_processed(self):
        """No write is lost or double-processed across the WPQ."""
        sim, controller = build()
        for i in range(50):
            controller.submit_write(
                WriteRequest(HEAP + i * 64, WriteKind.PERSIST)
            )
        sim.run()
        assert controller.writes_received == 50
        assert controller.stats.get("persist.completed") == 50
        assert controller.stats.get("masu.writes") == controller.wpq.inserts
        assert controller.wpq.is_empty

    def test_baseline_conservation(self):
        sim, controller = build(ControllerKind.PRE_WPQ_SECURE)
        for i in range(30):
            controller.submit_write(
                WriteRequest(HEAP + i * 64, WriteKind.PERSIST)
            )
        sim.run()
        assert controller.stats.get("persist.completed") == 30
        assert controller.stats.get("wpq.drained") == 30


class TestPersistCompletionOrder:
    def test_distinct_addresses_complete_in_submission_order(self):
        sim, controller = build()
        order = []
        for i in range(8):
            done = controller.submit_write(
                WriteRequest(HEAP + i * 64, WriteKind.PERSIST)
            )
            done.subscribe(lambda _v, i=i: order.append(i))
        sim.run()
        assert order == sorted(order)

    def test_post_wpq_single_deferred_invariant(self):
        """At no instant may two entries be mac_pending (Section 4.3)."""
        sim, controller = build(misu_design=MiSUDesign.POST_WPQ)
        violations = []

        def check():
            pending = sum(1 for e in controller.wpq.entries if e.mac_pending)
            if pending > 1:
                violations.append((sim.now, pending))
            if sim.pending_events:
                sim.schedule(7, check)

        for i in range(20):
            controller.submit_write(
                WriteRequest(HEAP + i * 64, WriteKind.PERSIST)
            )
        sim.schedule(1, check)
        sim.run()
        assert violations == []


class TestDeterminismAcrossControllers:
    @pytest.mark.parametrize("kind", list(ControllerKind))
    def test_every_controller_is_deterministic(self, kind):
        def run_once():
            sim, controller = build(kind)
            completed = []
            for i in range(20):
                done = controller.submit_write(
                    WriteRequest(HEAP + (i % 7) * 64, WriteKind.PERSIST)
                )
                done.subscribe(lambda _v: completed.append(sim.now))
            sim.run()
            return completed

        assert run_once() == run_once()
