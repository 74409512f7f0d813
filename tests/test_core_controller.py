"""Tests for the four memory-controller organisations."""

import pytest

from repro.config import ControllerKind, MiSUDesign, SimConfig
from repro.core.controller import (
    DolosController,
    NonSecureIdealController,
    PostWPQHypotheticalController,
    PreWPQSecureController,
    make_controller,
)
from repro.core.requests import WriteKind, WriteRequest
from repro.engine import Simulator


def build(kind=ControllerKind.DOLOS, **changes):
    config = SimConfig().with_(controller=kind, **changes)
    sim = Simulator()
    controller = make_controller(sim, config)
    return sim, controller


def submit_persist(controller, address, data=None):
    controller.submit_write(WriteRequest(address, WriteKind.PERSIST, data=data))


class TestFactory:
    def test_kinds_map_to_classes(self):
        cases = {
            ControllerKind.DOLOS: DolosController,
            ControllerKind.PRE_WPQ_SECURE: PreWPQSecureController,
            ControllerKind.POST_WPQ_HYPOTHETICAL: PostWPQHypotheticalController,
            ControllerKind.NON_SECURE_IDEAL: NonSecureIdealController,
        }
        for kind, cls in cases.items():
            _, controller = build(kind)
            assert isinstance(controller, cls)

    def test_wpq_capacity_per_kind(self):
        assert build(ControllerKind.NON_SECURE_IDEAL)[1].wpq.capacity == 16
        assert build(ControllerKind.PRE_WPQ_SECURE)[1].wpq.capacity == 16
        assert build(ControllerKind.POST_WPQ_HYPOTHETICAL)[1].wpq.capacity == 16
        assert build(ControllerKind.DOLOS)[1].wpq.capacity == 13
        dolos_full = build(ControllerKind.DOLOS, misu_design=MiSUDesign.FULL_WPQ)[1]
        assert dolos_full.wpq.capacity == 16


class TestPersistCompletion:
    def test_ideal_persists_immediately(self, persist):
        sim, controller = build(ControllerKind.NON_SECURE_IDEAL)
        times = []
        persist(controller, WriteRequest(0x1000, WriteKind.PERSIST), times.append)
        sim.run()
        assert times and times[0] <= 4

    def test_baseline_pays_security_before_persist(self, persist):
        sim, controller = build(ControllerKind.PRE_WPQ_SECURE)
        times = []
        persist(controller, WriteRequest(0x1000, WriteKind.PERSIST), times.append)
        sim.run()
        security = controller.config.security
        expected_min = (
            security.aes_latency + security.masu_critical_hash_latency
        )
        assert times[0] >= expected_min

    def test_dolos_partial_persists_after_one_mac(self, persist):
        sim, controller = build(ControllerKind.DOLOS)
        times = []
        persist(controller, WriteRequest(0x1000, WriteKind.PERSIST), times.append)
        sim.run()
        mac = controller.config.security.mac_latency
        assert mac <= times[0] < mac + 50

    def test_dolos_post_persists_almost_instantly(self, persist):
        sim, controller = build(
            ControllerKind.DOLOS, misu_design=MiSUDesign.POST_WPQ
        )
        times = []
        persist(controller, WriteRequest(0x1000, WriteKind.PERSIST), times.append)
        sim.run()
        assert times[0] <= 4

    def test_dolos_full_pays_two_macs(self, persist):
        sim, controller = build(
            ControllerKind.DOLOS, misu_design=MiSUDesign.FULL_WPQ
        )
        times = []
        persist(controller, WriteRequest(0x1000, WriteKind.PERSIST), times.append)
        sim.run()
        assert times[0] >= 2 * controller.config.security.mac_latency

    def test_persist_ordering_faster_for_dolos(self, persist):
        """The paper's core claim at the unit level: persist latency
        Dolos << baseline for the same write stream."""

        def persist_time(kind):
            sim, controller = build(kind)
            times = []
            request = WriteRequest(0x1000, WriteKind.PERSIST)
            persist(controller, request, times.append)
            sim.run()
            return times[0]

        assert persist_time(ControllerKind.DOLOS) < persist_time(
            ControllerKind.PRE_WPQ_SECURE
        )


class TestWPQBackpressure:
    def test_retries_counted_when_full(self):
        sim, controller = build(ControllerKind.DOLOS)
        for i in range(40):
            submit_persist(controller, 0x10000 + i * 64)
        sim.run()
        assert controller.wpq.retry_events > 0

    def test_all_persists_eventually_complete(self, persist):
        sim, controller = build(ControllerKind.DOLOS)
        completed = []
        for i in range(40):
            persist(
                controller,
                WriteRequest(0x10000 + i * 64, WriteKind.PERSIST),
                completed.append,
            )
        sim.run()
        assert len(completed) == 40

    def test_coalescing_merges_same_address(self):
        sim, controller = build(ControllerKind.DOLOS)
        submit_persist(controller, 0x1000)
        submit_persist(controller, 0x1000)
        sim.run()
        assert controller.wpq.coalesced >= 1

    def test_coalescing_can_be_disabled(self):
        sim, controller = build(ControllerKind.DOLOS, wpq_coalescing=False)
        submit_persist(controller, 0x1000)
        submit_persist(controller, 0x1000)
        sim.run()
        assert controller.wpq.coalesced == 0


class TestEvictionWrites:
    def test_eviction_returns_no_signal(self):
        sim, controller = build(ControllerKind.DOLOS)
        result = controller.submit_write(WriteRequest(0x1000, WriteKind.EVICTION))
        assert result is None
        sim.run()
        assert controller.stats.get("controller.writes") == 1
        assert "persist.completed" not in controller.stats.as_dict()

    def test_evictions_drain_through_masu(self):
        sim, controller = build(ControllerKind.DOLOS)
        controller.submit_write(WriteRequest(0x1000, WriteKind.EVICTION))
        sim.run()
        assert controller.stats.get("masu.writes") == 1


class TestReads:
    def test_wpq_read_hit_is_fast(self, record_read):
        sim, controller = build(ControllerKind.DOLOS)
        submit_persist(controller, 0x1000)
        latencies = []
        record_read(controller, 0x1000, latencies)
        sim.run()
        assert latencies[0] <= 2

    def test_read_miss_goes_to_nvm(self):
        sim, controller = build(ControllerKind.DOLOS)
        latencies = []
        assert controller.read(0x2000, done=latencies.append) is None
        sim.run()
        assert latencies[0] >= controller.config.nvm.read_latency

    def test_ideal_read_has_no_verify_cost(self, record_read):
        def read_latency(kind):
            sim, controller = build(kind)
            latencies = []
            record_read(controller, 0x2000, latencies)
            sim.run()
            return latencies[0]

        assert read_latency(ControllerKind.NON_SECURE_IDEAL) < read_latency(
            ControllerKind.DOLOS
        )

    @pytest.mark.parametrize(
        "kind", [ControllerKind.DOLOS, ControllerKind.NON_SECURE_IDEAL]
    )
    def test_a_read_booked_behind_same_cycle_events_completes_once(self, kind):
        # A read issued while another event is pending at its cycle is
        # booked behind it (the deferred booking): it returns None and
        # its completion calls ``done`` exactly once, with the latency
        # the same read has when nothing is pending.
        def issue(pending):
            sim, controller = build(kind)
            returned, completions = [], []
            sim.call_at(
                5,
                lambda: returned.append(
                    controller.read(0x2000, done=completions.append)
                ),
            )
            if pending:
                sim.call_at(5, lambda: None)
            sim.run()
            assert controller.stats.get("controller.reads") == 1
            return returned[0], completions

        returned, completions = issue(pending=True)
        assert returned is None
        assert len(completions) == 1
        alone, alone_completions = issue(pending=False)
        if alone is None:
            (alone,) = alone_completions
        assert completions[0] == alone


class TestFunctionalDataPath:
    def test_dolos_write_lands_encrypted_in_nvm(self, line_factory):
        sim, controller = build(ControllerKind.DOLOS)
        data = line_factory("secret")
        submit_persist(controller, 0x1000, data)
        sim.run()
        stored = controller.nvm.read_line(0x1000)
        assert stored is not None
        assert stored != data
        assert controller.masu.secure_read(0x1000) == data

    def test_ideal_write_lands_plaintext(self, line_factory):
        sim, controller = build(ControllerKind.NON_SECURE_IDEAL)
        data = line_factory("plain")
        submit_persist(controller, 0x1000, data)
        sim.run()
        assert controller.nvm.read_line(0x1000) == data


class TestCrashPath:
    def test_dolos_crash_drains(self, line_factory):
        sim, controller = build(ControllerKind.DOLOS)
        for i in range(5):
            submit_persist(controller, 0x1000 + i * 64, line_factory(str(i)))
        sim.run(until=400)  # everything in WPQ, nothing processed
        records = controller.crash()
        assert len(records) >= 1

    def test_fig5c_crash_is_infeasible(self):
        _, controller = build(ControllerKind.POST_WPQ_HYPOTHETICAL)
        with pytest.raises(RuntimeError):
            controller.crash()

    def test_post_wpq_crash_completes_deferred_mac(self, line_factory):
        sim, controller = build(
            ControllerKind.DOLOS, misu_design=MiSUDesign.POST_WPQ
        )
        submit_persist(controller, 0x1000, line_factory("d"))
        sim.run(until=10)  # committed, deferred MAC still pending
        records = controller.crash()
        assert len(records) == 1
        assert records[0].mac is not None
