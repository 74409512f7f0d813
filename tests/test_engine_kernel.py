"""Tests for the discrete-event kernel and its event queue."""

import pytest

from repro.engine import SimulationError, Simulator


class TestEventQueue:
    """The kernel's heap of ``(cycle, seq, callback)`` entries."""

    def test_pops_in_time_order(self, sim):
        fired = []
        for cycle in (30, 10, 20):
            sim.call_at(cycle, lambda cycle=cycle: fired.append((cycle, sim.now)))
        sim.run()
        assert fired == [(10, 10), (20, 20), (30, 30)]

    def test_equal_times_fire_in_schedule_order(self):
        # FIFO at a tie for both scheduling calls, in the epoch, heap
        # and bounded drains, including an event queued at the current
        # cycle from inside the same-cycle batch.
        for epoch in (True, False):
            for bounded in (False, True):
                sim = Simulator(epoch=epoch)
                order = []

                def first():
                    order.append(0)
                    sim.call_after(0, lambda: order.append(10))

                sim.call_at(5, first)
                for i in range(1, 10):
                    if i % 2:
                        sim.call_at(5, lambda i=i: order.append(i))
                    else:
                        sim.call_after(5, lambda i=i: order.append(i))
                if bounded:
                    sim.run(until=5)
                else:
                    sim.run()
                assert order == list(range(11))
                assert sim.now == 5


class TestSimulator:
    def test_runs_scheduled_callback_at_right_time(self, sim):
        seen = []
        sim.call_after(10, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10]

    def test_zero_delay_fires_at_now(self, sim):
        sim.call_after(5, lambda: sim.call_after(0, lambda: seen.append(sim.now)))
        seen = []
        sim.run()
        assert seen == [5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(-1, lambda: None)

    def test_schedule_at_absolute(self, sim):
        seen = []
        sim.call_at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]

    def test_schedule_at_past_rejected(self, sim):
        sim.call_after(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5, lambda: None)

    def test_run_until_stops_clock(self, sim):
        seen = []
        sim.call_after(10, lambda: seen.append("early"))
        sim.call_after(100, lambda: seen.append("late"))
        sim.run(until=50)
        assert seen == ["early"]
        assert sim.now == 50
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_past_rejected(self, sim):
        """A past ``until`` must not move the clock back: a 1-cycle
        event scheduled afterwards would fire before one already fired."""
        fired = []
        sim.call_after(10, lambda: fired.append(sim.now))
        sim.call_after(30, lambda: fired.append(sim.now))
        sim.run(until=20)
        with pytest.raises(SimulationError):
            sim.run(until=5)
        sim.run(until=20)  # running to ``now`` is fine
        assert sim.now == 20
        sim.call_after(1, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10, 21, 30]

    def test_events_at_exactly_until_still_fire(self, sim):
        seen = []
        sim.call_after(50, lambda: seen.append(True))
        sim.run(until=50)
        assert seen == [True]

    def test_max_events_guard(self, sim):
        def reschedule():
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_fired_counter(self, sim):
        for i in range(7):
            sim.call_after(i, lambda: None)
        sim.run()
        assert sim.events_fired == 7

    def test_nested_scheduling_keeps_order(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.call_after(5, lambda: seen.append(("inner", sim.now)))

        sim.call_after(10, outer)
        sim.run()
        assert seen == [("outer", 10), ("inner", 15)]
