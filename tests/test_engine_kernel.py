"""Tests for the discrete-event kernel and event queue."""

import pytest

from repro.engine import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(30, lambda: fired.append(30))
        queue.push(10, lambda: fired.append(10))
        queue.push(20, lambda: fired.append(20))
        while len(queue):
            event = queue.pop()
            event.callback()
        assert fired == [10, 20, 30]

    def test_equal_times_fire_in_schedule_order(self):
        queue = EventQueue()
        order = []
        for i in range(10):
            queue.push(5, lambda i=i: order.append(i))
        while len(queue):
            queue.pop().callback()
        assert order == list(range(10))

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        early = queue.push(1, lambda: None)
        queue.push(9, lambda: None)
        early.cancel()
        assert queue.peek_time() == 9

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_clear(self):
        queue = EventQueue()
        queue.push(1, lambda: None)
        queue.clear()
        assert len(queue) == 0


class TestSimulator:
    def test_runs_scheduled_callback_at_right_time(self, sim):
        seen = []
        sim.schedule(10, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10]

    def test_zero_delay_fires_at_now(self, sim):
        sim.schedule(5, lambda: sim.schedule(0, lambda: seen.append(sim.now)))
        seen = []
        sim.run()
        assert seen == [5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute(self, sim):
        seen = []
        sim.schedule_at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_run_until_stops_clock(self, sim):
        seen = []
        sim.schedule(10, lambda: seen.append("early"))
        sim.schedule(100, lambda: seen.append("late"))
        sim.run(until=50)
        assert seen == ["early"]
        assert sim.now == 50
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_past_rejected(self, sim):
        """A past ``until`` must not move the clock back: a 1-cycle
        event scheduled afterwards would fire before one already fired."""
        fired = []
        sim.schedule(10, lambda: fired.append(sim.now))
        sim.schedule(30, lambda: fired.append(sim.now))
        sim.run(until=20)
        with pytest.raises(SimulationError):
            sim.run(until=5)
        sim.run(until=20)  # running to ``now`` is fine
        assert sim.now == 20
        sim.schedule(1, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10, 21, 30]

    def test_events_at_exactly_until_still_fire(self, sim):
        seen = []
        sim.schedule(50, lambda: seen.append(True))
        sim.run(until=50)
        assert seen == [True]

    def test_cancelled_events_do_not_fire(self, sim):
        seen = []
        event = sim.schedule(10, lambda: seen.append(True))
        event.cancel()
        sim.run()
        assert seen == []

    def test_max_events_guard(self, sim):
        def reschedule():
            sim.schedule(1, reschedule)

        sim.schedule(1, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_stop_request(self, sim):
        seen = []
        sim.schedule(1, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        sim.run()
        assert seen == [1, 2]

    def test_step_advances_one_event(self, sim):
        seen = []
        sim.schedule(1, lambda: seen.append(1))
        sim.schedule(2, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]
        assert sim.step()
        assert seen == [1, 2]
        assert not sim.step()

    def test_events_fired_counter(self, sim):
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_fired == 7

    def test_nested_scheduling_keeps_order(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(5, lambda: seen.append(("inner", sim.now)))

        sim.schedule(10, outer)
        sim.run()
        assert seen == [("outer", 10), ("inner", 15)]
