"""Tests for Resource and PipelineLane."""

import pytest

from repro.engine import Delay, Process, Simulator
from repro.engine.kernel import SimulationError
from repro.engine.resources import PipelineLane, Resource


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, 0)

    def test_try_acquire_respects_capacity(self, sim):
        res = Resource(sim, 2)
        assert res.try_acquire()
        assert res.try_acquire()
        assert not res.try_acquire()
        res.release()
        assert res.try_acquire()

    def test_release_idle_raises(self, sim):
        res = Resource(sim, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_fifo_granting(self, sim):
        res = Resource(sim, 1, "r")
        order = []

        def worker(name, hold):
            yield from res.acquire()
            order.append((name, sim.now))
            yield Delay(hold)
            res.release()

        Process(sim, worker("a", 10))
        Process(sim, worker("b", 10))
        Process(sim, worker("c", 10))
        sim.run()
        assert order == [("a", 0), ("b", 10), ("c", 20)]

    def test_wait_cycles_accounted(self, sim):
        res = Resource(sim, 1)

        def worker(hold):
            yield from res.acquire()
            yield Delay(hold)
            res.release()

        Process(sim, worker(10))
        Process(sim, worker(1))
        sim.run()
        assert res.total_wait_cycles == 10
        assert res.total_acquisitions == 2

    def test_try_acquire_fails_while_queue_waits(self, sim):
        """A late try_acquire must not jump the FIFO queue."""
        res = Resource(sim, 1)

        def holder():
            yield from res.acquire()
            yield Delay(10)
            res.release()

        def waiter():
            yield from res.acquire()
            res.release()

        Process(sim, holder())
        Process(sim, waiter())
        sim.run(until=5)
        assert not res.try_acquire()


class TestPipelineLane:
    def test_interval_validation(self):
        with pytest.raises(SimulationError):
            PipelineLane(0)

    def test_books_at_interval(self):
        lane = PipelineLane(10)
        s1, d1 = lane.book(0, 100)
        s2, d2 = lane.book(0, 100)
        s3, d3 = lane.book(0, 100)
        assert (s1, s2, s3) == (0, 10, 20)
        assert (d1, d2, d3) == (100, 110, 120)

    def test_idle_lane_starts_immediately(self):
        lane = PipelineLane(10)
        lane.book(0, 5)
        start, done = lane.book(500, 5)
        assert start == 500
        assert done == 505

    def test_next_free(self):
        lane = PipelineLane(10)
        assert lane.next_free(7) == 7
        lane.book(7, 100)
        assert lane.next_free(7) == 17

    def test_operation_count(self):
        lane = PipelineLane(4)
        for _ in range(5):
            lane.book(0, 1)
        assert lane.operations == 5
