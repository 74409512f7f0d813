"""Tests for PipelineLane."""

import pytest

from repro.engine.kernel import SimulationError
from repro.engine.resources import PipelineLane


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
