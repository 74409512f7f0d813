"""Booking calendars for pipelined hardware units."""

from __future__ import annotations

from repro.engine.kernel import SimulationError


class PipelineLane:
    """Booking calendar for a pipelined hardware unit.

    The unit accepts a new operation every ``interval`` cycles
    (initiation interval) while each operation's own latency may be much
    larger — the classic latency/throughput split of a pipelined MAC or
    metadata-update engine.  ``book`` never blocks; callers schedule
    their completion at the returned cycle.
    """

    def __init__(self, interval: int, name: str = "") -> None:
        if interval < 1:
            raise SimulationError(f"pipeline interval must be >= 1, got {interval}")
        self.interval = interval
        self.name = name
        self._next_start = 0
        self.operations = 0
        self.busy_cycles = 0

    def book(self, now: int, latency: int) -> "tuple[int, int]":
        """Reserve the next issue slot at/after ``now``.

        Returns ``(start, done)`` where ``done = start + latency``.
        """
        next_start = self._next_start
        start = now if now > next_start else next_start
        interval = self.interval
        self._next_start = start + interval
        self.operations += 1
        self.busy_cycles += interval
        return start, start + latency

    def next_free(self, now: int) -> int:
        """Earliest cycle a new operation could start."""
        next_start = self._next_start
        return now if now > next_start else next_start

