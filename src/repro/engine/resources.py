"""Shared resources for processes: counting resources and pipelined lanes."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.engine.kernel import SimulationError, Simulator
from repro.engine.process import Signal


class Resource:
    """A counting resource (semaphore) with FIFO granting.

    Processes acquire via ``yield from resource.acquire()`` and must
    release exactly once per acquisition.  Used to model single-ported
    structures such as the MAC engine or NVM banks.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        self.in_use = 0
        self.name = name
        self._wait_queue: Deque[Signal] = deque()
        self.total_acquisitions = 0
        self.total_wait_cycles = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Generator[Any, Any, None]:
        """Block until a unit is free, then claim it (generator)."""
        if self.in_use < self.capacity and not self._wait_queue:
            self.in_use += 1
            self.total_acquisitions += 1
            return
        gate = Signal(self._sim, name=f"{self.name}.gate")
        self._wait_queue.append(gate)
        started = self._sim.now
        yield gate
        self.total_wait_cycles += self._sim.now - started
        self.in_use += 1
        self.total_acquisitions += 1

    def try_acquire(self) -> bool:
        """Claim a unit without waiting.  Returns ``False`` if none free."""
        if self.in_use < self.capacity and not self._wait_queue:
            self.in_use += 1
            self.total_acquisitions += 1
            return True
        return False

    def release(self) -> None:
        """Return a unit; wakes the longest-waiting acquirer, if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self.in_use -= 1
        if self._wait_queue:
            gate = self._wait_queue.popleft()
            gate.fire(None)


class PipelineLane:
    """Booking calendar for a pipelined hardware unit.

    The unit accepts a new operation every ``interval`` cycles
    (initiation interval) while each operation's own latency may be much
    larger — the classic latency/throughput split of a pipelined MAC or
    metadata-update engine.  ``book`` never blocks; callers ``Delay``
    until the returned completion time.
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

