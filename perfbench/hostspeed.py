"""Host-speed probe: a fixed pure-Python kernel that tracks how fast the host runs.

On a shared host the same operation can take twice as long for seconds
or minutes at a time, whatever the program does.  The probe is a small
discrete-event loop (a heap of timestamped events and a dict of slotted
objects, the shape of the simulator's inner loop) that imports nothing
from the repository, so no change to the program can change its cost.
It runs after every operation, so it samples the host when the
operations ran.

The timed metrics divide each fastest operation time by the probe's
fastest time in the same run and multiply by :data:`REFERENCE_S`: they
read as the times the run would have shown on a host running at the
reference speed.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: Events per probe.
EVENTS = 10_000
#: The probe's fastest time on the host the bounds were set on (a
#: shared 2-core x86-64 VM, CPython 3): a run whose fastest probe takes
#: this long reports its times unscaled.
REFERENCE_S = 0.0061


class _Line:
    __slots__ = ("addr", "dirty", "count")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.dirty = False
        self.count = 0


#: The probe's working set, built once.  The loop itself only makes ints,
#: which the garbage collector does not track, so no collection (which
#: would walk the benchmark's whole heap) can start inside a probe.
_TABLE = {addr: _Line(addr) for addr in range(1 << 12)}


def _kernel(events: int) -> None:
    # An event is one int: time << 32 | tag << 20 | address.
    heap = [((tag * 37) % 100) << 32 | tag << 20 | (tag * 2654435761) & 0xFFFFF for tag in range(64)]
    heapq.heapify(heap)
    for _ in range(events):
        event = heapq.heappop(heap)
        addr = event & 0xFFFFF
        line = _TABLE[addr & 0xFFF]
        line.count += 1
        line.dirty = not line.dirty
        addr = (addr * 1103515245 + 12345) & 0xFFFFF
        when = (event >> 32) + 1 + (addr >> 7) % 97
        heapq.heappush(heap, when << 32 | event & 0xFFF00000 | addr)


def sample(count: int = 1) -> List[float]:
    """Host seconds of ``count`` probes, one after another."""
    seconds = []
    for _ in range(count):
        started = time.perf_counter()
        _kernel(EVENTS)
        seconds.append(time.perf_counter() - started)
    return seconds
