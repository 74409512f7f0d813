"""The simulation kernel.

:class:`Simulator` owns the event heap and the notion of *now*.  All
hardware models in the reproduction (caches, WPQ, security units, NVM)
and the agents driving them (the trace core, the crash oracle's op
driver) schedule their work through a shared ``Simulator`` instance.
The kernel schedules one thing: a zero-argument callback at a cycle.
The heap holds plain ``(cycle, seq, callback)`` tuples; sequence
numbers are unique, so heap comparisons resolve on ``(cycle, seq)`` at
C level, and events with equal cycles fire in scheduling order (FIFO).

Two unbounded-drain strategies exist, selected at construction:

* **epoch** (default) — :meth:`_run_epoch` pops *all* events stamped
  with the earliest cycle in one heap drain and dispatches them from a
  flat list.  ``now`` is written once per cycle instead of once per
  event, and the fired counter is bumped once per batch.
* **heap** (``epoch=False``) — the original one-heap-traversal-per-event
  loop, kept as the reference implementation; the property suite
  asserts event-for-event equivalence between the two on random
  schedules and same-cycle ties.

Inside the epoch drain a callback may also *run ahead*: when
:meth:`Simulator.idle_through` says no other event can fire up to a
cycle, the caller may advance ``now`` itself instead of scheduling a
wake-up that would be the next event popped anyway (the trace core
does, see :mod:`repro.cpu.core`).  Bounded runs never allow it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulator measuring time in integer cycles.

    Args:
        epoch: use the batch-epoch drain (default).  ``False`` selects
            the legacy per-event heap drain — same semantics, kept as
            the reference for differential tests and benchmarks.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> sim.call_after(10, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [10]
    """

    def __init__(self, epoch: bool = True) -> None:
        self.now: int = 0
        self.events_fired: int = 0
        #: The event heap of ``(cycle, seq, callback)`` entries.
        self._heap: List[Tuple[int, int, Callable[[], Any]]] = []
        self._seq = 0
        self._epoch = epoch
        #: Reused scratch list for the epoch drain (allocated once).
        self._batch: List[Tuple] = []
        #: True while the epoch drain still holds *undelivered* events
        #: for the current cycle in its batch list (they are out of the
        #: heap, so callers cannot see them by peeking).  Consulted by
        #: the controller to decide whether a zero-delay step may run
        #: synchronously, and by :meth:`idle_through`.
        self._batch_pending = False
        #: True while :meth:`_run_epoch` drains without bounds: the only
        #: drain in which :meth:`idle_through` may hold.
        self._draining = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_after(self, delay: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to fire ``delay`` cycles from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        heapq.heappush(self._heap, (self.now + int(delay), self._seq, callback))
        self._seq += 1

    def call_at(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at an absolute cycle ``time >= now``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, already at {self.now}"
            )
        heapq.heappush(self._heap, (int(time), self._seq, callback))
        self._seq += 1

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Fire events in timestamp order.

        Args:
            until: stop once the clock would pass this cycle (events at
                exactly ``until`` still fire).
            max_events: safety valve against runaway simulations.

        Raises:
            SimulationError: if ``until`` is earlier than ``now`` (the
                clock never moves back).
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}, already at {self.now}"
            )
        if until is not None or max_events is not None:
            self._run_general(until, max_events)
        elif not self._epoch:
            self._run_fast()
        else:
            self._draining = True
            try:
                self._run_epoch()
            finally:
                self._draining = False

    def idle_through(self, cycle: int) -> bool:
        """True when no other event can fire at or before ``cycle``.

        Holds only inside the unbounded epoch drain, with no same-cycle
        batch remainder pending and every queued event strictly later
        than ``cycle`` (a tie at ``cycle`` belongs to the older event).
        A callback that is about to return to the drain may then set
        ``now`` forward to ``cycle`` itself: the wake-up it would have
        scheduled is exactly the next event the drain would pop.
        Bounded runs (``until``, ``max_events``) never run ahead.
        """
        if not self._draining or self._batch_pending:
            return False
        heap = self._heap
        return not heap or heap[0][0] > cycle

    def _run_epoch(self) -> None:
        """Unbounded drain, one heap sweep per *cycle* (batch epoch).

        All events stamped with the earliest cycle are popped in one
        drain and dispatched from a flat list: ``now`` is stored once
        per epoch and ``events_fired`` accumulated once per epoch.
        Events a callback schedules at the current cycle land in the
        *next* epoch of the same cycle — their seq numbers exceed every
        already-queued event, so firing order is identical to the
        per-event heap drain.

        An epoch holding a single event (the common case in sparse
        regions of the schedule) skips the batch list entirely.  A
        callback that raises leaves ``now``, ``events_fired`` and the
        queue as :meth:`_run_fast` would: its batch's undelivered
        events go back on the heap.
        """
        heap = self._heap
        heappop = heapq.heappop
        batch = self._batch
        while heap:
            entry = heappop(heap)
            now = entry[0]
            self.now = now
            if not heap or heap[0][0] != now:
                entry[2]()
                self.events_fired += 1
                continue
            batch.append(entry)
            while heap and heap[0][0] == now:
                batch.append(heappop(heap))
            # The last event of the batch runs with nothing undelivered
            # behind it.
            last = batch.pop()
            self._batch_pending = True
            try:
                for entry in batch:
                    entry[2]()
            except BaseException:
                # Leave the queue as the per-event drain would: the
                # events before ``entry`` fired, the rest still wait.
                delivered = batch.index(entry)
                self.events_fired += delivered
                for pending in batch[delivered + 1:]:
                    heapq.heappush(heap, pending)
                heapq.heappush(heap, last)
                del batch[:]
                self._batch_pending = False
                raise
            self._batch_pending = False
            self.events_fired += len(batch)
            del batch[:]
            last[2]()
            self.events_fired += 1

    def _run_fast(self) -> None:
        """Unbounded drain: one heap traversal per fired event.

        The legacy (pre-epoch) hot loop, kept as the reference
        implementation the property suite differences the epoch drain
        against, and for A/B benchmarking (``events_per_sec_fast`` vs
        ``events_per_sec_epoch`` in BENCH_kernel.json).
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heappop(heap)
            self.now = entry[0]
            entry[2]()
            self.events_fired += 1

    def _run_general(
        self, until: Optional[int], max_events: Optional[int]
    ) -> None:
        """Bounded drain honouring ``until`` / ``max_events``."""
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                break
            entry = heappop(heap)
            self.now = entry[0]
            entry[2]()
            fired += 1
            self.events_fired += 1
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} (runaway simulation?)"
                )
