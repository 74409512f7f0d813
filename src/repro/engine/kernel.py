"""The simulation kernel.

:class:`Simulator` owns the event queue and the notion of *now*.  All
hardware models in the reproduction (caches, WPQ, security units, NVM)
schedule their work through a shared ``Simulator`` instance.

Two unbounded-drain strategies exist, selected at construction:

* **epoch** (default) — :meth:`_run_epoch` pops *all* events stamped
  with the earliest cycle in one heap drain and dispatches them from a
  flat list.  ``now`` is written once per cycle instead of once per
  event, the fired counter is bumped once per batch, and cancelled
  entries are dropped in the same pass (the queue additionally compacts
  lazily when corpses dominate — see :mod:`repro.engine.events`).
* **heap** (``epoch=False``) — the original one-heap-traversal-per-event
  loop, kept as the reference implementation; the property suite
  asserts event-for-event equivalence between the two on random
  schedules, cancellations, and same-cycle ties.

Inside the epoch drain a callback may also *run ahead*: when
:meth:`Simulator.idle_through` says no other event can fire up to a
cycle, the caller may advance ``now`` itself instead of scheduling a
wake-up that would be the next event popped anyway (the trace core
does, see :mod:`repro.cpu.core`).  Bounded runs never allow it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.engine.events import Event, EventQueue


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
        >>> _ = sim.schedule(10, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [10]
    """

    def __init__(self, epoch: bool = True) -> None:
        self.now: int = 0
        self._queue = EventQueue()
        self._running = False
        self._stop_requested = False
        self.events_fired: int = 0
        self._epoch = epoch
        #: Reused scratch list for the epoch drain (allocated once).
        self._batch: List[Tuple] = []
        #: True while the epoch drain still holds *undelivered* events
        #: for the current cycle in its batch list (they are out of the
        #: heap, so callers cannot see them by peeking).  Consulted by
        #: :class:`repro.engine.process.Process` to decide whether a
        #: zero-delay first step may run synchronously.
        self._batch_pending = False
        #: True while :meth:`_run_epoch` drains without bounds: the only
        #: drain in which :meth:`idle_through` may hold.
        self._draining = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[[], Any],
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now.

        Args:
            delay: non-negative number of cycles in the future.
            callback: zero-argument callable.
            label: optional debugging label.

        Returns:
            The :class:`Event`, which may be cancelled before it fires.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        return self._queue.push(self.now + int(delay), callback, label)

    def schedule_at(
        self,
        time: int,
        callback: Callable[[], Any],
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at an absolute cycle ``time >= now``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, already at {self.now}"
            )
        return self._queue.push(int(time), callback, label)

    def call_after(self, delay: int, callback: Callable[[], Any]) -> None:
        """Schedule a *non-cancellable* callback ``delay`` cycles from now.

        The lightweight sibling of :meth:`schedule`: no :class:`Event`
        object is allocated and no handle is returned, which makes it
        markedly cheaper for the completion callbacks that dominate the
        hot loop (WPQ drains, Ma-SU completions, process steps).  The
        heap push is inlined here — one C call, no queue-method hop.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        queue = self._queue
        heapq.heappush(
            queue._heap, (self.now + int(delay), queue._seq, callback)
        )
        queue._seq += 1

    def call_at(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule a non-cancellable callback at absolute ``time >= now``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, already at {self.now}"
            )
        queue = self._queue
        heapq.heappush(queue._heap, (int(time), queue._seq, callback))
        queue._seq += 1

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
        self._running = True
        self._stop_requested = False
        try:
            if until is None and max_events is None:
                if self._epoch:
                    self._draining = True
                    self._run_epoch()
                else:
                    self._run_fast()
            else:
                self._run_general(until, max_events)
        finally:
            self._running = False
            self._draining = False

    def idle_through(self, cycle: int) -> bool:
        """True when no other event can fire at or before ``cycle``.

        Holds only inside the unbounded epoch drain, with no same-cycle
        batch remainder pending, no stop requested, and every queued
        event strictly later than ``cycle`` (a tie at ``cycle`` belongs
        to the older event).  A callback that is about to return to the
        drain may then set ``now`` forward to ``cycle`` itself: the
        wake-up it would have scheduled is exactly the next event the
        drain would pop.  Bounded runs (``until``, ``max_events``,
        :meth:`step`) never run ahead.
        """
        if not self._draining or self._batch_pending or self._stop_requested:
            return False
        heap = self._queue._heap
        return not heap or heap[0][0] > cycle

    def _run_epoch(self) -> None:
        """Unbounded drain, one heap sweep per *cycle* (batch epoch).

        All events stamped with the earliest cycle are popped in one
        drain and dispatched from a flat list: ``now`` is stored once
        per epoch, ``events_fired`` accumulated once per epoch, and the
        per-event work reduces to one cancellation check plus the
        callback itself.  Events a callback schedules at the current
        cycle land in the *next* epoch of the same cycle — their seq
        numbers exceed every already-queued event, so firing order is
        identical to the per-event heap drain.

        An epoch holding a single event (the common case in sparse
        regions of the schedule) skips the batch list entirely.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        batch = self._batch
        while heap:
            entry = heappop(heap)
            if len(entry) == 4 and entry[3].cancelled:
                queue._discard_dead(1)
                continue
            now = entry[0]
            self.now = now
            if not heap or heap[0][0] != now:
                # Singleton epoch (sparse regions of the schedule):
                # dispatch straight off the pop, no batch churn.
                entry[2]()
                self.events_fired += 1
                if self._stop_requested:
                    break
                continue
            batch.append(entry)
            while heap and heap[0][0] == now:
                entry = heappop(heap)
                if len(entry) == 4 and entry[3].cancelled:
                    queue._discard_dead(1)
                    continue
                batch.append(entry)
            fired = 0
            stopped = False
            last = len(batch) - 1
            self._batch_pending = True
            for i, entry in enumerate(batch):
                if i == last:
                    self._batch_pending = False
                # Re-check: an earlier same-cycle event may have
                # cancelled a later one after the batch was drained.
                if len(entry) == 4 and entry[3].cancelled:
                    queue._discard_dead(1)
                    continue
                entry[2]()
                fired += 1
                if self._stop_requested:
                    # Undelivered remainder goes back on the heap so a
                    # later run()/step() resumes exactly here.
                    queue.requeue(batch[i + 1:])
                    stopped = True
                    break
            self._batch_pending = False
            self.events_fired += fired
            del batch[:]
            if stopped:
                break

    def _run_fast(self) -> None:
        """Unbounded drain: one heap traversal per fired event.

        The legacy (pre-epoch) hot loop, kept as the reference
        implementation the property suite differences the epoch drain
        against, and for A/B benchmarking (``events_per_sec_fast`` vs
        ``events_per_sec_epoch`` in BENCH_kernel.json).
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        while heap:
            if self._stop_requested:
                break
            entry = heappop(heap)
            if len(entry) == 4 and entry[3].cancelled:
                queue._discard_dead(1)
                continue
            self.now = entry[0]
            entry[2]()
            self.events_fired += 1

    def _run_general(
        self, until: Optional[int], max_events: Optional[int]
    ) -> None:
        """Bounded drain honouring ``until`` / ``max_events``."""
        queue = self._queue
        fired = 0
        while True:
            if self._stop_requested:
                break
            next_time = queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            entry = queue.pop_live()
            if entry is None:
                break
            self.now = entry[0]
            entry[2]()
            fired += 1
            self.events_fired += 1
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} (runaway simulation?)"
                )

    def step(self) -> bool:
        """Fire the single earliest live event.  Returns ``False`` when idle."""
        entry = self._queue.pop_live()
        if entry is None:
            return False
        self.now = entry[0]
        entry[2]()
        self.events_fired += 1
        return True

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
