"""Generator-based processes on top of the event kernel.

Sequential agents (the trace-replaying core, the crash oracle's op
driver) read far more naturally as coroutines than as callback chains.
The memory controller's write paths and drains are callback state
machines instead, so a live controller holds no generator and can be
deep-copied.  A *process* is a Python generator that yields timing
directives:

* ``Delay(n)`` — suspend for ``n`` cycles (a bare non-negative ``int``
  is equivalent and avoids the wrapper allocation).
* ``WaitSignal(sig)`` — suspend until ``sig.fire(...)``; the fired value
  is sent back into the generator.  Yielding the bare ``Signal`` is
  equivalent and avoids the wrapper allocation.
* another ``Process`` — suspend until the child process finishes; the
  child's return value is sent back.

Example:
    >>> from repro.engine import Simulator
    >>> sim = Simulator()
    >>> log = []
    >>> def worker():
    ...     yield Delay(5)
    ...     log.append(sim.now)
    ...     return "done"
    >>> p = Process(sim, worker())
    >>> sim.run()
    >>> (log, p.result)
    ([5], 'done')
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Any, Callable, Generator, List, Optional

from repro.engine.kernel import SimulationError, Simulator


class Delay:
    """Yielded by a process to sleep for ``cycles``.

    Hot-loop processes may equivalently yield a bare non-negative
    ``int`` — the dispatcher treats it exactly like ``Delay(n)`` without
    allocating the wrapper (the engine's biggest per-step allocation).
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError(f"negative delay {cycles}")
        self.cycles = int(cycles)


class Signal:
    """A broadcast one-shot rendezvous.

    Processes wait via ``yield WaitSignal(sig)``; any number of waiters
    are resumed by a single :meth:`fire`.  Callbacks may also subscribe.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run on the next fire."""
        self._waiters.append(callback)

    def fire(self, value: Any = None) -> None:
        """Resume all current waiters with ``value`` (immediately)."""
        self.fire_count += 1
        waiters = self._waiters
        if not waiters:
            return
        if len(waiters) == 1:
            # Detach before resuming (a waiter may re-subscribe) but
            # reuse the list — no allocation on the hot one-waiter fire.
            waiter = waiters[0]
            waiters.clear()
            waiter(value)
            return
        self._waiters = []
        for waiter in waiters:
            waiter(value)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={self.waiter_count})"


class WaitSignal:
    """Yielded by a process to block until ``signal`` fires."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal) -> None:
        self.signal = signal


class Process:
    """Drives a generator coroutine against a :class:`Simulator`.

    The process takes its first step at the current cycle (plus
    ``start_delay``).  When nothing else is pending at the current
    cycle the zero-delay first step runs *synchronously inside the
    constructor* — provably equivalent to scheduling it (any event
    queued later lands behind it in seq order anyway) and one event
    cheaper.  With same-cycle events pending the step is
    deferred behind them, preserving exact FIFO interleaving.  When the
    generator returns, the ``StopIteration`` value is captured in
    :attr:`result` and the completion :attr:`done_signal` fires.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, Any, Any],
        name: str = "",
        start_delay: int = 0,
    ) -> None:
        self._sim = sim
        self._gen = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        #: Lazily materialised — most processes are never awaited, so
        #: the Signal and its formatted name would be pure allocation
        #: overhead.
        self._done_signal: Optional[Signal] = None
        #: One resume closure per *process* (not per step): every Delay
        #: wake-up reuses it instead of allocating a fresh lambda, and
        #: ``partial`` dispatches at C level (no wrapper frame).
        self._resume = partial(self._advance, None)
        if start_delay == 0:
            heap = sim._queue._heap
            if not sim._batch_pending and not (heap and heap[0][0] == sim.now):
                self._advance(None)
                return
        sim.call_after(start_delay, self._resume)

    @property
    def done_signal(self) -> Signal:
        """Fires with the generator's return value when it finishes.

        Created on first access; subscribing after the process already
        finished never fires (identical to subscribing to an eagerly
        created signal after its one shot).
        """
        sig = self._done_signal
        if sig is None:
            sig = self._done_signal = Signal(self._sim, name=f"{self.name}.done")
        return sig

    def _advance(self, send_value: Any) -> None:
        try:
            directive = self._gen.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            sig = self._done_signal
            if sig is not None:
                sig.fire(stop.value)
            return
        # Inlined dispatch on exact type: the hot directives (a bare
        # int delay, a Signal to wait on, and Delay itself) resolve
        # without isinstance or a second method call; everything else
        # (subclasses, processes, errors) falls through to the general
        # path.  The int path inlines the kernel's heap push — it is
        # the single most-executed statement in a timing run.
        cls = directive.__class__
        if cls is int:
            if directive < 0:
                raise SimulationError(f"negative delay {directive}")
            sim = self._sim
            queue = sim._queue
            heappush(queue._heap, (sim.now + directive, queue._seq, self._resume))
            queue._seq += 1
        elif cls is Signal:
            # Waiting on a bare Signal — ``_advance`` already has the
            # callback(value) shape, so subscribe it directly.
            directive._waiters.append(self._advance)
        elif cls is Delay:
            self._sim.call_after(directive.cycles, self._resume)
        elif cls is WaitSignal:
            directive.signal._waiters.append(self._advance)
        else:
            self._dispatch(directive)

    def _dispatch(self, directive: Any) -> None:
        if isinstance(directive, Delay):
            self._sim.call_after(directive.cycles, self._resume)
        elif isinstance(directive, Signal):
            directive.subscribe(self._advance)
        elif isinstance(directive, WaitSignal):
            directive.signal.subscribe(self._advance)
        elif isinstance(directive, Process):
            child = directive
            if child.finished:
                self._sim.call_after(0, lambda: self._advance(child.result))
            else:
                child.done_signal.subscribe(self._advance)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported directive {directive!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


def spawn(
    sim: Simulator,
    generator: Generator[Any, Any, Any],
    name: str = "",
    start_delay: int = 0,
) -> Process:
    """Convenience wrapper: create and start a :class:`Process`."""
    return Process(sim, generator, name=name, start_delay=start_delay)
