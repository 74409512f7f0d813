"""The trace-driven core.

A run has two passes.  :func:`repro.cpu.resolve.resolve` walks the op
stream through the cache hierarchy and the IPC model once, keeping only
the events the memory controller sees (a :class:`PackedTrace` memoizes
that per cache geometry, so every design replaying a cached trace
shares it).  The core then *replays* those events, batching the
resolved latency into one delay per step and interacting with the
event queue only where concurrency matters: demand-miss reads, persist
submissions, and fences.  The replay is a generator the core steps
itself (:meth:`TraceCore._resume`): it yields a delay, which the core
turns into its wake-up event, or ``None`` when a callback will resume
it — a read's completion or the persist completion a fence waits on.

Inside the unbounded drain the core *runs ahead*: when no other event
can fire before a delay ends (:meth:`repro.engine.Simulator.idle_through`)
it sets ``now`` forward itself instead of scheduling its wake-up, and a
demand read whose whole latency is known at issue is waited out the
same way.  Results are bit-identical to a bounded run, which never runs
ahead (``tests/test_run_ahead.py``).

Persist semantics (the crux of the paper):

* ``clwb`` of a dirty line launches a writeback that reaches the memory
  controller after the hierarchy traversal latency; the controller
  calls the core back at persist completion, which decrements the
  outstanding count.
* ``sfence`` stalls the core until the outstanding count reaches zero —
  so every cycle of pre-WPQ security latency (baseline) or Mi-SU
  latency (Dolos) shows up in the fence stall, exactly the effect
  Figures 6 and 12 measure.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Iterable, Optional, Tuple, Union

from repro.config import SimConfig
from repro.core.controller import MemoryController
from repro.core.requests import WriteKind, WriteRequest
from repro.cpu.resolve import (
    EV_EVICT,
    EV_FENCE,
    EV_FILL,
    EV_LOAD,
    EV_PERSIST,
    EV_TXBEGIN,
    EV_TXEND,
    ResolvedTrace,
    resolve,
)
from repro.cpu.trace import ARRIVAL_CYCLE_MASK, ARRIVAL_TENANT_SHIFT
from repro.cpu.trace_io import PackedTrace
from repro.engine import Simulator
from repro.stats import StatsRegistry

_PERSIST = WriteKind.PERSIST
_EVICTION = WriteKind.EVICTION


class TraceCore:
    """Replays one trace against a memory controller.

    Besides its stats, the core counts :attr:`read_stall_cycles`, the
    cycles it waited on demand reads, whether their latency was booked
    at issue or came with the read's completion.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SimConfig,
        controller: MemoryController,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.controller = controller
        self.stats = stats if stats is not None else StatsRegistry()
        #: Cycles for a flush to traverse L1, L2 and the LLC.
        self.flush_latency = (
            config.l1.latency + config.l2.latency + config.llc.latency
        )
        self.instructions = 0
        self.cycles = 0
        self.finished = False
        #: The breakdown's read stall.  Not a stat: a new stat key would
        #: change every result digest.
        self.read_stall_cycles = 0
        self._outstanding_persists = 0
        #: True while a fence waits on the last outstanding persist;
        #: that persist's completion resumes the replay.
        self._fenced = False
        #: The running replay, and its wake-up (``_resume(None)``, built
        #: once per run and dropped when the replay ends: it refers to
        #: the core, so keeping it would keep the core alive).
        self._replaying = None
        self._wake = None
        #: Optional instrumentation (span tracing): when attached, the
        #: core logs one ``core.fence_stall`` event per fence wake-up.
        #: The hot path pays a single ``None`` check otherwise.
        self.timeline = None

    # ------------------------------------------------------------------
    def run(self, trace: Union[PackedTrace, Iterable[Tuple]]) -> None:
        """Replay ``trace``: its first step runs now, the rest in ``sim.run()``.

        A :class:`PackedTrace` replays its memoized resolved stream; op
        tuple lists and other iterables are resolved on the spot.  Call
        it before any other event is queued at the current cycle: the
        first step does not wait behind them.
        """
        if self._replaying is not None:
            raise RuntimeError("core already running a trace")
        if isinstance(trace, PackedTrace):
            stream = trace.resolved(self.config)
        else:
            stream = resolve(trace, self.config)
        self._replaying = self._replay(stream)
        self._wake = partial(self._resume, None)
        self._resume(None)

    def _resume(self, value: Optional[int]) -> None:
        """Step the replay with ``value`` and schedule the delay it yields.

        The replay yields an int delay, or ``None`` when a callback
        will resume it.  The wake-up's heap push is inlined: it is the
        most-executed scheduling call of a timing run.
        """
        try:
            delay = self._replaying.send(value)
        except StopIteration:
            self._wake = None
            return
        if delay is not None:
            sim = self.sim
            heappush(sim._heap, (sim.now + delay, sim._seq, self._wake))
            sim._seq += 1

    def _replay(self, stream: ResolvedTrace):
        # Hot loop: one iteration per controller-visible event.  It
        # yields bare int delays, and ``None`` where a read's completion
        # or a fence's last persist resumes it; invariant collaborators
        # are hoisted into locals once.
        sim = self.sim
        idle_through = sim.idle_through
        call_after = sim.call_after
        strict = self.config.core.persist_model == "strict"
        controller_read = self.controller.read
        resume = self._resume
        controller_fill = self.controller.fill
        submit_write = self.controller.submit_write
        persist_complete = self._persist_complete
        flush_latency = self.flush_latency
        counts = self.stats.counts
        record = self.stats.record
        tx_start_cycle = 0
        # Open-loop bookkeeping (scenario traces only): the arrival
        # stamp preceding the current transaction, or -1 when the trace
        # is classic closed-loop.  Sojourn and queueing delay are
        # recorded at the transaction's end, overall and per tenant.
        pending_arrival = -1
        pending_tenant = 0
        # Run-ahead: the core sets ``now`` forward itself, instead of
        # yielding a delay, when no other event can fire first — its
        # wake-up would be the next event popped.  That is exact only
        # while the core runs at the tail of a kernel-dispatched event
        # (its own wake-up or a read completion), so nothing else is
        # left to run at the old ``now``.  A fence that stalled resumes
        # inside the controller's persist completion, which still wakes
        # the drain after it: the next delay or read goes through the
        # kernel.
        at_tail = False
        for kind, operand, wait in stream.events():
            if kind == EV_FILL:
                # Write-allocate fill: nothing waits on it.
                controller_fill(operand)
                counts["core.store_miss_fills"] += 1
                continue
            if kind == EV_EVICT:
                # Dirty LLC victim: a background write, never waited on.
                counts["core.evictions"] += 1
                submit_write(WriteRequest(operand, _EVICTION))
                continue
            if wait:
                if at_tail and idle_through(sim.now + wait):
                    sim.now += wait
                else:
                    yield wait
                    at_tail = True
            if kind == EV_LOAD:
                # Demand load: the core (its dependent work) waits for
                # the memory + verification round trip — a latency
                # booked at issue, or one its completion resumes with.
                latency = controller_read(operand, at_tail, resume)
                if latency is None:
                    latency = yield None
                    at_tail = True
                elif at_tail and idle_through(sim.now + latency):
                    sim.now += latency
                else:
                    yield latency
                    at_tail = True
                self.read_stall_cycles += latency
                counts["core.memory_reads"] += 1
            elif kind == EV_PERSIST:
                # A clwb writeback, pipelined: it reaches the controller
                # after the flush traversal.  The request is built at
                # issue so it carries the cycle the span tracer takes
                # as the start of the persist critical path.
                self._outstanding_persists += 1
                counts["core.persists_issued"] += 1
                request = WriteRequest(operand, _PERSIST)
                request.issue_cycle = sim.now
                call_after(
                    flush_latency, partial(submit_write, request, persist_complete)
                )
                # Strict persistency: the flush itself blocks until the
                # write is in the persistence domain.
                if strict and (yield from self._await_persists()):
                    at_tail = False
            elif kind == EV_FENCE:
                if self._outstanding_persists and (
                    yield from self._await_persists()
                ):
                    at_tail = False
                counts["core.fences"] += 1
            elif kind == EV_TXBEGIN:
                tx_start_cycle = sim.now
            elif kind == EV_TXEND:
                record("core.tx_cycles", sim.now - tx_start_cycle)
                counts["core.transactions"] += 1
                if pending_arrival >= 0:
                    sojourn = sim.now - pending_arrival
                    queue_delay = tx_start_cycle - pending_arrival
                    record("core.sojourn_cycles", sojourn)
                    record("core.queue_delay_cycles", queue_delay)
                    tenant_scope = f"core.tenant.{pending_tenant}"
                    record(tenant_scope + ".sojourn_cycles", sojourn)
                    record(tenant_scope + ".queue_delay_cycles", queue_delay)
                    if self.timeline is not None:
                        self.timeline.event(
                            sim.now,
                            "core.tx_sojourn",
                            f"{pending_tenant}:{sojourn}",
                        )
                    pending_arrival = -1
            else:  # EV_ARRIVAL
                # The next transaction was offered at the packed cycle.
                # If the core is ahead of the arrival clock it idles
                # (open-loop underload); if behind, the transaction has
                # queued and its wait shows up in the sojourn.
                pending_tenant = operand >> ARRIVAL_TENANT_SHIFT
                pending_arrival = operand & ARRIVAL_CYCLE_MASK
                counts["core.arrivals"] += 1
                if pending_arrival > sim.now:
                    if at_tail and idle_through(pending_arrival):
                        sim.now = pending_arrival
                    else:
                        yield pending_arrival - sim.now
                        at_tail = True
                else:
                    counts["core.arrivals_queued"] += 1
        if stream.tail:
            yield stream.tail
        # Implicit final fence so all persists land before we report.
        while self._outstanding_persists > 0:
            self._fenced = True
            yield None
        self.cycles = sim.now
        self.instructions = stream.instructions
        self.finished = True
        self.stats.set("core.cycles", self.cycles)
        self.stats.set("core.instructions", self.instructions)

    def _await_persists(self):
        """Stall until every outstanding persist completes (a fence).

        Returns whether the core stalled, that is, whether it now runs
        inside the persist completion that woke it.
        """
        sim = self.sim
        stalled = False
        while self._outstanding_persists > 0:
            started = sim.now
            self._fenced = True
            yield None
            stalled = True
            stall = sim.now - started
            self.stats.counts["core.fence_stall_cycles"] += stall
            if self.timeline is not None:
                self.timeline.event(sim.now, "core.fence_stall", str(stall))
        return stalled

    # ------------------------------------------------------------------
    def _persist_complete(self) -> None:
        """The controller's persist-completion callback.

        The last outstanding persist resumes a fence waiting on it.
        """
        self._outstanding_persists -= 1
        if self._outstanding_persists == 0 and self._fenced:
            self._fenced = False
            self._resume(None)

    # ------------------------------------------------------------------
    @property
    def cpi(self) -> float:
        """Cycles per instruction of the completed run."""
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions
