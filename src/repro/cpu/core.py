"""The trace-driven core.

A run has two passes.  :func:`repro.cpu.resolve.resolve` walks the op
stream through the cache hierarchy and the IPC model once, keeping only
the events the memory controller sees (a :class:`PackedTrace` memoizes
that per cache geometry, so every design replaying a cached trace
shares it).  The core then *replays* those events as a single
simulation process, batching the resolved latency into one delay per
yield and interacting with the event queue only where concurrency
matters: demand-miss reads, persist submissions, and fences.

Inside the unbounded drain the core *runs ahead*: when no other event
can fire before a delay ends (:meth:`repro.engine.Simulator.idle_through`)
it sets ``now`` forward itself instead of scheduling its wake-up, and a
demand read whose whole latency is known at issue is waited out the
same way.  Results are bit-identical to a bounded run, which never runs
ahead (``tests/test_run_ahead.py``).

Persist semantics (the crux of the paper):

* ``clwb`` of a dirty line launches a writeback that reaches the memory
  controller after the hierarchy traversal latency; the controller's
  persist-completion signal decrements the outstanding count.
* ``sfence`` stalls the core until the outstanding count reaches zero —
  so every cycle of pre-WPQ security latency (baseline) or Mi-SU
  latency (Dolos) shows up in the fence stall, exactly the effect
  Figures 6 and 12 measure.
"""

from __future__ import annotations

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
from repro.engine import Process, Signal, Simulator
from repro.stats import StatsRegistry


class TraceCore:
    """Replays one trace against a memory controller.

    Besides its stats, the core counts :attr:`read_stall_cycles`, the
    cycles it waited on demand reads, whether their latency was booked
    at issue or came on a Signal.
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
        self._fence_signal = Signal(sim, "core.fence")
        self._process: Optional[Process] = None
        #: Optional instrumentation (span tracing): when attached, the
        #: core logs one ``core.fence_stall`` event per fence wake-up.
        #: The hot path pays a single ``None`` check otherwise.
        self.timeline = None

    # ------------------------------------------------------------------
    def run(self, trace: Union[PackedTrace, Iterable[Tuple]]) -> Process:
        """Start replaying ``trace``; returns the core process.

        A :class:`PackedTrace` replays its memoized resolved stream; op
        tuple lists and other iterables are resolved on the spot.
        """
        if self._process is not None:
            raise RuntimeError("core already running a trace")
        if isinstance(trace, PackedTrace):
            stream = trace.resolved(self.config)
        else:
            stream = resolve(trace, self.config)
        self._process = Process(self.sim, self._replay(stream), name="core")
        return self._process

    def _replay(self, stream: ResolvedTrace):
        # Hot loop: one iteration per controller-visible event.  Delays
        # are yielded as bare ints and waits as bare Signals (the
        # allocation-free directive forms); invariant collaborators are
        # hoisted into locals once.
        sim = self.sim
        idle_through = sim.idle_through
        strict = self.config.core.persist_model == "strict"
        controller_read = self.controller.read
        controller_fill = self.controller.fill
        submit_eviction = self._submit_eviction
        launch_persist = self._launch_persist
        stats_add = self.stats.add
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
                stats_add("core.store_miss_fills")
                continue
            if kind == EV_EVICT:
                submit_eviction(operand)
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
                # booked at issue, or a Signal fired with it.
                latency = controller_read(operand, at_tail)
                if latency.__class__ is not int:
                    latency = yield latency
                    at_tail = True
                elif at_tail and idle_through(sim.now + latency):
                    sim.now += latency
                else:
                    yield latency
                    at_tail = True
                self.read_stall_cycles += latency
                stats_add("core.memory_reads")
            elif kind == EV_PERSIST:
                launch_persist(operand)
                # Strict persistency: the flush itself blocks until the
                # write is in the persistence domain.
                if strict and (yield from self._await_persists()):
                    at_tail = False
            elif kind == EV_FENCE:
                if (yield from self._await_persists()):
                    at_tail = False
                stats_add("core.fences")
            elif kind == EV_TXBEGIN:
                tx_start_cycle = sim.now
            elif kind == EV_TXEND:
                record("core.tx_cycles", sim.now - tx_start_cycle)
                stats_add("core.transactions")
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
                stats_add("core.arrivals")
                if pending_arrival > sim.now:
                    if at_tail and idle_through(pending_arrival):
                        sim.now = pending_arrival
                    else:
                        yield pending_arrival - sim.now
                        at_tail = True
                else:
                    stats_add("core.arrivals_queued")
        if stream.tail:
            yield stream.tail
        # Implicit final fence so all persists land before we report.
        while self._outstanding_persists > 0:
            yield self._fence_signal
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
            yield self._fence_signal
            stalled = True
            stall = sim.now - started
            self.stats.add("core.fence_stall_cycles", stall)
            if self.timeline is not None:
                self.timeline.event(sim.now, "core.fence_stall", str(stall))
        return stalled

    # ------------------------------------------------------------------
    def _launch_persist(self, address: int) -> None:
        """Issue a clwb writeback toward the controller (pipelined)."""
        self._outstanding_persists += 1
        self.stats.add("core.persists_issued")
        # Built at issue time so the request carries the cycle the span
        # tracer treats as the start of the persist critical path.
        request = WriteRequest(address, WriteKind.PERSIST)
        request.issue_cycle = self.sim.now

        def submit() -> None:
            done = self.controller.submit_write(request)
            assert done is not None
            done.subscribe(self._persist_complete)

        self.sim.call_after(self.flush_latency, submit)

    def _persist_complete(self, _value: object = None) -> None:
        self._outstanding_persists -= 1
        if self._outstanding_persists == 0:
            self._fence_signal.fire(None)

    def _submit_eviction(self, address: int) -> None:
        """Dirty LLC victim: background write, core never waits."""
        self.stats.add("core.evictions")
        self.controller.submit_write(WriteRequest(address, WriteKind.EVICTION))

    # ------------------------------------------------------------------
    @property
    def cpi(self) -> float:
        """Cycles per instruction of the completed run."""
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions

    @property
    def done(self) -> bool:
        return self.finished
