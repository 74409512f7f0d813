"""Memory controllers: the Figure 5 design space, grown to eight designs.

Every organisation shares the same WPQ, NVM, and core-facing interface
so the CPU model and harness can swap them freely.  A controller is a
*composition* declared by its :class:`~repro.core.composition.ControllerSpec`
— a WPQ-protection strategy (write path), a Ma-SU update strategy
(drain side), and a persistence-domain policy — assembled by the
generic :class:`MemoryController`; the classes below are thin ``kind``
tags kept for the public API:

* :class:`NonSecureIdealController` — Fig 5's non-secure reference: a
  write is persisted on WPQ arrival, no security anywhere.  This is the
  "ideal" the paper measures overhead against (Section 1: 52% average).
* :class:`PreWPQSecureController` — Fig 5-b, the state-of-the-art
  baseline (Anubis AGIT): the full security pipeline runs *before* WPQ
  insertion, on the persist critical path.
* :class:`PostWPQHypotheticalController` — Fig 5-c: security after the
  WPQ with no Mi-SU at all; infeasible (ADR could not drain raw
  plaintext securely) but the paper uses it for the Figure 6 bound.
* :class:`DolosController` — Fig 5-d: Mi-SU protects insertions at
  near-zero latency; Ma-SU re-secures entries after they leave the WPQ.
* :class:`EADRSecureController` — the battery-backed alternative the
  paper's introduction rejects on cost grounds.
* :class:`TriadNVMController` — Triad-NVM (Awad et al.): the pre-WPQ
  front with relaxed persistency (selective counter/Merkle-subtree
  persistence via ``SecurityConfig.triad_persist_levels``).
* :class:`WriteThroughController` — SuperMem (Zuo/Hua/Xie): the
  pre-WPQ front with write-through, coalesced counter persistence
  (``SecurityConfig.counter_write_through``).

The core-facing protocol:

* ``submit_write(request)`` returns a :class:`Signal` that fires when a
  PERSIST write is architecturally persisted (EVICTION writes return
  ``None`` and are handled in the background).
* ``read(address, at_tail)`` returns what the caller waits on: the read
  latency in cycles when it is known at issue, else a Signal fired with
  it.  It is known for a WPQ hit, for a design without a Ma-SU, and —
  when the caller states it is at the tail of a kernel-dispatched event
  (``at_tail``) and no other event fires before the data returns — for
  device time plus the Ma-SU verification, computed at issue instead of
  when the data returns.  A read issued while events are pending at its
  cycle is booked behind them and always returns a Signal.
* ``fill(address)`` books the same read but returns nothing (store-miss
  fills, which nothing waits on).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Union

from repro.config import ControllerKind, SimConfig
from repro.core.composition import (
    CONTROLLER_SPECS,
    DOMAINS,
    DRAIN_STRATEGIES,
    WRITE_STRATEGIES,
    controller_spec,
)
from repro.core.masu import MajorSecurityUnit
from repro.core.misu import MinorSecurityUnit, make_misu
from repro.core.registers import PersistentRegisters
from repro.core.requests import WriteKind, WriteRequest
from repro.crypto.keys import KeyStore
from repro.engine import Signal, Simulator
from repro.stats import StatsRegistry
from repro.wpq.adr import ADRDrain
from repro.wpq.queue import WritePendingQueue


class MemoryController:
    """Generic controller: assembles the strategies its spec declares."""

    kind: ControllerKind

    def __init__(
        self,
        sim: Simulator,
        config: SimConfig,
        stats: Optional[StatsRegistry] = None,
        nvm=None,
        keys: Optional[KeyStore] = None,
        registers: Optional[PersistentRegisters] = None,
    ) -> None:
        from repro.mem.nvm import NVMDevice  # local import to avoid cycles

        self.sim = sim
        self.config = config
        self.spec = controller_spec(self.kind)
        self.stats = stats if stats is not None else StatsRegistry()
        self.nvm = nvm if nvm is not None else NVMDevice(config.nvm)
        self.keys = keys if keys is not None else KeyStore(config.seed)
        # Persistent registers survive crashes: a rebooted controller is
        # handed the previous life's register file.
        self.registers = registers if registers is not None else PersistentRegisters()
        self.wpq = WritePendingQueue(
            self._wpq_capacity(), line_bytes=config.llc.line_bytes
        )
        self._seq = 0
        #: Fired every time a WPQ slot frees (wakes blocked writes).
        self.slot_freed = Signal(sim, "wpq.slot_freed")
        #: Fired every time an entry lands in the WPQ (wakes an idle drain).
        self.entry_added = Signal(sim, "wpq.entry_added")
        self._drain_started = False
        self.writes_received = 0
        self.reads_received = 0
        #: Optional instrumentation (see :meth:`attach_timeline`).
        self.timeline = None
        # -- the declared composition ----------------------------------
        spec = self.spec
        self.masu: Optional[MajorSecurityUnit] = (
            MajorSecurityUnit(self.config, self.keys, self.registers, self.nvm)
            if spec.has_masu
            else None
        )
        self.misu: Optional[MinorSecurityUnit] = (
            make_misu(self.config, self.keys, self.registers, self.wpq)
            if spec.has_misu
            else None
        )
        if spec.has_misu:
            assert self.misu is not None
            self.adr_drain = ADRDrain(self.nvm, self.config.adr, self.misu.design)
        self._write = WRITE_STRATEGIES[spec.protection](self)
        self._drain = DRAIN_STRATEGIES[spec.update](self)
        self._domain = DOMAINS[spec.domain](self)
        battery = getattr(self._domain, "battery_drain", None)
        if battery is not None:
            # Only battery-backed domains expose ``battery_drain`` (the
            # crash harness feature-tests for it with ``getattr``).
            self.battery_drain = battery

    # -- capacity ------------------------------------------------------
    def _wpq_capacity(self) -> int:
        sizing = self.spec.wpq_sizing
        if sizing == "misu":
            return self.config.adr.usable_entries(self.config.misu_design)
        if sizing == "eadr":
            return self.spec.eadr_buffer_entries
        return self.config.adr.budget_entries

    # -- core-facing API -----------------------------------------------
    # A zero-delay step (the drain's first wake, a write's or a read's
    # first stage) runs synchronously when nothing else is pending at
    # this cycle — equivalent to scheduling it, since anything queued
    # later lands behind it in seq order anyway, and one event cheaper.
    # With same-cycle events pending it is deferred behind them.
    def start(self) -> None:
        """Start the background drain (idempotent)."""
        if not self._drain_started:
            self._drain_started = True
            sim = self.sim
            heap = sim._queue._heap
            if sim._batch_pending or (heap and heap[0][0] == sim.now):
                sim.call_after(0, self._drain.wake)
            else:
                self._drain.wake()

    def submit_write(self, request: WriteRequest) -> Optional[Signal]:
        """Hand a write to the controller.

        PERSIST writes return a Signal fired at persist completion;
        EVICTION writes are fire-and-forget (``None``).
        """
        sim = self.sim
        request.seq = self._seq
        self._seq += 1
        request.arrival = sim.now
        self.writes_received += 1
        self.stats.add("controller.writes")
        # Names are static: per-request formatted names cost a string
        # build per write and nothing reads them (request identity for
        # the span tracer rides on the timeline event details instead).
        done = (
            Signal(sim, "persist") if request.kind is WriteKind.PERSIST else None
        )
        heap = sim._queue._heap
        if sim._batch_pending or (heap and heap[0][0] == sim.now):
            sim.call_after(0, partial(self._write.start, request, done))
        else:
            self._write.start(request, done)
        return done

    def read(self, address: int, at_tail: bool = False) -> Union[int, Signal]:
        """Demand read (LLC miss): the latency, or a Signal fired with it.

        ``at_tail`` states that the caller returns straight to the
        kernel's drain after this call (nothing else runs in its
        event), so when no event fires before the data returns, the
        verification it would compute then is computed at issue.  The
        trace core sets it; it cannot be inferred here (see the module
        docstring for when the latency is known at issue).
        """
        return self._book(address, True, at_tail)

    def fill(self, address: int) -> None:
        """Write-allocate fill (store miss): a read nothing waits on.

        Books exactly the timing :meth:`read` books — WPQ tag check,
        device read, Ma-SU verification at data return — but allocates
        no Signal and schedules no completion event.
        """
        self._book(address, False)

    def _book(
        self,
        address: int,
        wait: bool,
        at_tail: bool = False,
        deferred: bool = False,
        done: Optional[Signal] = None,
    ) -> Union[int, Signal, None]:
        """Book one read: WPQ tag check, device read, verification.

        An issued read is counted, then booked now — or, with events
        still pending at this cycle, behind them: the deferred booking
        comes back here with the Signal the waiter already holds, and
        schedules its completion.  A read booked at issue returns its
        latency when all of it is known here, else the Signal its
        completion fires.  A fill (``wait`` false) schedules only the
        verification a Ma-SU owes its data.
        """
        sim = self.sim
        now = sim.now
        address &= ~0x3F  # line-align
        if not deferred:
            self.reads_received += 1
            self.stats.add("controller.reads")
            heap = sim._queue._heap
            if sim._batch_pending or (heap and heap[0][0] == now):
                if wait:
                    done = Signal(sim, "read")
                sim.call_after(
                    0, partial(self._book, address, wait, False, True, done)
                )
                return done
        if self.wpq.lookup(address) is not None:
            self.wpq.read_hits += 1
            finish = now + self._wpq_read_hit_latency()
        else:
            finish = self.nvm.timed_access(now, address, False)
            masu = self.masu
            if masu is not None:
                if at_tail and sim.idle_through(finish):
                    # Nothing fires before the data returns, so the
                    # verification it would compute then is computed now.
                    finish += masu.read_verify_latency(finish, address)
                else:
                    if wait and done is None:
                        done = Signal(sim, "read")
                    sim.call_at(
                        finish, partial(self._read_verify, address, now, done)
                    )
                    return done
        if not deferred:
            return finish - now
        if done is not None:
            sim.call_at(finish, partial(self._read_fire, now, done))

    def _read_verify(
        self, address: int, arrival: int, done: Optional[Signal]
    ) -> None:
        verify = self.masu.read_verify_latency(self.sim.now, address)
        if done is not None:
            self.sim.call_after(verify, partial(self._read_fire, arrival, done))

    def _read_fire(self, arrival: int, done: Signal) -> None:
        done.fire(self.sim.now - arrival)

    def crash(self):
        """Power failure: delegate to the persistence-domain policy."""
        return self._domain.crash()

    # -- shared helpers --------------------------------------------------
    def allocate(
        self,
        request: WriteRequest,
        then: Callable[[object], None],
        blocked: bool = False,
    ) -> None:
        """Claim a WPQ slot for ``request``, then call ``then(entry)``.

        A request that arrives to a full queue is NACK'd and re-tried
        when a slot frees; the NACK is one Table 2 "re-try event"
        (counted once per request — later wake-ups that lose the race
        for a freed slot are queueing, not new re-tries).
        """
        wpq = self.wpq
        if self.config.wpq_coalescing:
            entry = wpq.try_coalesce(request)
            if entry is not None:
                self.stats.add("wpq.coalesced")
                then(entry)
                return
        entry = wpq.try_allocate(request)
        if entry is not None:
            then(entry)
            return
        if not blocked:
            wpq.record_retry()
            self.stats.add("wpq.retries")
        self.slot_freed._waiters.append(
            lambda _value: self.allocate(request, then, True)
        )

    def persisted(self, entry, done: Optional[Signal]) -> None:
        """An entry committed to the WPQ: fire its persist, wake the drain."""
        if done is not None:
            done.fire(self.sim.now)
            self.stats.add("persist.completed")
        self.entry_added.fire(entry)

    def _wpq_read_hit_latency(self) -> int:
        """Serving a read from the WPQ: tag lookup + XOR decrypt."""
        return 2

    def wpq_occupancy(self) -> int:
        return self.wpq.occupancy

    def attach_timeline(self, timeline) -> None:
        """Record WPQ occupancy, retry and persist-boundary events.

        Sampling piggybacks on the insertion/drain signals so the
        simulation hot path is untouched when no timeline is attached.
        Boundary events (``wpq.insert``/``wpq.pop``/``wpq.drain`` and,
        when the controller has a Ma-SU, ``masu.stage``/``masu.commit``)
        mark every instant the persisted state changes — the crash-site
        enumerator (:mod:`repro.oracle.sites`) keys off them.

        Event details carry per-request identity (``slot:seq:...``) so
        the span tracer (:mod:`repro.tracing`) can assemble the
        lifecycle of every persisted write.  The extra non-boundary
        kinds (``wpq.alloc``, ``wpq.coalesce``, ``misu.protect``) are
        invisible to the crash-site enumerator, which filters on
        :data:`repro.instrumentation.PERSIST_BOUNDARY_KINDS`.
        """
        self.timeline = timeline
        sample = timeline.sample
        event = timeline.event
        added_fire = self.entry_added.fire
        freed_fire = self.slot_freed.fire
        record_retry = self.wpq.record_retry
        begin_fetch = self.wpq.begin_fetch
        try_allocate = self.wpq.try_allocate
        try_coalesce = self.wpq.try_coalesce

        def request_detail(entry, request):
            issue = request.issue_cycle
            return (
                f"{entry.index}:{request.seq}:{request.address:#x}:"
                f"{'P' if request.kind is WriteKind.PERSIST else 'E'}:"
                f"{'-' if issue is None else issue}"
            )

        def on_added(value=None):
            sample(self.sim.now, "wpq.occupancy", self.wpq.occupancy)
            detail = ""
            request = getattr(value, "request", None)
            if request is not None:
                detail = f"{value.index}:{request.seq}"
            event(self.sim.now, "wpq.insert", detail)
            added_fire(value)

        def on_freed(value=None):
            sample(self.sim.now, "wpq.occupancy", self.wpq.occupancy)
            index = getattr(value, "index", None)
            event(self.sim.now, "wpq.drain", "" if index is None else str(index))
            freed_fire(value)

        def on_retry():
            event(self.sim.now, "wpq.retry")
            record_retry()

        def on_fetch(entry):
            begin_fetch(entry)
            event(self.sim.now, "wpq.pop", str(entry.index))

        def on_allocate(request):
            entry = try_allocate(request)
            if entry is not None:
                event(self.sim.now, "wpq.alloc", request_detail(entry, request))
            return entry

        def on_coalesce(request):
            entry = try_coalesce(request)
            if entry is not None:
                event(self.sim.now, "wpq.coalesce", request_detail(entry, request))
            return entry

        self.entry_added.fire = on_added
        self.slot_freed.fire = on_freed
        self.wpq.record_retry = on_retry
        self.wpq.begin_fetch = on_fetch
        self.wpq.try_allocate = on_allocate
        self.wpq.try_coalesce = on_coalesce

        masu = getattr(self, "masu", None)
        if masu is not None:
            stage = masu.stage
            apply = masu.apply

            def on_stage(address, plaintext):
                log = stage(address, plaintext)
                event(self.sim.now, "masu.stage", f"@{address:#x}")
                return log

            def on_apply():
                address = masu.staged_address
                apply()
                event(
                    self.sim.now,
                    "masu.commit",
                    "" if address is None else f"@{address:#x}",
                )

            masu.stage = on_stage
            masu.apply = on_apply

    def stats_snapshot(self) -> Dict[str, int]:
        snap = dict(self.stats.as_dict())
        snap.update({f"nvm.{k}": v for k, v in self.nvm.stats().items()})
        snap["wpq.inserts"] = self.wpq.inserts
        snap["wpq.retry_events"] = self.wpq.retry_events
        snap["wpq.coalesced_total"] = self.wpq.coalesced
        return snap


# ======================================================================
# Thin per-design classes: a kind tag over the declared composition
# ======================================================================
class NonSecureIdealController(MemoryController):
    """The ideal reference: ADR fully exploited, zero security cost."""

    kind = ControllerKind.NON_SECURE_IDEAL


class PreWPQSecureController(MemoryController):
    """State of the art (Fig 5-b): all security before WPQ insertion."""

    kind = ControllerKind.PRE_WPQ_SECURE


class TriadNVMController(MemoryController):
    """Triad-NVM (Awad et al.): the pre-WPQ front with relaxed
    persistency — only the lowest counter/Merkle levels are persisted on
    the critical path (``SecurityConfig.triad_persist_levels``)."""

    kind = ControllerKind.TRIAD_NVM


class WriteThroughController(MemoryController):
    """SuperMem (Zuo/Hua/Xie): the pre-WPQ front with write-through,
    per-line-coalesced counter persistence — the tree walk leaves the
    persist critical path (``SecurityConfig.counter_write_through``)."""

    kind = ControllerKind.WRITE_THROUGH


class DolosController(MemoryController):
    """Mi-SU before the WPQ, Ma-SU after it (the paper's design)."""

    kind = ControllerKind.DOLOS


class PostWPQHypotheticalController(MemoryController):
    """Security strictly after the WPQ with no WPQ protection at all.

    Infeasible in practice (ADR would have to power the full security
    pipeline for every entry at drain time) but defines the performance
    bound of Figure 6.  Uses the full ADR budget worth of entries and
    zero insertion latency.
    """

    kind = ControllerKind.POST_WPQ_HYPOTHETICAL


class EADRSecureController(MemoryController):
    """Secure eADR: persistence domain = the whole cache hierarchy.

    A persist completes the moment the flush reaches the controller —
    no Mi-SU work, no (small-)WPQ back-pressure; the write buffer is
    sized like a cache-scale structure and the Ma-SU drains it lazily.
    The cost the paper's introduction rejects: on a power failure a
    large battery must run the *full* security pipeline over every
    buffered line, far beyond the standard ADR budget.
    """

    kind = ControllerKind.EADR_SECURE

    #: Buffered dirty lines the persistent cache domain can hold
    #: (mirrors the spec's ``eadr_buffer_entries``).
    EADR_BUFFER_ENTRIES = 512


# ======================================================================
# Factory
# ======================================================================
_CONTROLLERS = {
    ControllerKind.NON_SECURE_IDEAL: NonSecureIdealController,
    ControllerKind.PRE_WPQ_SECURE: PreWPQSecureController,
    ControllerKind.POST_WPQ_HYPOTHETICAL: PostWPQHypotheticalController,
    ControllerKind.DOLOS: DolosController,
    ControllerKind.EADR_SECURE: EADRSecureController,
    ControllerKind.TRIAD_NVM: TriadNVMController,
    ControllerKind.WRITE_THROUGH: WriteThroughController,
}

assert set(_CONTROLLERS) == set(CONTROLLER_SPECS)


def make_controller(
    sim: Simulator,
    config: SimConfig,
    stats: Optional[StatsRegistry] = None,
    nvm=None,
    keys: Optional[KeyStore] = None,
    registers: Optional[PersistentRegisters] = None,
) -> MemoryController:
    """Build the controller selected by ``config.controller``."""
    cls = _CONTROLLERS[config.controller]
    controller = cls(sim, config, stats, nvm, keys, registers)
    controller.start()
    return controller
