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

* ``submit_write(request, on_persist)`` hands a write to the controller
  and returns nothing.  ``on_persist()`` is called, with no argument,
  the moment a PERSIST write is architecturally persisted; it is
  ``None`` for EVICTION writes, which drain in the background.  A
  PERSIST submitted without a callback still completes and counts.
  The callback is deep-copied with an in-flight write when the
  controller is (the crash oracle's copies).  ``deepcopy`` shares a
  plain function but copies the object a bound method or a ``partial``
  is bound to, so the oracle's driver passes closures.
* ``read(address, at_tail, done)`` returns the read latency in cycles
  when it is known at issue; otherwise it returns ``None`` and calls
  ``done(latency)`` when the data is verified.  The latency is known
  for a WPQ hit, for a design without a Ma-SU, and — when the caller
  states it is at the tail of a kernel-dispatched event (``at_tail``)
  and no other event fires before the data returns — for device time
  plus the Ma-SU verification, computed at issue instead of when the
  data returns.  A read issued while events are pending at its cycle
  is booked behind them, so it always returns ``None``.
* ``fill(address)`` books the same read with no ``done`` (store-miss
  fills, which nothing waits on).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.engine import Simulator
from repro.stats import StatsRegistry
from repro.wpq.adr import ADRDrain
from repro.wpq.queue import WritePendingQueue


_PERSIST = WriteKind.PERSIST


def _unobserved() -> None:
    """Completion of a PERSIST write submitted without a callback."""


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
        self.coalescing = config.wpq_coalescing
        self._seq = 0
        #: The registry's counter mapping: the per-write counters are
        #: incremented on it directly.
        self.counts = self.stats.counts
        #: The drain's wake-up while it is parked on an empty queue;
        #: the next commit (:meth:`persisted`) calls it.
        self.parked_drain: Optional[Callable[[], None]] = None
        #: Writes a full queue NACK'd, as ``(request, then)`` in arrival
        #: order; each freed slot (:meth:`slot_freed`) re-tries them all.
        self.blocked_writes: List[Tuple[WriteRequest, Callable]] = []
        self._drain_started = False
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
            heap = sim._heap
            if sim._batch_pending or (heap and heap[0][0] == sim.now):
                sim.call_after(0, self._drain.wake)
            else:
                self._drain.wake()

    def submit_write(
        self,
        request: WriteRequest,
        on_persist: Optional[Callable[[], None]] = None,
    ) -> None:
        """Hand a write to the controller.

        ``on_persist()`` is called once a PERSIST write is persisted
        (``None`` for EVICTION writes, which nothing waits on).
        """
        sim = self.sim
        request.seq = self._seq
        self._seq += 1
        request.arrival = sim.now
        self.counts["controller.writes"] += 1
        if on_persist is None and request.kind is _PERSIST:
            on_persist = _unobserved
        heap = sim._heap
        if sim._batch_pending or (heap and heap[0][0] == sim.now):
            sim.call_after(0, partial(self._write.start, request, on_persist))
        else:
            self._write.start(request, on_persist)

    def read(
        self,
        address: int,
        at_tail: bool = False,
        done: Optional[Callable[[int], None]] = None,
        deferred: bool = False,
    ) -> Optional[int]:
        """Book one read: WPQ tag check, device read, verification.

        A demand read (LLC miss) returns the latency when it is known
        at issue; otherwise it returns ``None`` and the completion event
        calls ``done(latency)``.  ``at_tail`` states that the caller
        returns straight to the kernel's drain after this call (nothing
        else runs in its event), so when no event fires before the data
        returns, the verification it would compute then is computed at
        issue.  The trace core sets it; it cannot be inferred here (see
        the module docstring for when the latency is known at issue).
        With no ``done`` the read is a fill (:meth:`fill`): nothing
        waits on it, so it schedules only the verification a Ma-SU owes
        its data.

        An issued read is counted, then booked now — or, with events
        still pending at this cycle, behind them: the ``deferred``
        booking comes back here and schedules its completion.
        """
        sim = self.sim
        now = sim.now
        address &= ~0x3F  # line-align
        if not deferred:
            self.counts["controller.reads"] += 1
            heap = sim._heap
            if sim._batch_pending or (heap and heap[0][0] == now):
                sim.call_after(0, partial(self.read, address, False, done, True))
                return None
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
                elif done is not None:
                    sim.call_at(
                        finish, partial(self._read_verify, address, now, done)
                    )
                    return None
                else:
                    # A fill: the verification is the whole event.
                    sim.call_at(
                        finish, partial(masu.read_verify_latency, finish, address)
                    )
                    return None
        if not deferred:
            return finish - now
        if done is not None:
            sim.call_at(finish, partial(done, finish - now))
        return None

    def fill(self, address: int) -> None:
        """Write-allocate fill (store miss): a read nothing waits on.

        Books exactly the timing :meth:`read` books — WPQ tag check,
        device read, Ma-SU verification at data return — but schedules
        no completion event.
        """
        self.read(address)

    def _read_verify(
        self, address: int, arrival: int, done: Callable[[int], None]
    ) -> None:
        now = self.sim.now
        verify = self.masu.read_verify_latency(now, address)
        self.sim.call_after(verify, partial(done, now + verify - arrival))

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
        if self.coalescing:
            entry = wpq.try_coalesce(request)
            if entry is not None:
                self.counts["wpq.coalesced"] += 1
                then(entry)
                return
        entry = wpq.try_allocate(request)
        if entry is not None:
            then(entry)
            return
        if not blocked:
            wpq.record_retry()
            self.stats.add("wpq.retries")
        self.blocked_writes.append((request, then))

    def persisted(self, entry, on_persist: Optional[Callable[[], None]]) -> None:
        """An entry committed to the WPQ: complete its persist, wake the drain."""
        if on_persist is not None:
            on_persist()
            self.counts["persist.completed"] += 1
        if self.timeline is not None:
            self._log_insert(entry)
        drain = self.parked_drain
        if drain is not None:
            self.parked_drain = None
            drain()

    def slot_freed(self, entry) -> None:
        """A drained entry freed its slot: re-try the blocked writes.

        They re-try oldest first; one that loses the race again queues
        behind the writes it blocked with, in order.
        """
        if self.timeline is not None:
            self._log_drain(entry)
        blocked = self.blocked_writes
        if blocked:
            self.blocked_writes = []
            for request, then in blocked:
                self.allocate(request, then, True)

    def _wpq_read_hit_latency(self) -> int:
        """Serving a read from the WPQ: tag lookup + XOR decrypt."""
        return 2

    def wpq_occupancy(self) -> int:
        return self.wpq.occupancy

    def attach_timeline(self, timeline) -> None:
        """Record WPQ occupancy, retry and persist-boundary events.

        Insertions and drains are sampled by :meth:`persisted` and
        :meth:`slot_freed` (one ``timeline`` check each when no
        timeline is attached); the rest wraps WPQ and Ma-SU methods.
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
        event = timeline.event
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

    def _log_insert(self, entry) -> None:
        timeline = self.timeline
        now = self.sim.now
        timeline.sample(now, "wpq.occupancy", self.wpq.occupancy)
        request = entry.request
        detail = "" if request is None else f"{entry.index}:{request.seq}"
        timeline.event(now, "wpq.insert", detail)

    def _log_drain(self, entry) -> None:
        timeline = self.timeline
        now = self.sim.now
        timeline.sample(now, "wpq.occupancy", self.wpq.occupancy)
        timeline.event(now, "wpq.drain", str(entry.index))

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
