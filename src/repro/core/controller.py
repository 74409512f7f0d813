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
* ``read(address)`` returns a Signal fired with the read latency.
* ``fill(address)`` books the same read but returns nothing (store-miss
  fills, which nothing waits on).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, Optional

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
from repro.core.requests import ReadRequest, WriteKind, WriteRequest
from repro.crypto.keys import KeyStore
from repro.engine import Process, Signal, Simulator
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
        #: Fired every time a WPQ slot frees (drain loop wake-up).
        self.slot_freed = Signal(sim, "wpq.slot_freed")
        #: Fired every time an entry lands in the WPQ.
        self.entry_added = Signal(sim, "wpq.entry_added")
        self._drain_process: Optional[Process] = None
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
        if self._write.callback:
            # Callback strategies (the Dolos Mi-SU engine) replace the
            # per-write Process + generator machinery wholesale; binding
            # the engine's method keeps the hot path free of per-call
            # dispatch.
            self.submit_write = self._write.submit_write  # type: ignore[method-assign]
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
    def start(self) -> None:
        """Launch the background drain process."""
        if self._drain_process is None:
            self._drain_process = Process(
                self.sim, self._drain_loop(), name=f"{self.kind.value}.drain"
            )

    def submit_write(self, request: WriteRequest) -> Optional[Signal]:
        """Hand a write to the controller.

        PERSIST writes return a Signal fired at persist completion;
        EVICTION writes are fire-and-forget (``None``).
        """
        request.seq = self._seq
        self._seq += 1
        request.arrival = self.sim.now
        self.writes_received += 1
        self.stats.add("controller.writes")
        # Names are static: per-request formatted names cost a string
        # build per write and nothing reads them (request identity for
        # the span tracer rides on the timeline event details instead).
        if request.kind is WriteKind.PERSIST:
            done = Signal(self.sim, "persist")
            Process(self.sim, self._write.path(request, done), name="write")
            return done
        Process(self.sim, self._write.path(request, None), name="wb")
        return None

    def read(self, address: int) -> Signal:
        """Demand read (LLC miss).  Signal fires with total latency."""
        sim = self.sim
        done = Signal(sim, "read")
        self._read(ReadRequest(address, sim.now), done)
        return done

    def fill(self, address: int) -> None:
        """Write-allocate fill (store miss): a read nothing waits on.

        Books exactly the timing :meth:`read` books — WPQ tag check,
        device read, Ma-SU verification at completion — but allocates
        no Signal and schedules no completion event.
        """
        self._read(ReadRequest(address, self.sim.now), None)

    def _read(self, request: ReadRequest, done: Optional[Signal]) -> None:
        """Start a read; deferred behind events pending this cycle.

        The zero-delay start honours the same pending-same-cycle guard
        as ``Process.__init__``.
        """
        self.reads_received += 1
        self.stats.add("controller.reads")
        sim = self.sim
        heap = sim._queue._heap
        if sim._batch_pending or (heap and heap[0][0] == sim.now):
            sim.call_after(0, partial(self._read_start, request, done))
        else:
            self._read_start(request, done)

    def _read_start(self, request: ReadRequest, done: Optional[Signal]) -> None:
        """Serve a read from the WPQ or the device (+ verification).

        The verification step exists only when the composition has a
        Ma-SU — the non-secure ideal pays device timing alone.
        """
        sim = self.sim
        if self.wpq.lookup(request.address) is not None:
            self.wpq.read_hits += 1
            if done is not None:
                sim.call_after(
                    self._wpq_read_hit_latency(),
                    partial(self._read_fire, request, done),
                )
            return
        finish = self.nvm.timed_access(sim.now, request.address, False)
        if self.masu is not None:
            sim.call_after(
                finish - sim.now, partial(self._read_verify, request, done)
            )
        elif done is not None:
            sim.call_after(
                finish - sim.now, partial(self._read_fire, request, done)
            )

    def _read_verify(self, request: ReadRequest, done: Optional[Signal]) -> None:
        verify = self.masu.read_verify_latency(self.sim.now, request.address)
        if done is not None:
            self.sim.call_after(verify, partial(self._read_fire, request, done))

    def _read_fire(self, request: ReadRequest, done: Signal) -> None:
        done.fire(self.sim.now - request.arrival)

    def _drain_loop(self) -> Generator:
        return self._drain.loop()

    def crash(self):
        """Power failure: delegate to the persistence-domain policy."""
        return self._domain.crash()

    # -- shared helpers --------------------------------------------------
    def _acquire_wpq_slot(self, request: WriteRequest) -> Generator:
        """Retry until a WPQ slot is allocated; returns the entry.

        A request that arrives to a full queue is NACK'd and re-tried
        when a slot frees; the NACK is one Table 2 "re-try event"
        (counted once per request — later wake-ups that lose the race
        for a freed slot are queueing, not new re-tries).
        """
        blocked = False
        while True:
            if self.config.wpq_coalescing:
                entry = self.wpq.try_coalesce(request)
                if entry is not None:
                    self.stats.add("wpq.coalesced")
                    return entry
            entry = self.wpq.try_allocate(request)
            if entry is not None:
                return entry
            if not blocked:
                blocked = True
                self.wpq.record_retry()
                self.stats.add("wpq.retries")
            yield self.slot_freed

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
