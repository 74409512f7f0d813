"""Controller composition: strategy objects declared per design.

A :class:`~repro.config.SimConfig` no longer selects a monolithic
controller class — it selects a :class:`ControllerSpec`, which declares
the design as a composition of three strategy seams:

* a **WPQ-protection strategy** (the write path): direct insertion
  (non-secure ideal, Fig 5-c, eADR), the full pre-WPQ security front
  (Fig 5-b baseline, Triad-NVM, SuperMem write-through), or the Dolos
  Mi-SU engine (full/partial/post WPQ protection, Section 4.3);
* a **Ma-SU update strategy** (the drain side): a plain device-timing
  drain for already-secured entries, or the Figure 11 Ma-SU back-end
  that re-secures entries as they leave the queue (serial eager, lazy
  ToC, or Freij-style pipelined tree updates — picked by
  ``SecurityConfig.tree_update``);
* a **persistence-domain policy** (what a power failure means): secured
  pre-WPQ (nothing to drain), ADR + Mi-SU (the Dolos drain), an
  infeasible unprotected queue (Fig 5-c), or a battery-backed eADR
  domain.

:class:`~repro.core.controller.MemoryController` assembles the declared
strategies; the per-design classes are thin ``kind`` tags.  Every
strategy is a verbatim relocation of the former per-class code, so the
six legacy configurations stay bit-identical (enforced by
``tests/test_composition.py`` and the golden suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappush
from typing import Generator, Optional

from repro.config import ControllerKind
from repro.core.requests import WriteKind, WriteRequest
from repro.engine import Signal
from repro.engine.resources import PipelineLane, Resource

#: Cycles between WPQ drain command issues (scheduler bandwidth);
#: NVM bank busy-times provide the real throughput limit.
DRAIN_ISSUE_INTERVAL = 4


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative composition of one memory-controller organisation."""

    kind: ControllerKind
    #: Build a Major Security Unit (full-memory security pipeline).
    has_masu: bool = True
    #: Build a Minor Security Unit + its ADR drain (WPQ protection).
    has_misu: bool = False
    #: WPQ-protection strategy (write path): a key into
    #: :data:`WRITE_STRATEGIES`.
    protection: str = "direct"
    #: Ma-SU update strategy (drain side): a key into
    #: :data:`DRAIN_STRATEGIES`.
    update: str = "plain"
    #: Persistence-domain policy: a key into :data:`DOMAINS`.
    domain: str = "presecured"
    #: Whether the plain drain writes the request's raw bytes to the
    #: device.  True when the WPQ holds the final plaintext; False when
    #: a pre-WPQ security front already wrote the ciphertext at submit
    #: time (draining the plaintext over it would corrupt the image).
    drain_writes_data: bool = True
    #: Direct insertion marks entries protected on commit (the entry is
    #: inside a battery-backed persistence domain).
    marks_protected: bool = False
    #: WPQ capacity policy: "budget" (full ADR budget), "misu" (sized by
    #: the Mi-SU design's ADR split), or "eadr" (cache-scale buffer).
    wpq_sizing: str = "budget"
    #: Buffered dirty lines for the "eadr" sizing policy.
    eadr_buffer_entries: int = 512


#: One spec per Figure 5 organisation plus the designs grown on top of
#: the strategy seams (ROADMAP item 3).  Triad-NVM and SuperMem
#: write-through share the pre-WPQ composition — their models live in
#: ``SecurityConfig`` (``triad_persist_levels``/``counter_write_through``),
#: exactly as the eager/lazy split always has.
CONTROLLER_SPECS = {
    ControllerKind.NON_SECURE_IDEAL: ControllerSpec(
        kind=ControllerKind.NON_SECURE_IDEAL,
        has_masu=False,
        protection="direct",
        update="plain",
        domain="volatile",
        drain_writes_data=True,
    ),
    ControllerKind.PRE_WPQ_SECURE: ControllerSpec(
        kind=ControllerKind.PRE_WPQ_SECURE,
        protection="masu-front",
        update="plain",
        domain="presecured",
        drain_writes_data=False,
    ),
    ControllerKind.TRIAD_NVM: ControllerSpec(
        kind=ControllerKind.TRIAD_NVM,
        protection="masu-front",
        update="plain",
        domain="presecured",
        drain_writes_data=False,
    ),
    ControllerKind.WRITE_THROUGH: ControllerSpec(
        kind=ControllerKind.WRITE_THROUGH,
        protection="masu-front",
        update="plain",
        domain="presecured",
        drain_writes_data=False,
    ),
    ControllerKind.DOLOS: ControllerSpec(
        kind=ControllerKind.DOLOS,
        has_misu=True,
        protection="misu",
        update="masu-backend",
        domain="adr-misu",
        wpq_sizing="misu",
    ),
    ControllerKind.POST_WPQ_HYPOTHETICAL: ControllerSpec(
        kind=ControllerKind.POST_WPQ_HYPOTHETICAL,
        has_misu=True,
        protection="direct",
        update="masu-backend",
        domain="unprotected",
    ),
    ControllerKind.EADR_SECURE: ControllerSpec(
        kind=ControllerKind.EADR_SECURE,
        has_misu=True,
        protection="direct",
        update="masu-backend",
        domain="eadr-battery",
        marks_protected=True,
        wpq_sizing="eadr",
    ),
}


def controller_spec(kind: ControllerKind) -> ControllerSpec:
    """The composition spec for ``kind``."""
    return CONTROLLER_SPECS[kind]


# ======================================================================
# WPQ-protection strategies (the write path)
# ======================================================================
class DirectInsertWrite:
    """Commit on WPQ arrival; no security on the insertion path.

    Serves the non-secure ideal, Fig 5-c (whose security runs strictly
    after the queue) and secure eADR (whose entries are protected by the
    battery-backed domain the moment they commit).
    """

    #: Generator strategies leave the controller's generic
    #: ``submit_write`` in place.
    callback = False

    def __init__(self, controller) -> None:
        self.c = controller
        self.marks_protected = controller.spec.marks_protected

    def path(self, request: WriteRequest, done: Optional[Signal]) -> Generator:
        c = self.c
        entry = yield from c._acquire_wpq_slot(request)
        yield 1  # queue insertion
        if self.marks_protected:
            entry.protected = True  # inside the (battery-backed) domain
        if done is not None:
            done.fire(c.sim.now)
            c.stats.add("persist.completed")
        c.entry_added.fire(entry)


class MaSUFrontWrite:
    """The full security pipeline *before* WPQ insertion (Fig 5-b).

    The Ma-SU is a single serialized pipeline; persists queue behind
    each other's counter fetches, AES, and tree-update MAC chains
    before they are considered persisted.  Triad-NVM and SuperMem
    write-through use the same front with relaxed critical-path models
    (``SecurityConfig.masu_critical_hash_latency``).
    """

    callback = False

    def __init__(self, controller) -> None:
        self.c = controller
        self.lane = PipelineLane(
            controller.config.security.masu_issue_interval, "security-unit"
        )

    def path(self, request: WriteRequest, done: Optional[Signal]) -> Generator:
        c = self.c
        # Security first (the persist critical path of the baseline).
        # The unit is pipelined: it accepts a new write every issue
        # interval, but each write's full metadata/MAC latency must
        # elapse before the write may enter the persistence domain.
        latency = c.masu.write_pipeline_latency(
            c.sim.now, request.address, critical_path=True
        )
        _start, finish = self.lane.book(c.sim.now, latency)
        if request.data is not None:
            c.masu.secure_write(request.address, request.data)
        yield finish - c.sim.now
        c.stats.add("security.pre_wpq_ops")
        # Then persist: WPQ insertion.
        entry = yield from c._acquire_wpq_slot(request)
        yield 1
        if done is not None:
            done.fire(c.sim.now)
            c.stats.add("persist.completed")
        c.entry_added.fire(entry)


class MiSUWriteEngine:
    """Dolos Mi-SU protection (Section 4.3) as a callback state machine.

    Dolos spawns one write path per persist/eviction, so the per-write
    Process + generator-resume machinery was the single largest
    simulation cost.  Each ``_write_*`` stage mirrors one segment of the
    former generator between yields; every wait is a ``call_after``/
    Signal subscription with identical scheduling, so the event
    interleaving (and hence every metric) is unchanged.  The zero-delay
    start honours the same pending-same-cycle guard as
    ``Process.__init__``.
    """

    #: Callback strategies replace the controller's ``submit_write``
    #: wholesale (bound at construction).
    callback = True

    def __init__(self, controller) -> None:
        self.c = controller
        #: Serializes slot allocation so coalescing/allocation stay FIFO.
        self.port = Resource(controller.sim, 1, "misu")
        #: Mi-SU's pipelined MAC engine.
        self.lane = PipelineLane(
            controller.config.security.misu_issue_interval, "misu-mac"
        )
        #: The Mi-SU flavour is fixed per run; resolve the per-write
        #: branches once.
        self.deferred = controller.misu.deferred

    # -- write ----------------------------------------------------------
    def submit_write(self, request: WriteRequest) -> Optional[Signal]:
        c = self.c
        sim = c.sim
        request.seq = c._seq
        c._seq += 1
        request.arrival = sim.now
        c.writes_received += 1
        c.stats.add("controller.writes")
        done = (
            Signal(sim, "persist")
            if request.kind is WriteKind.PERSIST
            else None
        )
        heap = sim._queue._heap
        if sim._batch_pending or (heap and heap[0][0] == sim.now):
            sim.call_after(0, partial(self._write_start, request, done))
        else:
            self._write_start(request, done)
        return done

    def _write_start(self, request: WriteRequest, done: Optional[Signal]) -> None:
        """Acquire the Mi-SU port (Resource.acquire's uncontended path
        inlined), then move to the busy-check/alloc stage."""
        port = self.port
        if port.in_use < port.capacity and not port._wait_queue:
            port.in_use += 1
            port.total_acquisitions += 1
            self._write_port_held(request, done)
            return
        gate = Signal(self.c.sim, name=f"{port.name}.gate")
        port._wait_queue.append(gate)
        started = self.c.sim.now

        def granted(_value: object) -> None:
            port.total_wait_cycles += self.c.sim.now - started
            port.in_use += 1
            port.total_acquisitions += 1
            self._write_port_held(request, done)

        gate._waiters.append(granted)

    def _write_port_held(self, request: WriteRequest, done: Optional[Signal]) -> None:
        # Post-WPQ-MiSU: a previous deferred secure op may still be
        # running; only one may be outstanding (Section 4.3).
        c = self.c
        if self.deferred and c.misu.is_busy(c.sim.now):
            wait = c.misu.busy_until - c.sim.now
            c.stats.add("misu.busy_stalls")
            c.stats.add("misu.busy_wait_cycles", wait)
            c.sim.call_after(
                wait, partial(self._write_alloc, request, done, False)
            )
            return
        self._write_alloc(request, done, False)

    def _write_alloc(
        self, request: WriteRequest, done: Optional[Signal], blocked: bool
    ) -> None:
        """_acquire_wpq_slot's retry loop (Table 2 retry semantics)."""
        c = self.c
        wpq = c.wpq
        if c.config.wpq_coalescing:
            entry = wpq.try_coalesce(request)
            if entry is not None:
                c.stats.add("wpq.coalesced")
                self._write_committed(entry, request, done)
                return
        entry = wpq.try_allocate(request)
        if entry is not None:
            self._write_committed(entry, request, done)
            return
        if not blocked:
            wpq.record_retry()
            c.stats.add("wpq.retries")
        c.slot_freed._waiters.append(
            lambda _value: self._write_alloc(request, done, True)
        )

    def _write_committed(
        self, entry, request: WriteRequest, done: Optional[Signal]
    ) -> None:
        c = self.c
        sim = c.sim
        misu = c.misu
        if self.deferred:
            # Commit immediately; the secure op runs post-commit on the
            # (reservable-by-ADR) deferred engine.  The port is held
            # through commit so the "at most one outstanding deferred
            # op" invariant (Section 4.3) cannot be raced.
            sim.call_after(
                misu.insertion_latency(),
                partial(self._write_deferred_commit, entry, request, done),
            )
            return
        # Full/Partial: XOR + MAC(s) before commit, on the pipelined
        # Mi-SU MAC engine (the port is released as soon as the op is
        # booked, so inserts pipeline at the engine's initiation
        # interval).
        _start, finish = self.lane.book(sim.now, misu.insertion_latency())
        self.port.release()
        sim.call_after(
            finish - sim.now, partial(self._write_protect, entry, request, done)
        )

    def _write_deferred_commit(
        self, entry, request: WriteRequest, done: Optional[Signal]
    ) -> None:
        c = self.c
        entry.mac_pending = True
        entry.protected = True  # committed; ADR covers the MAC
        deferred_done = c.misu.start_deferred(c.sim.now)
        c.sim.call_after(
            deferred_done - c.sim.now,
            lambda e=entry: self._finish_deferred(e),
        )
        self.port.release()
        self._write_done(entry, done)

    def _write_protect(
        self, entry, request: WriteRequest, done: Optional[Signal]
    ) -> None:
        c = self.c
        if request.data is not None:
            c.misu.protect(entry)
        entry.protected = True
        c.stats.add("misu.protected")
        if c.timeline is not None:
            c.timeline.event(
                c.sim.now, "misu.protect", f"{entry.index}:{request.seq}"
            )
        self._write_done(entry, done)

    def _write_done(self, entry, done: Optional[Signal]) -> None:
        c = self.c
        if done is not None:
            done.fire(c.sim.now)
            c.stats.add("persist.completed")
        c.entry_added.fire(entry)

    def _finish_deferred(self, entry) -> None:
        """Complete a Post-WPQ deferred protection."""
        c = self.c
        if entry.occupied and entry.request is not None:
            if entry.request.data is not None:
                c.misu.protect(entry)
            entry.mac_pending = False
            c.stats.add("misu.protected")
            if c.timeline is not None:
                c.timeline.event(
                    c.sim.now,
                    "misu.protect",
                    f"{entry.index}:{entry.request.seq}",
                )


# ======================================================================
# Ma-SU update strategies (the drain side)
# ======================================================================
class PlainDrain:
    """Drain already-secured entries: pipelined NVM writes.

    Used by controllers whose entries need no post-WPQ security (direct
    non-secure persistence and the pre-WPQ security fronts).  The loop
    issues one write per interval; completions free slots when the bank
    write finishes, so independent banks overlap.
    """

    def __init__(self, controller) -> None:
        self.c = controller
        self.writes_data = controller.spec.drain_writes_data

    def loop(self) -> Generator:
        c = self.c
        sim = c.sim
        wpq = c.wpq
        interval = DRAIN_ISSUE_INTERVAL
        writes_data = self.writes_data
        while True:
            entry = wpq.oldest_pending()
            if entry is None:
                yield c.entry_added
                continue
            wpq.begin_fetch(entry)
            assert entry.request is not None
            request = entry.request
            accepted, _done = c.nvm.timed_write_accept(sim.now, request.address)

            def complete(entry=entry, request=request) -> None:
                if request.data is not None and writes_data:
                    c.nvm.write_line(request.address, request.data)
                c.wpq.mark_cleared(entry)
                c.stats.add("wpq.drained")
                c.slot_freed.fire(entry)

            sim.call_after(accepted - sim.now, complete)
            # The next command can issue once this one is accepted (the
            # command bus is serial) or after the issue interval.
            yield max(interval, accepted - sim.now)


class MaSUBackendDrain:
    """Ma-SU's Figure 11 loop: fetch, re-secure, write back, clear.

    The back-end is pipelined: a new entry issues every Ma-SU initiation
    interval while each entry's full metadata latency elapses before its
    redo log is ready (and hence before the WPQ slot can be reclaimed).
    The initiation interval itself comes from the configured tree-update
    scheme (serial eager, lazy ToC, or Freij-style pipelined updates).
    """

    def __init__(self, controller) -> None:
        self.c = controller
        #: Ma-SU's pipelined back-end (drain side).
        self.lane = PipelineLane(
            controller.config.security.masu_issue_interval, "masu"
        )

    def loop(self) -> Generator:
        c = self.c
        sim = c.sim
        wpq = c.wpq
        masu = c.masu
        lane = self.lane
        mac_latency = c.config.security.mac_latency
        while True:
            entry = wpq.oldest_pending()
            if entry is None:
                yield c.entry_added
                continue
            if entry.mac_pending:
                # Let the deferred Mi-SU op finish before consuming.
                yield mac_latency
                continue
            wpq.begin_fetch(entry)
            assert entry.request is not None
            request = entry.request
            address = request.address
            # Step 1 (XOR decrypt, 1 cycle) + step 2 (full security
            # processing into the redo log) on the pipelined back-end.
            latency = 1 + masu.write_pipeline_latency(sim.now, address)
            start, finish = lane.book(sim.now, latency)

            def complete(entry=entry, request=request, address=address) -> None:
                if request.data is not None:
                    c.masu.secure_write(address, request.data)
                elif c.timeline is not None:
                    # Timing-only runs never reach the wrapped
                    # masu.stage/apply (no data bytes), so emit the
                    # Fig 11 step-2/3 instants here for span assembly.
                    # Functional (oracle) runs keep their event stream
                    # unchanged — the wrappers already cover them.
                    c.timeline.event(
                        c.sim.now, "masu.stage", str(entry.index)
                    )
                    c.timeline.event(
                        c.sim.now, "masu.commit", str(entry.index)
                    )
                # Step 3 (background): the ciphertext write to NVM; bank
                # time is booked but nothing waits on it.  Metadata and
                # shadow updates land in the metadata caches / the small
                # sequential shadow region (row-buffer hits) and do not
                # occupy data banks.
                c.nvm.timed_access(c.sim.now, address, True)
                # Step 4: clear the entry, freeing the slot, and reseal
                # its MAC (the cleared flag is in the MAC domain).
                c.wpq.mark_cleared(entry)
                c.misu.reseal_cleared(entry)
                c.stats.add("masu.writes")
                c.slot_freed.fire(entry)

            queue = sim._queue
            heappush(queue._heap, (finish, queue._seq, complete))
            queue._seq += 1
            # Next issue no earlier than the lane's next free slot.
            wait = lane._next_start - sim.now
            yield wait if wait > 1 else 1


# ======================================================================
# Persistence-domain policies (what a power failure means)
# ======================================================================
class VolatileDomain:
    """No secured persistence story: the non-secure ideal reference."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):
        raise RuntimeError(
            "the non-secure ideal has no secured crash-drain path; it "
            "exists as the overhead reference, not as a recoverable design"
        )


class PreSecuredDomain:
    """Security completed before WPQ insertion; ADR has nothing to do."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):
        """Power failure with a pre-WPQ security front.

        Every queued write already went through the full security
        pipeline *before* WPQ insertion — its ciphertext, counters,
        MACs and tree update are in NVM/persistent registers.  ADR has
        nothing to re-secure; the queue contents are redundant copies
        and are simply dropped (there is no drained image to replay).
        """
        return []


class ADRMiSUDomain:
    """Dolos: ADR drains the Mi-SU-protected WPQ image (recovery pkg)."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):
        """Power failure: drain the WPQ on ADR energy."""
        c = self.c
        misu = c.misu
        pending = 0
        if misu.deferred:
            # ADR reserves energy to finish at most one deferred MAC.
            for entry in c.wpq.occupied_entries():
                if entry.mac_pending and entry.request is not None:
                    if entry.request.data is not None:
                        misu.protect(entry)
                    entry.mac_pending = False
                    pending += 1
        return c.adr_drain.drain(c.wpq, pending_macs=pending)


class UnprotectedDomain:
    """Fig 5-c: the queue is unprotected; ADR cannot drain it securely."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):  # pragma: no cover - exercised via recovery tests
        raise RuntimeError(
            "Fig 5-c cannot drain within the ADR budget: entries are "
            "unprotected and the security pipeline needs external power"
        )


class EADRBatteryDomain:
    """Secure eADR: a non-standard battery must drain the cache domain."""

    def __init__(self, controller) -> None:
        self.c = controller

    def crash(self):
        """Quantify why this needs a non-standard battery."""
        c = self.c
        pending = c.wpq.occupancy
        energy = pending * (1 + c.config.security.masu_hash_latency // 100)
        raise RuntimeError(
            f"eADR drain needs the full security pipeline over {pending} "
            f"buffered lines (~{energy} ADR-entry-equivalents of energy) — "
            "beyond the standard ADR budget; use Dolos instead"
        )

    def battery_drain(self):
        """Power failure *with* the non-standard battery fitted.

        The battery runs the full Ma-SU pipeline over every buffered
        line in FIFO order (exactly what the lazy drain loop would have
        done), leaving nothing for ADR to flush — the drained WPQ image
        is empty.  The Ma-SU's volatile in-flight bookkeeping is lost,
        but an in-flight entry whose completion callback had not run is
        still occupied and is re-processed here; a completed entry was
        cleared atomically with its ``secure_write`` and is skipped.
        """
        c = self.c
        for entry in c.wpq.entries:
            entry.in_flight = False
        flushed = 0
        while True:
            entry = c.wpq.oldest_pending()
            if entry is None:
                break
            request = entry.request
            if request is not None and request.data is not None:
                c.masu.secure_write(request.address, request.data)
            c.wpq.mark_cleared(entry)
            c.misu.reseal_cleared(entry)
            flushed += 1
        c.stats.add("eadr.battery_flushes", flushed)
        return c.adr_drain.drain(c.wpq)


# ======================================================================
# Strategy registries (spec keys -> classes)
# ======================================================================
WRITE_STRATEGIES = {
    "direct": DirectInsertWrite,
    "masu-front": MaSUFrontWrite,
    "misu": MiSUWriteEngine,
}

DRAIN_STRATEGIES = {
    "plain": PlainDrain,
    "masu-backend": MaSUBackendDrain,
}

DOMAINS = {
    "volatile": VolatileDomain,
    "presecured": PreSecuredDomain,
    "adr-misu": ADRMiSUDomain,
    "unprotected": UnprotectedDomain,
    "eadr-battery": EADRBatteryDomain,
}
