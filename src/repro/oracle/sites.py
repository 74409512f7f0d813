"""Systematic crash-site enumeration.

A *crash site* is a cycle at which the architecturally persistent
machine state is distinct from the previous site's.  Enumeration runs
the op stream once with a :class:`~repro.instrumentation.CrashSiteProbe`
attached, which snapshots a digest of the persistent machine state at
every persist-boundary event (WPQ insert/pop/drain, Ma-SU redo-log
stage, Ma-SU commit).  Sites are then deduplicated:

* multiple boundary events in the same cycle collapse to the last one
  (``Simulator.run(until=c)`` fires *all* events at cycle ``c``, so a
  crash can only observe the cycle's final state);
* consecutive boundaries with identical state digests collapse to one
  (crashing at either recovers identically);
* one *quiescent* site past the final cycle is appended, so the sweep
  always includes the crash-after-everything-drained case.

Because the driver is deterministic, a second execution of the same
(config, ops) pair stopped at ``site.cycle`` reproduces the hashed
state exactly.  The checkers walk one such execution through the sites
in cycle order and crash a deep copy at each
(:meth:`~repro.oracle.driver.OracleExecution.crash_copy`), so every
site sees the state a crash at that cycle would, never leftovers of an
earlier site's crash or recovery.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional

from repro.config import SimConfig
from repro.core.controller import MemoryController
from repro.instrumentation import CrashSiteProbe
from repro.oracle.driver import OracleExecution
from repro.oracle.ops import Op


def machine_state_hash(controller: MemoryController) -> str:
    """Digest of everything a power failure preserves.

    Covers the persistent registers (pad counter, tree/WPQ/ToC roots,
    boot epoch, redo-log ready bit + target) and the architectural
    content of every WPQ slot.  NVM data-line contents are *implied*:
    they only change through Ma-SU commits / drains, each of which also
    bumps a counter hashed here (``writes_processed`` or the slot
    state), so two boundaries with equal digests recover identically.
    """
    h = hashlib.blake2b(digest_size=12)

    def put(value) -> None:
        if value is None:
            h.update(b"\x00")
        elif isinstance(value, bytes):
            h.update(value)
        elif isinstance(value, bool):
            h.update(b"\x01" if value else b"\x02")
        else:
            h.update(int(value).to_bytes(16, "little", signed=True))

    regs = controller.registers
    put(regs.wpq_pad_counter)
    put(regs.wpq_root)
    put(regs.tree_root)
    put(regs.toc_root_counter)
    put(regs.boot_epoch)
    put(regs.redo_log.ready)
    put(regs.redo_log.address)
    put(regs.redo_log.wpq_index)
    for entry in controller.wpq.entries:
        put(entry.occupied)
        put(entry.cleared)
        put(entry.protected)
        put(entry.mac_pending)
        put(entry.ciphertext)
        put(entry.mac)
        put(entry.pad_counter)
        put(entry.content_address)
    masu = getattr(controller, "masu", None)
    if masu is not None:
        put(masu.writes_processed)
    return h.hexdigest()


@dataclass(frozen=True)
class CrashSite:
    """One distinct persist-boundary instant to inject a failure at."""

    site_id: int
    cycle: int
    #: Boundary kind that last changed state at this cycle.
    kind: str
    #: Machine-state digest recorded during the reference run; the
    #: replay's state at ``cycle`` must hash to this (determinism check).
    state_hash: str


@dataclass
class SiteEnumeration:
    """Result of one reference run's boundary sweep."""

    sites: List[CrashSite]
    #: Cycle at which the reference run went quiescent.
    final_cycle: int
    #: Raw boundary events observed before deduplication.
    raw_boundaries: int
    #: Commit persists observed by the reference driver (== len(ops)).
    commits_fired: int


def enumerate_sites(config: SimConfig, ops: List[Op]) -> SiteEnumeration:
    """Run the reference execution and enumerate distinct crash sites.

    One pass with the probe attached, stepped one event cycle at a time
    with ``run(until=cycle)``.  After every cycle in which a boundary
    event fired, the machine state is hashed — the exact observation a
    crash at that cycle makes (a boundary event's own instant can
    precede further same-cycle mutations by other in-flight writes, so
    hashing inside the event callback would disagree with what a crash
    at that cycle actually sees).  The first step runs to the current
    cycle: the pre-WPQ fronts fire boundaries inside the execution's
    constructor, and those belong to cycle 0's site, not the next one.
    """
    probe = CrashSiteProbe()
    execution = OracleExecution(config, ops, probe=probe)
    heap = execution.sim._heap
    boundaries = probe.boundaries
    sites: List[CrashSite] = []
    previous_digest = None
    hashed = 0
    cycle: Optional[int] = execution.sim.now
    while cycle is not None:
        execution.run(until=cycle)
        if len(boundaries) > hashed:
            hashed = len(boundaries)
            digest = machine_state_hash(execution.controller)
            if digest != previous_digest:
                sites.append(
                    CrashSite(len(sites), cycle, boundaries[-1][1], digest)
                )
                previous_digest = digest
        cycle = heap[0][0] if heap else None
    if not execution.finished:
        raise RuntimeError(
            "oracle reference run hung: driver did not finish "
            f"({execution.commits_fired}/{len(ops)} commits)"
        )
    final_cycle = execution.sim.now
    sites.append(
        CrashSite(len(sites), final_cycle + 1, "quiescent", "")
    )
    return SiteEnumeration(
        sites=sites,
        final_cycle=final_cycle,
        raw_boundaries=len(probe.boundaries),
        commits_fired=execution.commits_fired,
    )
