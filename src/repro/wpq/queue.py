"""The Write Pending Queue (WPQ).

A fixed-capacity circular buffer of write entries managed FIFO:
``next_write_index`` (the paper's ``Next_time``) points at the next
free slot for insertion, ``next_fetch_index`` at the oldest entry for
the Ma-SU to process.  Each entry carries a *cleared* bit set when the
Ma-SU has fully re-secured the write; cleared entries are free slots.

A parallel **volatile tag array** (Section 4.5) maps plaintext
addresses to occupied slots, enabling write coalescing and read hits
without decrypting entries.  Being volatile, it vanishes on a crash —
recovery never needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.config import CACHELINE_BYTES
from repro.core.requests import WriteRequest


@dataclass
class WPQEntry:
    """One WPQ slot."""

    index: int
    occupied: bool = False
    #: True when the slot's *architectural content* (ciphertext/MAC) has
    #: been fully processed by the Ma-SU — recovery must not replay it.
    #: The content itself is retained until the slot is re-protected so
    #: the Full-WPQ tree stays consistent without re-MACing on clear.
    cleared: bool = True
    #: Set while Ma-SU is processing (cannot coalesce into it).
    in_flight: bool = False
    request: Optional[WriteRequest] = None
    #: Mi-SU artifacts — the slot's architectural content: pad-encrypted
    #: payload, per-entry MAC, pad counter, and the content's address.
    ciphertext: Optional[bytes] = None
    mac: Optional[bytes] = None
    pad_counter: int = 0
    content_address: int = 0
    #: For Post-WPQ-MiSU: the entry is persisted but its MAC is still
    #: being computed (covered by reserved ADR energy).
    mac_pending: bool = False
    #: Set once Mi-SU protection (or Post-WPQ commit) makes the entry
    #: part of the persistence domain.  Entries allocated but not yet
    #: protected are NOT persisted and are lost on a crash.
    protected: bool = False


class WritePendingQueue:
    """Circular FIFO of :class:`WPQEntry` with a volatile tag array."""

    def __init__(self, capacity: int, line_bytes: int = CACHELINE_BYTES) -> None:
        if capacity < 1:
            raise ValueError("WPQ capacity must be >= 1")
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a positive power of two")
        self.capacity = capacity
        self.line_bytes = line_bytes
        self._line_mask = ~(line_bytes - 1)
        self.entries: List[WPQEntry] = [WPQEntry(i) for i in range(capacity)]
        self.next_write_index = 0
        self.next_fetch_index = 0
        #: Volatile: *line* address -> slot index (Section 4.5).  Every
        #: access — insert, lookup and cleanup — keys on the same masked
        #: line address so unaligned writes coalesce, serve read hits,
        #: and leave no stale tag behind on clear.
        self._tags: Dict[int, int] = {}
        #: Occupied-slot count, maintained by :meth:`try_allocate` /
        #: :meth:`mark_cleared` / :meth:`reset` (the only three places
        #: that flip ``WPQEntry.occupied``) so ``occupancy`` is O(1)
        #: instead of an O(capacity) scan on every insert and poll.
        self._occupied_count = 0
        self.inserts = 0
        self.coalesced = 0
        self.retry_events = 0
        self.read_hits = 0
        self.high_water = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupied_count

    @property
    def is_full(self) -> bool:
        return self._occupied_count >= self.capacity

    @property
    def is_empty(self) -> bool:
        return self._occupied_count == 0

    def line_address(self, address: int) -> int:
        """The tag-array key: ``address`` masked to its cache line."""
        return address & self._line_mask

    def lookup(self, address: int) -> Optional[WPQEntry]:
        """Tag-array lookup (volatile); serves reads and coalescing."""
        index = self._tags.get(address & self._line_mask)
        if index is None:
            return None
        entry = self.entries[index]
        if not entry.occupied:
            return None
        return entry

    # ------------------------------------------------------------------
    def try_coalesce(self, request: WriteRequest) -> Optional[WPQEntry]:
        """Merge a write into an existing same-address entry.

        Only possible while the old entry has not been picked up by the
        Ma-SU.  The caller still re-runs Mi-SU protection on the merged
        payload (a fresh ciphertext/MAC for the slot).
        """
        index = self._tags.get(request.address & self._line_mask)
        if index is None:
            return None
        entry = self.entries[index]
        if not entry.occupied or entry.in_flight:
            return None
        # The slot's old (protected) content stays architectural until
        # Mi-SU re-protects the merged payload; a crash in between
        # drains and replays the *old* value, which was the persisted
        # one — the merged write never reported persist completion.
        entry.request = request
        entry.protected = False
        self.coalesced += 1
        return entry

    def try_allocate(self, request: WriteRequest) -> Optional[WPQEntry]:
        """Claim the next free slot for ``request``; None when full."""
        capacity = self.capacity
        if self._occupied_count >= capacity:
            return None
        # Scan from next_write_index for the first free slot (cleared
        # entries may be interleaved when Ma-SU completes out of order
        # relative to insertion during recovery; normally it is FIFO and
        # the first probe hits).
        entries = self.entries
        index = self.next_write_index
        entry = entries[index]
        if entry.occupied:
            for offset in range(1, capacity):
                index = (self.next_write_index + offset) % capacity
                entry = entries[index]
                if not entry.occupied:
                    break
            else:
                return None
        self.next_write_index = (index + 1) % capacity
        entry.occupied = True
        entry.in_flight = False
        entry.mac_pending = False
        entry.protected = False
        entry.request = request
        # entry.cleared / ciphertext / mac are untouched: the
        # previous content remains architectural (and tree-
        # covered) until Mi-SU protection overwrites it.
        self._tags[request.address & self._line_mask] = index
        self.inserts += 1
        count = self._occupied_count + 1
        self._occupied_count = count
        if count > self.high_water:
            self.high_water = count
        return entry

    def record_retry(self) -> None:
        """Count one insertion re-try event (Table 2's metric)."""
        self.retry_events += 1

    # ------------------------------------------------------------------
    def oldest_pending(self) -> Optional[WPQEntry]:
        """The oldest occupied, not-in-flight entry (Ma-SU's next job)."""
        entries = self.entries
        fetch = self.next_fetch_index
        entry = entries[fetch]
        if entry.occupied and not entry.in_flight:
            return entry
        capacity = self.capacity
        for offset in range(1, capacity):
            entry = entries[(fetch + offset) % capacity]
            if entry.occupied and not entry.in_flight:
                return entry
        return None

    def begin_fetch(self, entry: WPQEntry) -> None:
        """Ma-SU step 1: pin the entry while it is being re-secured."""
        entry.in_flight = True

    def mark_cleared(self, entry: WPQEntry) -> None:
        """Ma-SU step 4: release the slot and advance the fetch index.

        The slot's ciphertext/MAC are *retained* until the slot is
        reused: the Full-WPQ tree root still covers them (the paper
        avoids recomputing MACs on clear), and draining a cleared slot
        is harmless — recovery skips it.
        """
        if entry.occupied:
            self._occupied_count -= 1
        entry.occupied = False
        entry.cleared = True
        entry.in_flight = False
        if entry.request is not None:
            key = entry.request.address & self._line_mask
            if self._tags.get(key) == entry.index:
                del self._tags[key]
        self.next_fetch_index = (entry.index + 1) % self.capacity

    # ------------------------------------------------------------------
    def occupied_entries(self) -> Iterator[WPQEntry]:
        """Live (not yet Ma-SU-processed) entries."""
        for entry in self.entries:
            if entry.occupied:
                yield entry

    def drainable_entries(self) -> Iterator[WPQEntry]:
        """Everything ADR flushes on a power failure: every slot with
        architectural content (live or already-processed)."""
        for entry in self.entries:
            if entry.ciphertext is not None:
                yield entry

    def reset(self) -> None:
        """Post-recovery reinitialisation (fresh boot)."""
        for entry in self.entries:
            entry.occupied = False
            entry.cleared = True
            entry.in_flight = False
            entry.request = None
            entry.ciphertext = None
            entry.mac = None
            entry.mac_pending = False
            entry.protected = False
        self._tags.clear()
        self._occupied_count = 0
        self.next_write_index = 0
        self.next_fetch_index = 0
