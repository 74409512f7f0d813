"""Split-counter encryption-counter blocks (Section 2.1).

Encryption counters are packed 64-to-a-block: one 64-bit *major*
counter shared by a 4 KB page plus 64 7-bit *minor* counters, one per
cacheline.  The effective counter for line ``i`` is
``(major << 7) | minor[i]``.  When a minor counter overflows, the major
counter increments, all minors reset, and the whole page must be
re-encrypted (tracked so the memory-traffic cost is visible to the
timing model).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Tuple

MINOR_BITS = 7
MINOR_LIMIT = 1 << MINOR_BITS  # 128
COUNTERS_PER_BLOCK = 64

#: Template for a freshly-reset minor array (copied, never mutated).
_ZERO_MINORS = bytes(COUNTERS_PER_BLOCK)
#: The encoded minors: one little-endian integer, minor ``i`` at bit
#: ``MINOR_BITS * i``, in ``_MINOR_BYTES`` bytes.
_MINOR_MASK = MINOR_LIMIT - 1
_MINOR_SHIFTS = range(0, COUNTERS_PER_BLOCK * MINOR_BITS, MINOR_BITS)
_MINOR_BYTES = (COUNTERS_PER_BLOCK * MINOR_BITS + 7) // 8


@dataclass(slots=True)
class SplitCounter:
    """The (major, minor) pair for one cacheline.

    Slotted: one of these is allocated per counter read/increment, so
    it sits on the per-write hot path of every secure controller.
    """

    major: int
    minor: int

    @property
    def value(self) -> int:
        """The effective encryption counter fed into the IV."""
        return (self.major << MINOR_BITS) | self.minor


class CounterBlock:
    """One 64-byte counter block covering a 4 KB page (64 cachelines)."""

    __slots__ = ("major", "minors", "overflows", "updates")

    def __init__(self) -> None:
        self.major: int = 0
        #: 7-bit minors in a flat byte array — one machine byte per
        #: counter instead of a list of boxed ints (the store holds one
        #: block per touched 4 KB page, so this is the bulk of its RAM).
        self.minors: array = array("B", _ZERO_MINORS)
        self.overflows: int = 0
        #: Total increments; drives Osiris' persistence stride.
        self.updates: int = 0

    def read(self, line_index: int) -> SplitCounter:
        """Current counter for cacheline ``line_index`` (0..63)."""
        self._check_index(line_index)
        return SplitCounter(self.major, self.minors[line_index])

    def increment(self, line_index: int) -> Tuple[SplitCounter, bool]:
        """Advance the counter for one line prior to encryption.

        Returns:
            ``(new_counter, overflowed)``.  On minor-counter overflow
            the major counter increments and *all* minors reset — the
            caller must re-encrypt the whole page (Section 2.1).
        """
        self._check_index(line_index)
        self.updates += 1
        minor = self.minors[line_index] + 1
        if minor >= MINOR_LIMIT:
            self.major += 1
            self.minors = array("B", _ZERO_MINORS)
            self.overflows += 1
            return SplitCounter(self.major, 0), True
        self.minors[line_index] = minor
        return SplitCounter(self.major, minor), False

    def snapshot(self) -> Tuple[int, Tuple[int, ...]]:
        """Immutable copy used by recovery tests and tree hashing."""
        return self.major, tuple(self.minors)

    def restore(self, snapshot: Tuple[int, Tuple[int, ...]]) -> None:
        major, minors = snapshot
        if len(minors) != COUNTERS_PER_BLOCK:
            raise ValueError("bad counter-block snapshot")
        for minor in minors:
            if not 0 <= minor < MINOR_LIMIT:
                raise ValueError("bad counter-block snapshot")
        self.major = major
        self.minors = array("B", minors)

    def encode(self) -> bytes:
        """Serialize to the 64-byte on-NVM layout (8 B major + 56 B minors).

        Seven-bit minors are stored packed, minor ``i`` at bit ``7 i``
        of one little-endian integer; the encoding only needs to be
        stable and injective for MAC/tree hashing purposes.
        """
        packed = 0
        for minor in reversed(self.minors):
            packed = (packed << MINOR_BITS) | (minor & _MINOR_MASK)
        return self.major.to_bytes(8, "little", signed=False) + packed.to_bytes(
            _MINOR_BYTES, "little"
        )

    @classmethod
    def decode(cls, payload: bytes) -> "CounterBlock":
        """Rebuild a block from its :meth:`encode` bytes (recovery path)."""
        if len(payload) < 8:
            raise ValueError("counter-block payload too short")
        if len(payload) < 8 + _MINOR_BYTES:
            raise ValueError("counter-block payload truncated")
        block = cls()
        block.major = int.from_bytes(payload[:8], "little")
        packed = int.from_bytes(payload[8:8 + _MINOR_BYTES], "little")
        block.minors = array(
            "B", [(packed >> shift) & _MINOR_MASK for shift in _MINOR_SHIFTS]
        )
        return block

    @staticmethod
    def _check_index(line_index: int) -> None:
        if not 0 <= line_index < COUNTERS_PER_BLOCK:
            raise IndexError(f"line index {line_index} outside 0..63")


class CounterStore:
    """All counter blocks of the memory, indexed by page number.

    This is the *architectural* state of the encryption counters — the
    content that lives in NVM.  The timing-level counter cache
    (:class:`repro.security.metadata_cache.MetadataCache`) models which
    blocks are on-chip; this store holds their values.
    """

    def __init__(self) -> None:
        self._blocks: Dict[int, CounterBlock] = {}

    def block_for_page(self, page: int) -> CounterBlock:
        block = self._blocks.get(page)
        if block is None:
            block = CounterBlock()
            self._blocks[page] = block
        return block

    def counter_for_address(self, address: int) -> SplitCounter:
        page, line = self.locate(address)
        return self.block_for_page(page).read(line)

    def increment_for_address(self, address: int) -> Tuple[SplitCounter, bool]:
        page, line = self.locate(address)
        return self.block_for_page(page).increment(line)

    @staticmethod
    def locate(address: int) -> Tuple[int, int]:
        """Map a byte address to (page number, cacheline index)."""
        return address >> 12, (address >> 6) & 0x3F

    @property
    def touched_pages(self) -> int:
        return len(self._blocks)

    def pages(self) -> Dict[int, CounterBlock]:
        return self._blocks
