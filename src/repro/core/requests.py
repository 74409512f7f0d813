"""Memory-controller request types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class WriteKind(enum.Enum):
    """Why a write arrived at the memory controller."""

    #: Explicit persist (clwb/clflush + fence); the core stalls on its
    #: acceptance into the persistence domain.
    PERSIST = "persist"
    #: Dirty LLC eviction; ordinary buffered write, core never waits.
    EVICTION = "eviction"


@dataclass(slots=True)
class WriteRequest:
    """One 64-byte write arriving at the memory controller."""

    address: int
    kind: WriteKind
    #: Plaintext bytes; ``None`` in timing-only runs.
    data: Optional[bytes] = None
    #: Monotonic id assigned by the controller (insertion order).
    seq: int = -1
    #: Cycle the request arrived at the controller.
    arrival: int = 0
    #: Cycle the core issued the flush (before hierarchy traversal);
    #: ``None`` for writes that never crossed the core (evictions).
    #: Consumed by the span tracer (:mod:`repro.tracing`).
    issue_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        self.address &= ~0x3F  # line-align
