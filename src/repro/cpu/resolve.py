"""Resolve an op stream against the CPU caches once, for every design.

Every design in a comparison replays one identical op stream, and
nothing the memory controller does feeds back into the L1/L2/LLC: the
hit/miss outcome of every load, store and clwb, the dirty victims each
fill pushes out, and the IPC-charged work between them are fixed once
the op stream and the cache geometry are known.  :func:`resolve` runs
the hierarchy and the work accounting over the stream a single time and
keeps only what the controller sees — a :class:`ResolvedTrace` the core
(:class:`repro.cpu.core.TraceCore`) replays under each design.

Each resolved event carries ``wait``: the cycles the core accumulated
since its previous yield to the kernel.  Fills and evictions do not
yield — they issue at the cycle of the last yield — so their ``wait``
is always 0 and the next yielding event carries the cycles instead.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.config import SimConfig
from repro.cpu.trace import (
    OP_ARRIVAL,
    OP_CLWB,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXBEGIN,
    OP_TXEND,
    OP_WORK,
)
from repro.mem.hierarchy import CacheHierarchy

#: Store miss: a write-allocate fill nothing waits on.
EV_FILL = 0
#: Dirty LLC victim: a background write.
EV_EVICT = 1
#: Demand load miss: the core waits for the round trip.
EV_LOAD = 2
#: Dirty clwb: a persist toward the controller.
EV_PERSIST = 3
EV_FENCE = 4
EV_TXBEGIN = 5
EV_TXEND = 6
#: Open-loop arrival stamp (operand as packed in the op stream).
EV_ARRIVAL = 7


def resolve_key(config: SimConfig) -> tuple:
    """The config fields a resolved stream depends on."""
    return (config.l1, config.l2, config.llc, config.core.ipc)


class ResolvedTrace:
    """The controller-visible events of one op stream under one geometry.

    Three parallel columns (``kinds``, ``operands``, ``waits``), the
    cycles accumulated after the last event (``tail``), and the op
    stream's instruction count.
    """

    __slots__ = ("kinds", "operands", "waits", "tail", "instructions")

    def __init__(
        self,
        kinds: List[int],
        operands: List[int],
        waits: List[int],
        tail: int,
        instructions: int,
    ) -> None:
        self.kinds = kinds
        self.operands = operands
        self.waits = waits
        self.tail = tail
        self.instructions = instructions

    def events(self):
        """Iterator of ``(kind, operand, wait)`` triples."""
        return zip(self.kinds, self.operands, self.waits)


def resolve(ops: Iterable, config: SimConfig) -> ResolvedTrace:
    """Run ``ops`` through a fresh cache hierarchy and the IPC model.

    ``ops`` is any iterable of op tuples or ``(code, operand)`` pairs.
    Only the fields in :func:`resolve_key` influence the result.
    """
    hierarchy = CacheHierarchy(config)
    access = hierarchy.access
    clwb = hierarchy.clwb
    ipc = config.core.ipc
    kinds: List[int] = []
    operands: List[int] = []
    waits: List[int] = []
    kind_add = kinds.append
    operand_add = operands.append
    wait_add = waits.append
    acc = 0  # cycles since the core's last yield
    carry = 0.0  # fractional work cycles not yet charged
    instructions = 0
    for op in ops:
        code = op[0]
        if code == OP_WORK:
            n = op[1]
            instructions += n
            cost = n / ipc + carry
            whole = int(cost)
            carry = cost - whole
            acc += whole
        elif code == OP_LOAD or code == OP_STORE:
            instructions += 1
            is_store = code == OP_STORE
            result = access(op[1], is_store)
            acc += result.latency
            if result.needs_memory:
                kind_add(EV_FILL if is_store else EV_LOAD)
                operand_add(op[1])
                if is_store:
                    # The store retires through the store buffer; the
                    # fill proceeds in the background.
                    wait_add(0)
                else:
                    # A demand load yields its own hierarchy latency
                    # too; its victims issue after the read returns.
                    wait_add(acc)
                    acc = 0
            for victim in result.writebacks:
                kind_add(EV_EVICT)
                operand_add(victim)
                wait_add(0)
        elif code == OP_CLWB:
            instructions += 1
            acc += 1  # issue slot
            line = clwb(op[1])
            if line is not None:
                kind_add(EV_PERSIST)
                operand_add(line)
                wait_add(acc)
                acc = 0
        elif code == OP_FENCE:
            instructions += 1
            kind_add(EV_FENCE)
            operand_add(0)
            wait_add(acc)
            acc = 0
        elif code == OP_TXBEGIN or code == OP_TXEND:
            kind_add(EV_TXBEGIN if code == OP_TXBEGIN else EV_TXEND)
            operand_add(0)
            wait_add(acc)
            acc = 0
        elif code == OP_ARRIVAL:
            kind_add(EV_ARRIVAL)
            operand_add(op[1])
            wait_add(acc)
            acc = 0
        else:
            raise ValueError(f"unknown trace op {op!r}")
    return ResolvedTrace(kinds, operands, waits, acc, instructions)
