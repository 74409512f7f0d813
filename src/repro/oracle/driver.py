"""Deterministic log-structured KV driver for the crash oracle.

The driver turns an :class:`~repro.oracle.ops.Op` stream into controller
traffic with a crash-recoverable on-NVM layout (a write-ahead commit log
plus out-of-place value lines, :mod:`repro.persistence.commitlog`):

for each op::

    1. write the value payload to fresh 64 B lines at VALUE_BASE
       (PUTs only; 1-2 lines);
    2. **fence**: wait until every value line persisted;
    3. write one 64 B commit record at ``record_address(seq)``;
    4. wait until the commit record persisted.

The driver is two callbacks: :meth:`OracleExecution._issue_values`
starts an op (steps 1-2) and :meth:`OracleExecution._issue_record`
persists its record (steps 3-4); each fence's last persist completion
calls the next one.

Because the fence orders values before their commit record and records
are written strictly in sequence, a crash at *any* instant leaves a
prefix of the op stream durable: the recovered heap must match the
golden model after ``ops[:n]`` for the unique ``n`` read back from the
log.  ``commits_fired`` counts commit persists the driver observed
before the crash — recovery may never lose one of those
(``commits_fired <= n``), and may never invent commits (``n <= len(ops)``).

The whole execution is deterministic: replaying the same (config, ops)
pair to cycle ``c`` reproduces the reference run's machine state at
``c`` exactly.  That is what lets the site enumerator hash boundary
states in one run and a second run *walk* the chosen sites in cycle
order: at each site the walk crashes a deep copy of its controller
(:meth:`OracleExecution.crash_copy`) and then continues, untouched, to
the next site.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Tuple

from repro.config import CACHELINE_BYTES, SimConfig
from repro.core.controller import MemoryController, make_controller
from repro.core.requests import WriteKind, WriteRequest
from repro.engine import Simulator
from repro.oracle.ops import Op
from repro.persistence.commitlog import (
    OP_DEL,
    OP_PUT,
    VALUE_BASE,
    CommitRecord,
    record_address,
    value_checksum,
    value_lines,
)
from repro.recovery.crash import CrashImage, crash_system


class OracleExecution:
    """One deterministic run of an op stream against one controller."""

    def __init__(
        self,
        config: SimConfig,
        ops: List[Op],
        probe=None,
    ) -> None:
        self.config = config
        self.ops = ops
        self.sim = Simulator()
        self.controller: MemoryController = make_controller(self.sim, config)
        if probe is not None:
            self.controller.attach_timeline(probe)
        #: Commit-record persist completions observed so far.  Monotone
        #: lower bound on the recoverable prefix length.
        self.commits_fired = 0
        #: Next free value line (bump allocator; out-of-place writes).
        self._value_cursor = VALUE_BASE
        #: True once every op's commit record persisted.
        self.finished = False
        #: Index of the next op to start, and the commit record of the
        #: op in flight (persisted once its values are).
        self._next_op = 0
        self._record: Optional[CommitRecord] = None
        self._issue_values()

    # -- lifecycle -----------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Advance the simulation (to quiescence if ``until`` is None)."""
        self.sim.run(until=until)

    def crash_copy(self, battery: bool = False, injector=None) -> CrashImage:
        """Power-fail a deep copy of the machine at the current cycle.

        The copy shares only the simulator, whose queue it never runs,
        and a crash schedules nothing — so this execution continues
        exactly as if no crash had been taken.  Only unprobed
        executions qualify: a probe's wrappers close over the live
        controller.  ``battery`` and ``injector`` are
        :func:`~repro.recovery.crash.crash_system`'s.  The NVM device,
        the metadata caches' tag stores and the Merkle tree copy their
        flat stores with ``dict.copy()`` in ``__deepcopy__`` hooks;
        everything else takes the generic deep copy.
        """
        controller = copy.deepcopy(self.controller, {id(self.sim): self.sim})
        return crash_system(controller, battery=battery, injector=injector)

    # -- op stream -----------------------------------------------------
    def _persist(
        self,
        lines: List[Tuple[int, bytes]],
        then: Callable[[], None],
        commit: bool = False,
    ) -> None:
        """Persist ``lines``; call ``then()`` once all did (a fence).

        Every line gets the same counting callback; the last completion
        calls ``then``.  A completion comes at least one cycle after its
        submission, so none precedes the last submission.  ``commit``
        counts the completion in :attr:`commits_fired`.  The callback
        is a plain function, not a bound method: a crash copy
        deep-copies the in-flight write but shares functions, so it
        copies neither this driver nor its op list.
        """
        remaining = len(lines)

        def persisted() -> None:
            nonlocal remaining
            if commit:
                self.commits_fired += 1
            remaining -= 1
            if remaining == 0:
                then()

        for address, payload in lines:
            if len(payload) < CACHELINE_BYTES:
                payload = payload + b"\x00" * (CACHELINE_BYTES - len(payload))
            self.controller.submit_write(
                WriteRequest(address, WriteKind.PERSIST, data=payload), persisted
            )

    def _issue_values(self) -> None:
        """Start the next op: persist a PUT's value lines, then its record."""
        if self._next_op == len(self.ops):
            self.finished = True
            return
        op = self.ops[self._next_op]
        self._next_op += 1
        if op.kind != OP_PUT:
            self._record = CommitRecord(
                seq=op.seq,
                op=OP_DEL,
                key=op.key,
                value_address=0,
                value_length=0,
                checksum=value_checksum(b""),
            )
            self._issue_record()
            return
        value = op.value
        lines = value_lines(len(value))
        value_address = self._value_cursor
        self._value_cursor += lines * CACHELINE_BYTES
        self._record = CommitRecord(
            seq=op.seq,
            op=OP_PUT,
            key=op.key,
            value_address=value_address,
            value_length=len(value),
            checksum=value_checksum(value),
        )
        self._persist(
            [
                (
                    value_address + i * CACHELINE_BYTES,
                    value[i * CACHELINE_BYTES:(i + 1) * CACHELINE_BYTES],
                )
                for i in range(lines)
            ],
            self._issue_record,
        )

    def _issue_record(self) -> None:
        """Persist the op's commit record; once it did, start the next op.

        Commit records are strictly ordered: the next op's value lines
        are not even submitted until this record persisted.
        """
        record = self._record
        self._persist(
            [(record_address(record.seq), record.encode())],
            self._issue_values,
            commit=True,
        )
