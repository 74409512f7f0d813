"""Trace serialisation: save/load op streams as two int64 columns.

Generating a WHISPER trace is pure-Python work that dominates short
experiment runs; serialising the op stream lets sweeps regenerate it
once and replay it from disk.  The columns are stdlib ``array('q')``
(opcode, operand), and a trace file is flat: :data:`MAGIC`, the JSON
header's length and the op count, the JSON header (provenance plus
:data:`FORMAT_VERSION`), then the codes and the operands as
little-endian int64.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from struct import Struct
from typing import Dict, List, Optional, Tuple, Union

from repro.cpu.resolve import ResolvedTrace, resolve, resolve_key
from repro.cpu.trace import OP_FENCE

FORMAT_VERSION = 2

#: First bytes of every trace file.
MAGIC = b"DOLOSTRC"

#: Magic, JSON header length in bytes, op count.
_PREFIX = Struct("<8sIQ")

#: Bytes per op in the body: one int64 code and one int64 operand.
_OP_BYTES = 16

#: Files hold little-endian columns; a big-endian host swaps them.
_SWAP = sys.byteorder == "big"


def trace_to_arrays(trace) -> Tuple[array, array]:
    """Split an op list into (opcode, operand) ``array('q')`` columns.

    Fences carry no operand; they are stored as operand 0.  A
    :class:`PackedTrace` passes its columns through unchanged.
    """
    if isinstance(trace, PackedTrace):
        return trace.codes, trace.operands
    codes = array("q", [op[0] for op in trace])
    operands = array("q", [op[1] if len(op) > 1 else 0 for op in trace])
    return codes, operands


class PackedTrace:
    """A column-packed op stream the core can replay directly.

    Holds the two ``array('q')`` columns of :func:`trace_to_arrays`; no
    per-op tuple list is ever materialised on the replay path (loading a
    cached trace used to rebuild the whole list through a Python loop
    with a per-op length check).  :meth:`resolved` memoizes the
    stream's cache-resolved form per cache geometry and IPC, so every
    design replaying one cached trace pays for the hierarchy once.
    :meth:`pairs` and ``__iter__`` provide the op stream itself for
    code that still wants it.
    """

    __slots__ = ("codes", "operands", "_columns", "_resolved")

    def __init__(self, codes: array, operands: array) -> None:
        if len(codes) != len(operands):
            raise ValueError(
                f"column length mismatch: {len(codes)} codes vs "
                f"{len(operands)} operands"
            )
        self.codes = codes
        self.operands = operands
        #: Lazily-built (codes, operands) Python-int lists behind
        #: :meth:`pairs`; ``tolist`` is one C call.
        self._columns: Optional[Tuple[list, list]] = None
        #: Resolved streams by :func:`repro.cpu.resolve.resolve_key`.
        self._resolved: Dict[tuple, ResolvedTrace] = {}

    @classmethod
    def from_trace(cls, trace) -> "PackedTrace":
        """Pack a tuple-list trace (idempotent on a PackedTrace)."""
        if isinstance(trace, cls):
            return trace
        return cls(*trace_to_arrays(trace))

    def columns(self) -> "Tuple[list, list]":
        """The (codes, operands) columns as plain Python-int lists."""
        columns = self._columns
        if columns is None:
            columns = self._columns = (
                self.codes.tolist(), self.operands.tolist()
            )
        return columns

    def pairs(self):
        """Iterator of ``(code, operand)`` pairs (a C-level ``zip``)."""
        codes, operands = self.columns()
        return zip(codes, operands)

    def resolved(self, config) -> ResolvedTrace:
        """The stream resolved under ``config``'s caches (memoized).

        Resolving reads the columns through one transient pair of
        Python lists rather than caching them: after the first design,
        only the int64 columns and the (much shorter) resolved stream
        stay resident.
        """
        key = resolve_key(config)
        stream = self._resolved.get(key)
        if stream is None:
            codes, operands = self._columns or (
                self.codes.tolist(), self.operands.tolist()
            )
            stream = self._resolved[key] = resolve(zip(codes, operands), config)
        return stream

    def to_trace(self) -> List[Tuple]:
        """Materialise the classic tuple-list form."""
        return arrays_to_trace(self.codes, self.operands)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        for code, operand in self.pairs():
            if code == OP_FENCE:
                yield (code,)
            else:
                yield (code, operand)


def arrays_to_trace(codes: array, operands: array) -> List[Tuple]:
    """Rebuild the op-tuple list the core model consumes."""
    out: List[Tuple] = []
    append = out.append
    for code, operand in zip(codes.tolist(), operands.tolist()):
        if code == OP_FENCE:
            append((code,))
        else:
            append((code, operand))
    return out


def save_trace(
    path: Union[str, Path],
    trace: List[Tuple],
    metadata: Optional[Dict] = None,
) -> Path:
    """Write a trace (and provenance metadata) to ``path``; returns it."""
    path = Path(path)
    codes, operands = trace_to_arrays(trace)
    header = json.dumps({"version": FORMAT_VERSION, **(metadata or {})}).encode()
    with open(path, "wb") as out:
        out.write(_PREFIX.pack(MAGIC, len(header), len(codes)))
        out.write(header)
        for column in (codes, operands):
            if _SWAP:
                column = array("q", column)
                column.byteswap()
            column.tofile(out)
    return path


def load_trace(path: Union[str, Path]) -> Tuple[List[Tuple], Dict]:
    """Read back (trace, metadata) written by :func:`save_trace`."""
    packed, header = load_trace_packed(path)
    return packed.to_trace(), header


def load_trace_packed(path: Union[str, Path]) -> Tuple[PackedTrace, Dict]:
    """Read back (packed trace, metadata) without rebuilding op tuples.

    The warm path of the trace cache: the stored columns become the
    replay stream directly.

    Raises:
        ValueError: on a wrong magic, another format version, or a body
            that is not 16 bytes per op.
    """
    data = Path(path).read_bytes()
    if len(data) < _PREFIX.size:
        raise ValueError(f"truncated trace file ({len(data)} bytes)")
    magic, header_len, count = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise ValueError(f"not a trace file (magic {magic!r})")
    start = _PREFIX.size + header_len
    header = json.loads(data[_PREFIX.size:start])
    version = header.get("version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version}")
    body = memoryview(data)[start:]
    if len(body) != _OP_BYTES * count:
        raise ValueError(
            f"trace body holds {len(body)} bytes, not {_OP_BYTES} x {count} ops"
        )
    middle = len(body) // 2
    codes, operands = array("q"), array("q")
    codes.frombytes(body[:middle])
    operands.frombytes(body[middle:])
    if _SWAP:
        codes.byteswap()
        operands.byteswap()
    return PackedTrace(codes, operands), header
