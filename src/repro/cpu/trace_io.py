"""Trace serialisation: save/load op streams as compact numpy arrays.

Generating a WHISPER trace is pure-Python work that dominates short
experiment runs; serialising the op stream lets sweeps regenerate it
once and replay it from disk.  The format is a single ``.npz`` with two
int64 columns (opcode, operand) plus a tiny JSON header for provenance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cpu.resolve import ResolvedTrace, resolve, resolve_key
from repro.cpu.trace import OP_FENCE

FORMAT_VERSION = 1


def trace_to_arrays(trace) -> "Tuple[np.ndarray, np.ndarray]":
    """Split an op list into (opcode, operand) columns.

    Fences carry no operand; they are stored as operand 0.  A
    :class:`PackedTrace` passes its columns through unchanged.
    """
    if isinstance(trace, PackedTrace):
        return trace.codes, trace.operands
    codes = np.empty(len(trace), dtype=np.int64)
    operands = np.zeros(len(trace), dtype=np.int64)
    for i, op in enumerate(trace):
        codes[i] = op[0]
        if len(op) > 1:
            operands[i] = op[1]
    return codes, operands


class PackedTrace:
    """A column-packed op stream the core can replay directly.

    Holds the two int64 columns of :func:`trace_to_arrays`; no per-op
    tuple list is ever materialised on the replay path (loading a
    cached trace used to rebuild the whole list through a Python loop
    with a per-op length check).  :meth:`resolved` memoizes the
    stream's cache-resolved form per cache geometry and IPC, so every
    design replaying one cached trace pays for the hierarchy once.
    :meth:`pairs` and ``__iter__`` provide the op stream itself for
    code that still wants it.
    """

    __slots__ = ("codes", "operands", "_columns", "_resolved")

    def __init__(self, codes: "np.ndarray", operands: "np.ndarray") -> None:
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
        only the numpy columns and the (much shorter) resolved stream
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


def arrays_to_trace(codes: "np.ndarray", operands: "np.ndarray") -> List[Tuple]:
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
    compress: bool = True,
) -> Path:
    """Write a trace (and provenance metadata) to ``path`` (.npz).

    ``compress=False`` trades disk space for save/load speed — the
    persistent trace cache uses it because cache hits sit on the warm
    path of every experiment run.
    """
    path = Path(path)
    codes, operands = trace_to_arrays(trace)
    header = {"version": FORMAT_VERSION, **(metadata or {})}
    savez = np.savez_compressed if compress else np.savez
    savez(
        path,
        codes=codes,
        operands=operands,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
    )
    # numpy appends .npz when absent.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_trace(path: Union[str, Path]) -> Tuple[List[Tuple], Dict]:
    """Read back (trace, metadata) written by :func:`save_trace`."""
    packed, header = load_trace_packed(path)
    return packed.to_trace(), header


def load_trace_packed(path: Union[str, Path]) -> Tuple[PackedTrace, Dict]:
    """Read back (packed trace, metadata) without rebuilding op tuples.

    The warm path of the trace cache: the stored columns become the
    replay stream directly.
    """
    with np.load(Path(path)) as archive:
        header = json.loads(bytes(archive["header"]).decode())
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {header.get('version')}"
            )
        packed = PackedTrace(archive["codes"], archive["operands"])
    return packed, header
