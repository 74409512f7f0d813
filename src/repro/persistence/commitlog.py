"""Cacheline-sized commit records for the crash-consistency oracle.

The oracle drives every controller with a log-structured key/value
store: each transaction writes its value lines to fresh addresses,
fences (waits until those lines persisted), then appends one 64-byte
commit record.  Because the record is written *after* its value lines
are in the persistence domain, the recovered commit log is always a
gap-free prefix of the submitted transaction stream — the invariant
the differential checker verifies against the golden model.

A record self-describes the operation (PUT/DEL), the key, where the
value lines live, and an 8-byte checksum of the value bytes, so the
recovered heap can be decoded and diffed without any volatile state.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.config import CACHELINE_BYTES

#: Commit log lives here, one 64 B record per transaction sequence number.
LOG_BASE = 0x2_0000_0000
#: Value lines are bump-allocated from here (log-structured: a PUT never
#: overwrites an earlier value in place).
VALUE_BASE = 0x3_0000_0000

OP_PUT = 1
OP_DEL = 2

#: "DOLC" — commit-record magic; a decoded line that does not start with
#: it is not a commit record (end of log, or tampering).
MAGIC = 0x434C4F44

_HEADER = struct.Struct("<IIIQQI8s")


class CommitDecodeError(ValueError):
    """The 64-byte line is not a well-formed commit record."""


def record_address(seq: int) -> int:
    """NVM address of commit record ``seq``."""
    return LOG_BASE + seq * CACHELINE_BYTES


def value_lines(length: int) -> int:
    """Cachelines needed for a ``length``-byte value."""
    return (length + CACHELINE_BYTES - 1) // CACHELINE_BYTES


def value_checksum(value: bytes) -> bytes:
    """8-byte checksum binding a record to its exact value bytes."""
    return hashlib.blake2b(value, digest_size=8).digest()


@dataclass(frozen=True)
class CommitRecord:
    """One committed transaction, as persisted in the log."""

    seq: int
    op: int
    key: int
    value_address: int
    value_length: int
    checksum: bytes

    def encode(self) -> bytes:
        """Pack into one 64-byte NVM line (zero-padded)."""
        packed = _HEADER.pack(
            MAGIC,
            self.seq,
            self.op,
            self.key,
            self.value_address,
            self.value_length,
            self.checksum,
        )
        return packed.ljust(CACHELINE_BYTES, b"\x00")

    @classmethod
    def decode(cls, line: bytes) -> "CommitRecord":
        """Inverse of :meth:`encode`.

        Raises:
            CommitDecodeError: wrong size, wrong magic, or bad op code.
        """
        if len(line) != CACHELINE_BYTES:
            raise CommitDecodeError(f"commit record must be {CACHELINE_BYTES} B")
        magic, seq, op, key, value_address, value_length, checksum = (
            _HEADER.unpack_from(line)
        )
        if magic != MAGIC:
            raise CommitDecodeError(f"bad commit-record magic {magic:#x}")
        if op not in (OP_PUT, OP_DEL):
            raise CommitDecodeError(f"unknown commit op {op}")
        return cls(seq, op, key, value_address, value_length, checksum)
