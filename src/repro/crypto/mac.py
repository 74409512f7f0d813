"""Message-authentication codes.

Every integrity artifact in the reproduction — Bonsai-MT data MACs,
Merkle-tree node hashes, ToC node MACs, Mi-SU WPQ-entry MACs — is an
8-byte keyed MAC (the paper's Table 3 uses 8-byte MACs per 72-byte WPQ
entry).  We use keyed BLAKE2b truncated to 8 bytes.

:func:`mac_over_fields` is memoised, as are the PRF and pad functions
of :mod:`repro.crypto.prf`: a crash walk replays the same writes and
rebuilds the same tree at every site, so most of its MACs re-hash an
input already hashed.  Each memo is a bounded LRU of
:data:`MEMO_ENTRIES` results, and caching is safe only because every
primitive is a pure function of its (hashable) arguments.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Iterable, Union

from repro.config import MAC_BYTES

Field = Union[bytes, int, str]

_pack_q = struct.Struct("<q").pack
_pack_len = struct.Struct("<I").pack
#: Tag + length prefix of every int that fits a signed 64-bit word.
_INT64_HEADER = b"i" + _pack_len(8)

#: Results each memoised crypto primitive keeps (LRU).  One
#: fleet-campaign round of fault units hashes 3,376 distinct MAC inputs.
MEMO_ENTRIES = 16384


def compute_mac(key: bytes, message: bytes, length: int = MAC_BYTES) -> bytes:
    """Keyed MAC of ``message``, truncated to ``length`` bytes."""
    if not key:
        raise ValueError("MAC key must be non-empty")
    return hashlib.blake2b(message, key=key[:64], digest_size=length).digest()


def _encode_field(field: Field) -> bytes:
    """Length-prefixed, type-tagged encoding so fields cannot collide."""
    if isinstance(field, bytes):
        return b"b" + _pack_len(len(field)) + field
    if isinstance(field, int):
        if -(2**63) <= field < 2**63:
            return _INT64_HEADER + _pack_q(field)
        body = str(field).encode()
        return b"i" + _pack_len(len(body)) + body
    if isinstance(field, str):
        body = field.encode()
        return b"s" + _pack_len(len(body)) + body
    raise TypeError(f"unsupported MAC field type {type(field)!r}")


@functools.lru_cache(maxsize=MEMO_ENTRIES, typed=True)
def mac_over_fields(key: bytes, *fields: Field, length: int = MAC_BYTES) -> bytes:
    """MAC over a tuple of heterogeneous fields (address, counter, data...).

    Fields are unambiguously encoded, so ``(b"ab", b"c")`` and
    ``(b"a", b"bc")`` produce different MACs.  The memo is typed, so
    ``1``, ``True`` and ``1.0`` never share an entry (a float still
    raises ``TypeError``); a ``bytearray`` argument raises ``TypeError``
    as unhashable.
    """
    return compute_mac(key, b"".join(map(_encode_field, fields)), length)


def macs_equal(a: bytes, b: bytes) -> bool:
    """Constant-time-ish comparison (semantics, not side channels)."""
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0
