"""Keyed PRF and counter-mode pad generation.

Counter-mode encryption (Figure 1-b of the paper) never feeds plaintext
through the block cipher; it encrypts an initialization vector (IV) and
XORs the resulting *pad* with the data.  The IV (Figure 2) combines the
block address (page id + page offset) with a per-block counter, making
pads spatially and temporally unique.

We stand in for AES with keyed BLAKE2b — a cryptographically strong
PRF available in the stdlib — so tests can make real confidentiality
assertions (same plaintext, different counter => unrelated ciphertext).

:func:`keyed_prf` and :func:`ctr_pad` are memoised like
:func:`repro.crypto.mac.mac_over_fields`: key derivation runs on every
key read, and a crash walk replays the same pads at every site.
"""

from __future__ import annotations

import functools
import hashlib
import struct

from repro.crypto.mac import MEMO_ENTRIES

_PAD_CHUNK = 64  # BLAKE2b max digest size


@functools.lru_cache(maxsize=MEMO_ENTRIES, typed=True)
def keyed_prf(key: bytes, message: bytes, length: int = 16) -> bytes:
    """A keyed PRF: deterministic, key-separated pseudo-random bytes.

    Args:
        key: 1..64-byte key.
        message: arbitrary input.
        length: output length in bytes (may exceed one digest).
    """
    if not key:
        raise ValueError("PRF key must be non-empty")
    out = bytearray()
    block_index = 0
    while len(out) < length:
        h = hashlib.blake2b(
            message + struct.pack("<I", block_index),
            key=key[:64],
            digest_size=_PAD_CHUNK,
        )
        out.extend(h.digest())
        block_index += 1
    return bytes(out[:length])


def make_iv(address: int, counter: int) -> bytes:
    """Pack the Figure 2 IV: page id, page offset, counter, padding."""
    page_id = address >> 12
    page_offset = (address >> 6) & 0x3F  # cacheline index within page
    return struct.pack("<QHQ6x", page_id & (2**64 - 1), page_offset, counter & (2**64 - 1))


@functools.lru_cache(maxsize=MEMO_ENTRIES, typed=True)
def ctr_pad(key: bytes, address: int, counter: int, length: int = 64) -> bytes:
    """Generate a counter-mode encryption pad for one memory block.

    The pad is a PRF of (key, address, counter); encryption and
    decryption are both ``data XOR pad``.  It calls the unmemoised PRF,
    so each pad is cached once, here.
    """
    return keyed_prf.__wrapped__(key, make_iv(address, counter), length)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (the CTR-mode data path)."""
    if len(a) != len(b):
        raise ValueError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )
