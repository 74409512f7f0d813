"""The crypto fast path is byte-identical to the straightforward code.

The reference functions below are the plain implementations the fast
path replaced: an ``isinstance`` field encoder that packs each field
with ``struct.pack`` and a per-byte XOR.  Every MAC, pad and ciphertext
the model stores depends on these bytes.

The memoised primitives (``mac_over_fields``, ``keyed_prf``,
``ctr_pad``) must be transparent: a cached call returns what the
unmemoised function (``__wrapped__``) returns, errors are never cached,
and each memo is bounded by ``MEMO_ENTRIES``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mac import MEMO_ENTRIES, compute_mac, mac_over_fields
from repro.crypto.prf import ctr_pad, keyed_prf, xor_bytes


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------
def ref_encode_field(field) -> bytes:
    if isinstance(field, bytes):
        body, tag = field, b"b"
    elif isinstance(field, int):
        body, tag = struct.pack("<q", field) if -(2**63) <= field < 2**63 else str(
            field
        ).encode(), b"i"
    elif isinstance(field, str):
        body, tag = field.encode(), b"s"
    else:
        raise TypeError(f"unsupported MAC field type {type(field)!r}")
    return tag + struct.pack("<I", len(body)) + body


def ref_mac_over_fields(key: bytes, *fields, length: int = 8) -> bytes:
    message = b"".join(ref_encode_field(f) for f in fields)
    return compute_mac(key, message, length)


def ref_xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
keys = st.binary(min_size=1, max_size=96)
int_fields = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from(
        [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63, -1, 0, 1, 3**50, -(3**50)]
    ),
    st.integers(),
    st.booleans(),
)
fields = st.one_of(int_fields, st.binary(max_size=80), st.text(max_size=20))


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=400)
@given(key=keys, values=st.lists(fields, max_size=6), length=st.integers(1, 64))
def test_mac_over_fields_matches_reference(key, values, length):
    assert mac_over_fields(key, *values, length=length) == ref_mac_over_fields(
        key, *values, length=length
    )


def test_field_edge_cases_match_reference():
    key = b"edge-key"
    for value in (
        -(2**63) - 1, -(2**63), 2**63 - 1, 2**63, -5, True, False,
        "", "wpq-entry", b"", b"\x00" * 64,
    ):
        assert mac_over_fields(key, value) == ref_mac_over_fields(key, value)
    # A bool keeps the int encoding of its value, tag and all.
    assert mac_over_fields(key, True) == ref_mac_over_fields(key, 1)


@settings(max_examples=300)
@given(data=st.binary(max_size=160).flatmap(
    lambda a: st.tuples(st.just(a), st.binary(min_size=len(a), max_size=len(a)))
))
def test_xor_bytes_matches_reference(data):
    a, b = data
    assert xor_bytes(a, b) == ref_xor_bytes(a, b)


def test_xor_bytes_length_mismatch_rejected():
    with pytest.raises(ValueError):
        xor_bytes(b"ab", b"a")


def test_unsupported_field_rejected():
    with pytest.raises(TypeError):
        mac_over_fields(b"key", 1.5)
    with pytest.raises(ValueError):
        mac_over_fields(b"", 1, b"x")


# ----------------------------------------------------------------------
# The memo is transparent and bounded
# ----------------------------------------------------------------------
memo_keys = st.binary(min_size=1, max_size=64)
memo_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([-(2**63) - 1, 2**63, 3**50, -(3**50), -1, 0]),
)
memo_fields = st.one_of(memo_ints, st.binary(max_size=80), st.text(max_size=20))


@settings(max_examples=200)
@given(
    key=memo_keys,
    values=st.lists(memo_fields, max_size=6),
    length=st.integers(1, 64),
)
def test_memoised_mac_equals_unmemoised(key, values, length):
    expect = mac_over_fields.__wrapped__(key, *values, length=length)
    assert mac_over_fields(key, *values, length=length) == expect
    assert mac_over_fields(key, *values, length=length) == expect


@settings(max_examples=200)
@given(key=memo_keys, message=st.binary(max_size=80), length=st.integers(1, 200))
def test_memoised_prf_equals_unmemoised(key, message, length):
    expect = keyed_prf.__wrapped__(key, message, length)
    assert keyed_prf(key, message, length) == expect
    assert keyed_prf(key, message, length) == expect


@settings(max_examples=200)
@given(key=memo_keys, address=memo_ints, counter=memo_ints, length=st.integers(1, 200))
def test_memoised_pad_equals_unmemoised(key, address, counter, length):
    expect = ctr_pad.__wrapped__(key, address, counter, length)
    assert ctr_pad(key, address, counter, length) == expect
    assert ctr_pad(key, address, counter, length) == expect


def test_memo_keeps_types_apart():
    """``1``, ``True`` and ``1.0`` hash alike but never share an entry."""
    one = mac_over_fields(b"k", 1)
    assert mac_over_fields(b"k", 1) == one
    with pytest.raises(TypeError):
        mac_over_fields(b"k", 1.0)
    assert mac_over_fields(b"k", True) == mac_over_fields.__wrapped__(b"k", True)


def test_memo_caches_no_error():
    for _ in range(2):
        with pytest.raises(ValueError):
            mac_over_fields(b"", 1, b"x")
        with pytest.raises(ValueError):
            keyed_prf(b"", b"message", 16)
        with pytest.raises(ValueError):
            ctr_pad(b"", 0x40, 1, 64)


def test_memo_is_bounded_by_the_module_constant():
    for function in (mac_over_fields, keyed_prf, ctr_pad):
        assert function.cache_info().maxsize == MEMO_ENTRIES
