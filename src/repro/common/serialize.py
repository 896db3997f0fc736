"""Canonical, deterministic serialization for hashing and signing.

The blockchain signs and hashes structured values (transactions, results,
certificates). ``canonical_encode`` produces a byte string that is stable
across processes and Python versions for the JSON-like subset of values the
library uses: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
and (nested) lists, tuples, and string-keyed dicts.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence
from typing import Any

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into a canonical byte string.

    Raises :class:`TypeError` for unsupported types and for dicts with
    non-string keys. Dict entries are sorted by key, so two dicts with the
    same content encode identically regardless of insertion order.
    """
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def canonical_encode_spliced(items: Sequence[Any], index: int, encoded: bytes) -> bytes:
    """``canonical_encode(list(items))`` with the item at ``index`` given by
    its canonical encoding ``encoded`` (what ``items`` holds there is not
    read). A list encodes as a header and then its items' encodings in
    order, so an item encoded once already is copied in, not encoded again.
    """
    out = bytearray(_TAG_LIST)
    out += len(items).to_bytes(4, "big")
    for position, item in enumerate(items):
        if position == index:
            out += encoded
        else:
            _encode_into(out, item)
    return bytes(out)


def _encode_into(out: bytearray, value: Any) -> None:
    # Exact-type dispatch first: the overwhelmingly common cases in
    # signing payloads and object data are plain str/int/float/dict/list.
    # Subclasses (bool deliberately, but also e.g. IntEnum) fall through
    # to the isinstance-based slow path, which encodes them byte-for-byte
    # the same as before.
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += len(raw).to_bytes(4, "big")
        out += raw
    elif kind is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out += _TAG_INT
        out += len(raw).to_bytes(4, "big")
        out += raw
    elif kind is float:
        out += _TAG_FLOAT
        out += struct.pack(">d", value)
    elif kind is dict:
        keys = sorted(value.keys())
        out += _TAG_DICT
        out += len(keys).to_bytes(4, "big")
        for key in keys:
            if type(key) is not str and not isinstance(key, str):
                raise TypeError("canonical_encode requires string dict keys")
            raw = key.encode("utf-8")
            out += _TAG_STR
            out += len(raw).to_bytes(4, "big")
            out += raw
            _encode_into(out, value[key])
    elif kind is list or kind is tuple:
        out += _TAG_LIST
        out += len(value).to_bytes(4, "big")
        for item in value:
            _encode_into(out, item)
    elif kind is bytes:
        out += _TAG_BYTES
        out += len(value).to_bytes(4, "big")
        out += value
    else:
        _encode_slow(out, value)


def _encode_slow(out: bytearray, value: Any) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out += _TAG_INT
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES
        out += struct.pack(">I", len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        out += struct.pack(">I", len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        keys = list(value.keys())
        if not all(isinstance(key, str) for key in keys):
            raise TypeError("canonical_encode requires string dict keys")
        out += _TAG_DICT
        out += struct.pack(">I", len(keys))
        for key in sorted(keys):
            _encode_into(out, key)
            _encode_into(out, value[key])
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


def stable_hash(value: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of ``value``."""
    return hashlib.sha256(canonical_encode(value)).digest()
