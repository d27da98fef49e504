"""Compact binary serialization for XLOG records and checkpoints.

A msgpack-style TLV codec for the value shapes the engine uses: None,
bool, int, str, bytes, tuple/list, dict.  Binary (not JSON) so that log
record sizes track payload sizes honestly — the payload-size sweep of
Fig. 9 depends on the bytes hitting the log device being what the
workload wrote, not an inflated text encoding.

Tuples round-trip as tuples (they are used as composite B-tree keys and
must stay hashable/orderable).
"""

from __future__ import annotations

import struct
from typing import Any

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_STR = 4
_TAG_BYTES = 5
_TAG_TUPLE = 6
_TAG_LIST = 7
_TAG_DICT = 8

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")


class CodecError(Exception):
    """Raised when bytes do not parse back into an object."""


def pack_obj(obj: Any) -> bytes:
    """Serialize ``obj`` into a compact, self-describing byte string."""
    parts: list[bytes] = []
    _pack_into(obj, parts)
    return b"".join(parts)


def _pack_into(obj: Any, parts: list[bytes]) -> None:
    if obj is None:
        parts.append(bytes([_TAG_NONE]))
    elif obj is False:
        parts.append(bytes([_TAG_FALSE]))
    elif obj is True:
        parts.append(bytes([_TAG_TRUE]))
    elif isinstance(obj, int):
        parts.append(bytes([_TAG_INT]))
        parts.append(_I64.pack(obj))
    elif isinstance(obj, str):
        data = obj.encode()
        parts.append(bytes([_TAG_STR]))
        parts.append(_U32.pack(len(data)))
        parts.append(data)
    elif isinstance(obj, (bytes, bytearray)):
        parts.append(bytes([_TAG_BYTES]))
        parts.append(_U32.pack(len(obj)))
        parts.append(bytes(obj))
    elif isinstance(obj, tuple):
        parts.append(bytes([_TAG_TUPLE]))
        parts.append(_U32.pack(len(obj)))
        for item in obj:
            _pack_into(item, parts)
    elif isinstance(obj, list):
        parts.append(bytes([_TAG_LIST]))
        parts.append(_U32.pack(len(obj)))
        for item in obj:
            _pack_into(item, parts)
    elif isinstance(obj, dict):
        parts.append(bytes([_TAG_DICT]))
        parts.append(_U32.pack(len(obj)))
        for key, value in obj.items():
            _pack_into(key, parts)
            _pack_into(value, parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def unpack_obj(data: bytes) -> Any:
    """Inverse of :func:`pack_obj`."""
    obj, offset = _unpack_from(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after object")
    return obj


def _unpack_from(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise CodecError("truncated object")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT:
        if offset + 8 > len(data):
            raise CodecError("truncated int")
        return _I64.unpack_from(data, offset)[0], offset + 8
    if tag in (_TAG_STR, _TAG_BYTES):
        if offset + 4 > len(data):
            raise CodecError("truncated length")
        length = _U32.unpack_from(data, offset)[0]
        offset += 4
        if offset + length > len(data):
            raise CodecError("truncated body")
        body = data[offset:offset + length]
        offset += length
        return (str(body, "utf-8") if tag == _TAG_STR else bytes(body)), offset
    if tag in (_TAG_TUPLE, _TAG_LIST):
        if offset + 4 > len(data):
            raise CodecError("truncated length")
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _unpack_from(data, offset)
            items.append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), offset
    if tag == _TAG_DICT:
        if offset + 4 > len(data):
            raise CodecError("truncated length")
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        result = {}
        for _ in range(count):
            key, offset = _unpack_from(data, offset)
            value, offset = _unpack_from(data, offset)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown tag {tag}")
