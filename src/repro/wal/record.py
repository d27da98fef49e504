"""Log-record wire format shared by every WAL backend.

A record is ``[magic u16][length u32][lsn u64][crc u32] payload`` where the
LSN is the record's starting byte offset in the log stream and the CRC
covers the LSN and the payload.  The CRC is what lets recovery distinguish
a torn or never-written tail from valid records — the crash-consistency
property all durability tests lean on.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

_HEADER = struct.Struct("<HIQI")
RECORD_HEADER_BYTES = _HEADER.size
_MAGIC = 0xB10C


class RecordFormatError(Exception):
    """Raised when bytes do not parse as a valid log record."""


def encode_record(lsn: int, payload: bytes) -> bytes:
    """Serialize one record starting at stream offset ``lsn``."""
    if lsn < 0:
        raise ValueError(f"lsn must be non-negative, got {lsn}")
    crc = zlib.crc32(payload, zlib.crc32(lsn.to_bytes(8, "little")))
    return _HEADER.pack(_MAGIC, len(payload), lsn, crc) + payload


def peek_header(buffer: bytes, offset: int = 0) -> Optional[int]:
    """The LSN the record header at ``offset`` claims, or ``None`` when the
    header is truncated or its magic is wrong.  Nothing is CRC-checked: a
    probe for "could a record of this LSN start here", never a decode."""
    if offset + RECORD_HEADER_BYTES > len(buffer):
        return None
    magic, _length, lsn, _crc = _HEADER.unpack_from(buffer, offset)
    return lsn if magic == _MAGIC else None


def decode_record(buffer: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """Parse one record at ``offset``; returns ``(lsn, payload, next_offset)``.

    Raises :class:`RecordFormatError` on bad magic, truncation, or CRC
    mismatch (a torn write).
    """
    if offset + RECORD_HEADER_BYTES > len(buffer):
        raise RecordFormatError("truncated header")
    magic, length, lsn, crc = _HEADER.unpack_from(buffer, offset)
    if magic != _MAGIC:
        raise RecordFormatError(f"bad magic {magic:#x} at offset {offset}")
    start = offset + RECORD_HEADER_BYTES
    if start + length > len(buffer):
        raise RecordFormatError("truncated payload")
    payload = bytes(buffer[start:start + length])
    expected = zlib.crc32(payload, zlib.crc32(lsn.to_bytes(8, "little")))
    if crc != expected:
        raise RecordFormatError(f"crc mismatch at offset {offset} (torn write)")
    return lsn, payload, start + length


def scan_records(buffer: bytes, start_lsn: int = 0) -> list[tuple[int, bytes]]:
    """Scan a log image for the contiguous run of valid records.

    ``buffer[i]`` is assumed to hold stream offset ``start_lsn + i``.
    Scanning stops at the first gap: bad magic, CRC failure, LSN
    discontinuity, or truncation — everything after a torn record is
    unreachable, exactly as in ARIES-style recovery.
    """
    records: list[tuple[int, bytes]] = []
    scan_run(records, buffer, start_lsn, 0)
    return records


def scan_run(records: list, buffer, start_lsn: int, keep_from: int) -> int:
    """:func:`scan_records` appending to ``records`` only the records at or
    above ``keep_from``; returns the stream offset where the run ends
    (``start_lsn`` when no record is valid).

    Every record is checked where it lies in ``buffer`` (any bytes-like
    object, a ``memoryview`` of device memory included); only the payloads
    kept are copied, each once.
    """
    offset = 0
    expected_lsn = start_lsn
    with memoryview(buffer) as view:
        size = len(view)
        while offset + RECORD_HEADER_BYTES <= size:
            magic, length, lsn, crc = _HEADER.unpack_from(view, offset)
            start = offset + RECORD_HEADER_BYTES
            end = start + length
            if magic != _MAGIC or end > size or lsn != expected_lsn:
                break
            if crc != zlib.crc32(view[start:end],
                                 zlib.crc32(lsn.to_bytes(8, "little"))):
                break  # torn
            if lsn >= keep_from:
                records.append((lsn, view[start:end].tobytes()))
            offset = end
            expected_lsn = start_lsn + end
    return expected_lsn
