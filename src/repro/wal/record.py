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
from contextlib import contextmanager
from pickle import PickleBuffer
from typing import Optional

_HEADER = struct.Struct("<HIQI")
RECORD_HEADER_BYTES = _HEADER.size
_MAGIC = 0xB10C


class RecordFormatError(Exception):
    """Raised when bytes do not parse as a valid log record."""


@contextmanager
def lent(buffer):
    """A read-only view of ``buffer`` whose slices are lent to a replay's
    ``apply``: each is valid only inside the ``with``.  A slice still alive
    when it ends makes the exit raise ``BufferError`` — a consumer that
    kept a payload view fails loudly, where a view of device memory would
    silently show whatever is written there next.

    The view exports ``owner`` (a ``PickleBuffer`` holds a buffer of it)
    and every slice keeps that export alive, so ``owner.release()`` is the
    check.  On an exception the views are left to the collector.
    """
    owner = memoryview(buffer).toreadonly()
    view = memoryview(PickleBuffer(owner))
    yield view
    view.release()
    owner.release()


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


def record_size(buffer) -> Optional[int]:
    """Header plus payload bytes of the record whose header opens
    ``buffer``, or ``None`` when that header is truncated or its magic is
    wrong.  Nothing is CRC-checked."""
    if RECORD_HEADER_BYTES > len(buffer):
        return None
    magic, length, _lsn, _crc = _HEADER.unpack_from(buffer)
    return RECORD_HEADER_BYTES + length if magic == _MAGIC else None


def check_record(view, offset: int = 0) -> tuple[int, int]:
    """Check one record at ``offset`` where it lies in ``view`` (a
    ``memoryview``: nothing is copied); returns ``(lsn, next_offset)``, the
    payload being ``view[offset + RECORD_HEADER_BYTES:next_offset]``.

    Raises :class:`RecordFormatError` on bad magic, truncation, or CRC
    mismatch (a torn write).
    """
    if offset + RECORD_HEADER_BYTES > len(view):
        raise RecordFormatError("truncated header")
    magic, length, lsn, crc = _HEADER.unpack_from(view, offset)
    if magic != _MAGIC:
        raise RecordFormatError(f"bad magic {magic:#x} at offset {offset}")
    start = offset + RECORD_HEADER_BYTES
    end = start + length
    if end > len(view):
        raise RecordFormatError("truncated payload")
    if crc != zlib.crc32(view[start:end], zlib.crc32(lsn.to_bytes(8, "little"))):
        raise RecordFormatError(f"crc mismatch at offset {offset} (torn write)")
    return lsn, end


def decode_record(buffer: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """:func:`check_record` with a copy of the payload:
    ``(lsn, payload, next_offset)``."""
    with memoryview(buffer) as view:
        lsn, end = check_record(view, offset)
        return lsn, view[offset + RECORD_HEADER_BYTES:end].tobytes(), end


def scan_records(buffer: bytes, start_lsn: int = 0) -> list[tuple[int, bytes]]:
    """Scan a log image for the contiguous run of valid records.

    ``buffer[i]`` is assumed to hold stream offset ``start_lsn + i``.
    Scanning stops at the first gap: bad magic, CRC failure, LSN
    discontinuity, or truncation — everything after a torn record is
    unreachable, exactly as in ARIES-style recovery.
    """
    records: list[tuple[int, bytes]] = []
    with lent(buffer) as view:
        scan_run(lambda lsn, payload: records.append((lsn, payload.tobytes())),
                 view, 0, start_lsn)
    return records


def scan_run(apply, view, offset: int, expected: int,
             limit: int = -1) -> tuple[int, int, bool]:
    """The one record loop of every replay: ``apply(lsn, payload)`` for
    the contiguous run of valid records in ``view`` (a :func:`lent` view)
    from ``offset``, the first at LSN ``expected``, at most ``limit`` of
    them (all when negative).  Every record is checked where it lies and
    ``payload`` is a view of it: nothing is copied.

    Returns ``(offset, expected, foreign)`` where the run stopped:
    ``foreign`` when a whole valid record sits there but is not the next
    one (an older generation); otherwise nothing parses there (torn,
    truncated or never written).
    """
    while limit:
        try:
            lsn, end = check_record(view, offset)
        except RecordFormatError:
            return offset, expected, False
        if lsn != expected:
            return offset, expected, True
        apply(lsn, view[offset + RECORD_HEADER_BYTES:end])
        expected += end - offset
        offset = end
        limit -= 1
    return offset, expected, False
