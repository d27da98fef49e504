"""Write-ahead logging schemes (§IV).

Three interchangeable WAL backends drive the database engines:

* :class:`BlockWAL` — the conventional scheme: records accumulate in a
  host-memory log buffer and reach the device as page-aligned block
  writes followed by fsync.  Supports *synchronous* (group) commit and
  *asynchronous* commit (Fig. 5, left/middle).
* :class:`BaWAL` — the paper's BA-WAL: records are appended straight into
  the 2B-SSD's BA-buffer via MMIO, committed with ``BA_SYNC``, and drained
  to NAND a segment at a time with ``BA_FLUSH`` under double buffering
  (Fig. 5, right).
* :class:`PmWAL` — the heterogeneous-memory alternative (Fig. 10):
  records persist into DIMM-bus PM and a background flusher de-stages
  them to a block log device through the I/O stack.
"""

from repro.wal.ba_wal import BaWAL
from repro.wal.base import (
    CommitMode, LogFullError, PartialAppendError, WalStats, WriteAheadLog)
from repro.wal.block_wal import BlockWAL
from repro.wal.pm_wal import PmWAL
from repro.wal.record import (
    RECORD_HEADER_BYTES,
    RecordFormatError,
    decode_record,
    encode_record,
    scan_records,
)

__all__ = [
    "BaWAL",
    "BlockWAL",
    "CommitMode",
    "LogFullError",
    "PartialAppendError",
    "PmWAL",
    "RECORD_HEADER_BYTES",
    "RecordFormatError",
    "WalStats",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
    "scan_records",
]
