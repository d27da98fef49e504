"""RocksDB-like LSM key-value store.

Structure mirrors RocksDB's basic constructs (§IV-B): a memory-resident
*memtable* (a dict beside a sorted key list, where RocksDB keeps a
skiplist), *SST files* flushed from full memtables, and a *log file*
(WAL) per memtable generation.  At most two memtables exist —
one active, one full and flushing — which is exactly the double-buffer
shape BA-WAL exploits.
"""

from repro.db.lsm.memtable import MemTable
from repro.db.lsm.sst import SSTable
from repro.db.lsm.storage import DeviceTableStorage, MemoryTableStorage
from repro.db.lsm.tree import LSMTree

__all__ = ["DeviceTableStorage", "LSMTree", "MemTable", "MemoryTableStorage", "SSTable"]
