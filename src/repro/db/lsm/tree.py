"""The LSM tree: write path, read path, flush, compaction, recovery.

Write path (RocksDB-shaped): the record is appended to the WAL and
committed, then inserted into the active memtable.  A full memtable is
frozen (at most one frozen memtable exists — a writer needing to freeze
while a flush is still running stalls, RocksDB's write-stall behaviour)
and flushed to an L0 SSTable in the background; L0 buildup triggers a
compaction into L1.  The WAL truncation point advances only after the
flushed data is durable in storage, so crash recovery = manifest + SSTs +
WAL replay from the truncation point.

The truncation invariant: every acknowledged write is in a flushed
SSTable or has its WAL record at or above ``_wal_start``.  A writer whose
record is in the log but not yet in a memtable (it is still committing)
holds the truncation point at or below its record's start, so a rotation
never freezes the log past a record the frozen memtable does not hold.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from operator import attrgetter
from typing import Iterator, Optional

from repro.analysis import sanitizer as simsan
from repro.db.common import EngineStats
from repro.db.lsm.bloom import BloomFilter
from repro.db.lsm.skiplist import SkipList
from repro.db.lsm.sst import SSTable, merge_tables
from repro.sim import Engine, Resource, RngStreams
from repro.sim.engine import Event
from repro.sim.units import USEC
from repro.wal.base import WriteAheadLog
from repro.wal.record import RECORD_HEADER_BYTES

_KV_HEADER = struct.Struct("<BH")
_MISS = object()  # memtable.get default: a stored None is a tombstone
_min_key = attrgetter("min_key")


def encode_kv(key: str, value: Optional[bytes]) -> bytes:
    """WAL payload for one write: ``[tombstone u8][key_len u16][key][value]``."""
    key_bytes = key.encode()
    if value is None:
        return _KV_HEADER.pack(1, len(key_bytes)) + key_bytes
    return _KV_HEADER.pack(0, len(key_bytes)) + key_bytes + value


def decode_kv(payload: bytes) -> tuple[str, Optional[bytes]]:
    tombstone, key_len = _KV_HEADER.unpack_from(payload)
    key_end = _KV_HEADER.size + key_len
    key = payload[_KV_HEADER.size:key_end].decode()
    if tombstone:
        return key, None
    return key, bytes(payload[key_end:])


class LSMTree:
    """A persistent ordered key-value store."""

    WRITE_CPU = 9.5 * USEC
    READ_CPU = 9.5 * USEC

    def __init__(
        self,
        engine: Engine,
        wal: WriteAheadLog,
        storage,
        memtable_bytes: int = 1 << 20,
        l0_compaction_trigger: int = 4,
        rng: Optional[RngStreams] = None,
    ) -> None:
        self.engine = engine
        self.wal = wal
        self.storage = storage
        self.memtable_bytes = memtable_bytes
        self.l0_compaction_trigger = l0_compaction_trigger
        self._rng = (rng or RngStreams(0)).stream("lsm")
        self._active = SkipList(self._rng)
        self._immutable: Optional[SkipList] = None
        self._immutable_end_lsn = 0
        self._flush_done: Optional[Event] = None
        self._rotating = False
        self._l0: list[SSTable] = []  # oldest first
        self._l1: list[SSTable] = []  # sorted by min_key, non-overlapping
        self._wal_start = 0
        # Start LSNs of records appended to the WAL but not yet inserted
        # into a memtable (their writers are committing).
        self._unapplied: set[int] = set()
        self._compaction_lock = Resource(engine)
        self.stats = EngineStats()
        self.flush_count = 0
        self.compaction_count = 0
        self.write_stalls = 0
        self.filter_skips = 0
        self.compaction_bytes = 0
        self.compaction_seconds = 0.0

    # -- write path -------------------------------------------------------------

    def put(self, key: str, value: bytes) -> Iterator[Event]:
        """Process: durable insert/update."""
        yield from self._write(key, value)
        return None

    def delete(self, key: str) -> Iterator[Event]:
        """Process: durable delete (tombstone)."""
        yield from self._write(key, None)
        return None

    def _write(self, key: str, value: Optional[bytes]) -> Iterator[Event]:
        start = self.engine.now
        yield self.engine.timeout(self.WRITE_CPU)
        record = encode_kv(key, value)
        lsns = yield from self.wal.append_batch([record])
        record_lsn = lsns[0] - RECORD_HEADER_BYTES - len(record)
        self._unapplied.add(record_lsn)
        try:
            commit_start = self.engine.now
            yield from self.wal.commit(lsns[0])
            self.stats.commit_latency += self.engine.now - commit_start
            self._active.insert(key, value)
        finally:
            self._unapplied.discard(record_lsn)
        if self._active.approximate_bytes >= self.memtable_bytes and not self._rotating:
            # spawn: delegating moves lsm-dual sim_set_p99_us
            yield self.engine.process(self._rotate())
        self.stats.record("PUT" if value is not None else "DELETE",
                          self.engine.now - start, is_write=True)
        return None

    def _rotate(self) -> Iterator[Event]:
        self._rotating = True
        try:
            if self._immutable is not None:
                # Both memtables full: stall until the flush finishes.
                self.write_stalls += 1
                assert self._flush_done is not None
                yield self._flush_done
            if self._active.approximate_bytes < self.memtable_bytes:
                return None  # someone else rotated while we stalled
            self._immutable = self._active
            # Records still on their way into the new memtable stay in
            # the log: truncate below the oldest of them.
            self._immutable_end_lsn = min(self._unapplied,
                                          default=self.wal.tail_lsn)
            self._active = SkipList(self._rng)
            self._flush_done = self.engine.event()
            self.engine.process(self._flush_immutable(), name="lsm-flush")
        finally:
            self._rotating = False
        return None

    def _flush_immutable(self) -> Iterator[Event]:
        assert self._immutable is not None
        entries = list(self._immutable.items())
        table = SSTable(entries)
        yield from self.storage.write_table(table.file_id, table.encode())
        self._l0.append(table)
        self._wal_start = self._immutable_end_lsn
        yield from self.storage.write_manifest(self._manifest())
        # Only a durable manifest lets the log recycle below the new start.
        self.wal.low_water_lsn = self._wal_start
        self._immutable = None
        self.flush_count += 1
        done, self._flush_done = self._flush_done, None
        if done is not None:
            done.succeed()
        if len(self._l0) >= self.l0_compaction_trigger:
            yield from self._compact()
        return None

    def _compact(self) -> Iterator[Event]:
        """Leveled compaction: merge all of L0 with the *overlapping* part
        of L1, splitting the output into bounded, non-overlapping runs.

        Selecting every L1 run that overlaps the L0 key range makes
        tombstone dropping safe: any key an L0 tombstone shadows lives in
        a selected run, so nothing can resurrect.  Non-overlapping L1 runs
        outside the range are untouched (the point of leveling: compaction
        cost proportional to the overlap, not the level).
        """
        lock = self._compaction_lock.request()
        yield lock
        started = self.engine.now
        try:
            if len(self._l0) < self.l0_compaction_trigger:
                return None
            l0_inputs = list(self._l0)
            lo = min(table.min_key for table in l0_inputs)
            hi = max(table.max_key for table in l0_inputs)
            selected = [table for table in self._l1
                        if table.min_key <= hi and lo <= table.max_key]
            inputs = list(reversed(l0_inputs)) + selected  # newest first
            merged = merge_tables(inputs, drop_tombstones=True)
            outputs = self._split_run(merged) if merged is not None else []
            # One batched write for the whole output run: the storage
            # layer issues every table concurrently (die-parallel destage
            # through the NAND program batch) behind a single flush
            # barrier, instead of a write+fsync round-trip per table.
            blobs = [(table.file_id, table.encode()) for table in outputs]
            yield from self.storage.write_tables(blobs)
            self.compaction_bytes += sum(len(blob) for _fid, blob in blobs)
            survivors = [table for table in self._l1 if table not in selected]
            # A flush that finished during the write above appended to L0:
            # remove exactly the inputs, never the newcomers.
            self._l0 = [table for table in self._l0 if table not in l0_inputs]
            self._l1 = sorted(survivors + outputs, key=_min_key)
            yield from self.storage.write_manifest(self._manifest())
            for table in inputs:
                self.storage.delete_table(table.file_id)
            self.compaction_count += 1
        finally:
            self.compaction_seconds += self.engine.now - started
            self._compaction_lock.release(lock)
        return None

    def _split_run(self, merged: SSTable) -> list[SSTable]:
        """Split one merged run into L1 tables of bounded size."""
        target_bytes = max(2 * self.memtable_bytes, 1)
        outputs: list[SSTable] = []
        chunk: list = []
        chunk_bytes = 0
        for key, value in merged.items():
            chunk.append((key, value))
            chunk_bytes += len(key.encode()) + (len(value) if value else 0)
            if chunk_bytes >= target_bytes:
                outputs.append(SSTable.from_sorted(chunk))
                chunk, chunk_bytes = [], 0
        if chunk:
            outputs.append(SSTable.from_sorted(chunk))
        return outputs

    def _manifest(self) -> dict:
        if simsan.enabled:
            simsan.check_wal_truncation(self.engine, self._wal_start,
                                        self._unapplied)
        return {
            "wal_start": self._wal_start,
            "l0": [table.file_id for table in self._l0],
            "l1": [table.file_id for table in self._l1],
        }

    # -- read path -----------------------------------------------------------------

    def get(self, key: str) -> Iterator[Event]:
        """Process: point lookup; returns the value or None."""
        start = self.engine.now
        yield self.engine.timeout(self.READ_CPU)
        found, value = self._lookup(key)
        self.stats.record("GET", self.engine.now - start, is_write=False)
        return value if found else None

    def _lookup(self, key: str) -> tuple[bool, Optional[bytes]]:
        for memtable in (self._active, self._immutable):
            if memtable is None:
                continue
            value = memtable.get(key, _MISS)
            if value is not _MISS:
                return True, value
        # Hash the key once for every filter probe below (a point lookup
        # can touch all of L0 plus one L1 run; the blake2b digest is the
        # expensive half of a bloom probe).
        key_hash: Optional[tuple[int, int]] = None
        for table in reversed(self._l0):
            if key_hash is None:
                key_hash = BloomFilter.hash_key(key)
            if not table.filter.might_contain_hashed(*key_hash):
                self.filter_skips += 1
                continue
            found, value = table.get(key)
            if found:
                return True, value
        # L1 is sorted and non-overlapping: only the last run that starts
        # at or before the key can hold it.
        index = bisect_right(self._l1, key, key=_min_key)
        table = self._l1[index - 1] if index else None
        if table is None or key > table.max_key:
            return False, None
        if key_hash is None:
            key_hash = BloomFilter.hash_key(key)
        if not table.filter.might_contain_hashed(*key_hash):
            self.filter_skips += 1
            return False, None
        return table.get(key)

    def scan(self, start_key: str, limit: int) -> Iterator[Event]:
        """Process: ordered scan of up to ``limit`` live entries."""
        yield self.engine.timeout(self.READ_CPU + limit * 0.1 * USEC)
        # Over-fetch: tombstones inside the range shrink the live set.
        fetch = limit + 32
        sources: list[list[tuple[str, Optional[bytes]]]] = []
        for memtable in (self._active, self._immutable):
            if memtable is not None:
                sources.append(memtable.range_items(start_key, fetch))
        for table in reversed(self._l0):
            sources.append(table.range_items(start_key, fetch))
        for table in self._l1:
            sources.append(table.range_items(start_key, fetch))
        merged: dict[str, Optional[bytes]] = {}
        for source in reversed(sources):  # oldest first; newer overwrite
            for key, value in source:
                merged[key] = value
        live = [(k, v) for k, v in sorted(merged.items()) if v is not None]
        return live[:limit]

    # -- recovery ---------------------------------------------------------------------

    def recover(self) -> Iterator[Event]:
        """Process: rebuild from manifest + SSTs + WAL replay."""
        manifest = yield from self.storage.read_manifest()
        self._active = SkipList(self._rng)
        self._immutable = None
        self._l0 = []
        self._l1 = []
        self._wal_start = 0
        if manifest is not None:
            self._wal_start = manifest.get("wal_start", 0)
            l0_ids = list(manifest.get("l0", []))
            l1_ids = list(manifest.get("l1", []))
            # One batched fetch: every table read is in flight at once,
            # so recovery I/O overlaps across dies instead of paying one
            # device round-trip per table.
            blobs = yield from self.storage.read_tables(l0_ids + l1_ids)
            for file_id, blob in zip(l0_ids, blobs):
                self._l0.append(SSTable.decode(blob, file_id=file_id))
            for file_id, blob in zip(l1_ids, blobs[len(l0_ids):]):
                self._l1.append(SSTable.decode(blob, file_id=file_id))
        records = yield from self.wal.recover(self._wal_start)
        replayed = 0
        for lsn, payload in records:
            if lsn < self._wal_start:
                continue
            key, value = decode_kv(payload)
            self._active.insert(key, value)
            replayed += 1
        self.wal.low_water_lsn = self._wal_start
        return replayed
