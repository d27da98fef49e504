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
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import attrgetter
from typing import Iterator, Optional

from repro.analysis import sanitizer as simsan
from repro.db.common import EngineStats
from repro.db.lsm.bloom import BloomFilter
from repro.db.lsm.memtable import MemTable
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
    key = str(payload[_KV_HEADER.size:key_end], "utf-8")
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
        # ``rng`` is accepted from the callers that pass one; nothing in
        # the tree draws a random number.
        self._active = MemTable()
        self._immutable: Optional[MemTable] = None
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
            self._active = MemTable()
            self._flush_done = self.engine.event()
            self.engine.process(self._flush_immutable(), name="lsm-flush")
        finally:
            self._rotating = False
        return None

    def _flush_immutable(self) -> Iterator[Event]:
        assert self._immutable is not None
        table = SSTable.from_sorted(self._immutable.items())
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
        """Split one merged run into L1 tables of bounded size: a table
        ends at the first entry that brings it to the target."""
        target_bytes = max(2 * self.memtable_bytes, 1)
        pairs = merged.items()
        # ends[i]: bytes of entries 0..i, so a table from ``start`` ends
        # at the first i with ends[i] >= ends[start - 1] + target.
        ends = list(accumulate(len(key.encode()) + (len(value) if value else 0)
                               for key, value in pairs))
        outputs: list[SSTable] = []
        start = 0
        while start < len(pairs):
            floor = ends[start - 1] if start else 0
            stop = bisect_left(ends, floor + target_bytes, start) + 1
            outputs.append(SSTable.from_sorted(pairs[start:stop]))
            start = stop
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
        # Every L0 table, newest first, then the one L1 run whose range can
        # hold the key (L1 is sorted and non-overlapping).
        tables = self._l0[::-1]
        index = bisect_right(self._l1, key, key=_min_key)
        if index and key <= self._l1[index - 1].max_key:
            tables.append(self._l1[index - 1])
        # A table with a filter is probed filter first.  One without is
        # bisected first, and only a miss builds its filter and counts the
        # skip the filter would have made: a filter never rejects a
        # present key, so (found, value) and filter_skips are those of
        # filter-first everywhere, and a table that only ever answers hits
        # never builds one.  The key is hashed at most once.
        key_hash: Optional[tuple[int, int]] = None
        for table in tables:
            built = table._filter
            if built is not None:
                if key_hash is None:
                    key_hash = BloomFilter.hash_key(key)
                if not built.might_contain_hashed(*key_hash):
                    self.filter_skips += 1
                    continue
            found, value = table.get(key)
            if found:
                return True, value
            if built is None:
                if key_hash is None:
                    key_hash = BloomFilter.hash_key(key)
                if not table.filter.might_contain_hashed(*key_hash):
                    self.filter_skips += 1
        return False, None

    def scan(self, start_key: str, limit: int) -> Iterator[Event]:
        """Process: ordered scan of up to ``limit`` live entries."""
        yield self.engine.timeout(self.READ_CPU + limit * 0.1 * USEC)
        # Over-fetch, since tombstones inside the range shrink the live
        # set, and fetch again with twice the depth until ``limit`` live
        # rows are merged or every source runs dry.  Only keys up to the
        # shortest cut-off source's last key are complete.
        fetch = limit + 32
        while True:
            sources: list[list[tuple[str, Optional[bytes]]]] = [
                memtable.range_items(start_key, fetch)
                for memtable in (self._active, self._immutable)
                if memtable is not None]
            for table in reversed(self._l0):
                sources.append(table.range_items(start_key, fetch))
            for table in self._l1:
                sources.append(table.range_items(start_key, fetch))
            merged: dict[str, Optional[bytes]] = {}
            for source in reversed(sources):  # oldest first; newer overwrite
                merged.update(source)
            cut = min((source[-1][0] for source in sources
                       if len(source) == fetch), default=None)
            live = [(k, v) for k, v in sorted(merged.items())
                    if v is not None and (cut is None or k <= cut)]
            if len(live) >= limit or cut is None:
                return live[:limit]
            fetch *= 2

    # -- recovery ---------------------------------------------------------------------

    def recover(self) -> Iterator[Event]:
        """Process: rebuild from manifest + SSTs + WAL replay."""
        manifest = yield from self.storage.read_manifest()
        self._active = MemTable()
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
        replayed = 0

        def insert(_lsn, payload):
            nonlocal replayed
            self._active.insert(*decode_kv(payload))
            replayed += 1

        yield from self.wal.replay(self._wal_start, insert)
        self.wal.low_water_lsn = self._wal_start
        return replayed
