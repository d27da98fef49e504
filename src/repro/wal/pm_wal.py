"""PM-buffered WAL: the heterogeneous-memory alternative (Fig. 10).

Records persist into a DIMM-bus persistent-memory buffer at append time
(store + clflush + cheap fence), so commits are nearly free — but the PM
is small and temporary: a background flusher must push filled log pages
through the whole block I/O stack to the log device, and appends stall
when the PM buffer fills faster than the device drains it.  That drain
overhead is the only difference between ``PM + DC-SSD`` and
``PM + ULL-SSD`` in the paper's Fig. 10.
"""

from __future__ import annotations

from typing import Iterator

from repro.host.cpu import HostCPU
from repro.host.memory import PersistentMemoryRegion
from repro.obs import tracing
from repro.sim import Engine, Resource, Store
from repro.sim.engine import Event
from repro.ssd.device import BlockSSD
from repro.wal.base import (
    LogFullError, PartialAppendError, WalStats, WriteAheadLog)
from repro.wal.record import RECORD_HEADER_BYTES, encode_record, lent, scan_run


class PmWAL(WriteAheadLog):
    """WAL backend: durable at PM speed, drained to a block log device."""

    def __init__(
        self,
        engine: Engine,
        device: BlockSSD,
        cpu: HostCPU,
        pm_bytes: int = 8 * 1024 * 1024,
        start_lpn: int = 0,
        area_pages: int = 16384,
    ) -> None:
        self.engine = engine
        self.device = device
        self.cpu = cpu
        self.page_size = device.page_size
        if pm_bytes % self.page_size:
            raise ValueError("PM buffer must be page-aligned")
        self.pm = PersistentMemoryRegion("pm-log-buffer", pm_bytes)
        self.pm_pages = pm_bytes // self.page_size
        self.max_record_bytes = pm_bytes  # a record persists into PM whole
        self.start_lpn = start_lpn
        self.area_pages = area_pages
        self.stats = WalStats()
        self._tail = 0
        self._drained = 0  # stream offset below which data is on the device
        self._insert_lock = Resource(engine)
        self._flusher_signal = Store(engine)
        self._flusher_kicked = False
        self._space_waiters: list[Event] = []
        engine.process(self._flusher_loop(), name="pm-wal-flusher")

    # -- WriteAheadLog interface -------------------------------------------------

    @property
    def durable_lsn(self) -> int:
        # Everything appended is durable: the PM copy survives crashes.
        return self._tail

    @property
    def drained_lsn(self) -> int:
        return self._drained

    @property
    def tail_lsn(self) -> int:
        return self._tail

    def append_batch(self, payloads: list[bytes]) -> Iterator[Event]:
        """Process: persist the records into PM under one insert-lock
        pass (durable on return).  A record whose drain would wrap the
        device area over low water raises
        :class:`~repro.wal.base.LogFullError` (mid-batch, as the cause of
        a :class:`~repro.wal.base.PartialAppendError`)."""
        if not payloads:
            return []
        if RECORD_HEADER_BYTES + max(map(len, payloads)) > self.max_record_bytes:
            raise ValueError("record larger than the PM buffer")
        lsns: list[int] = []
        lock = self._insert_lock.request()
        yield lock
        try:
            for payload in payloads:
                record = encode_record(self._tail, payload)
                if (self._tail + len(record) - self.low_water_lsn
                        > self.area_pages * self.page_size):
                    full = LogFullError(
                        f"log area full: appending up to "
                        f"{self._tail + len(record)} would wrap over low "
                        f"water {self.low_water_lsn}")
                    if lsns:
                        raise PartialAppendError(lsns, full)
                    raise full
                while self._tail + len(record) - self._drained > self.pm.size:
                    self.stats.flush_stalls += 1
                    waiter = self.engine.event()
                    self._space_waiters.append(waiter)
                    self._kick_flusher()
                    yield waiter
                yield from self._pm_copy(self._tail, record)
                self._tail += len(record)
                lsns.append(self._tail)
                self.stats.appends += 1
                self.stats.bytes_appended += len(payload)
        finally:
            self._insert_lock.release(lock)
        self._kick_flusher()
        return lsns

    def commit(self, lsn: int) -> Iterator[Event]:
        """Process: a no-op — the append's fence already persisted the record."""
        self.stats.commits += 1
        with tracing.span("wal.pm.commit", self.engine):
            yield self.engine.timeout(0.0)
        return None

    def replay(self, start_lsn: int, apply) -> Iterator[Event]:
        """Process: replay from the device up to the drain point, then from
        the surviving PM buffer, handing each record to ``apply`` where it
        lies in the source just read.

        A record can straddle the drain boundary (head already on the
        device, tail still in PM); the two sources are spliced so such
        records recover intact.  A source is one 32-page device chunk, the
        PM bytes past the drain point, or both: bounded by the PM buffer,
        not by the log.
        """
        expected = start_lsn
        drained = self._drained
        tail = self._tail
        while expected < tail:
            offset = 0
            if expected >= drained:
                source = self._ring_read(expected, tail - expected)
            else:
                stream_page = expected // self.page_size
                lpn = self.start_lpn + stream_page % self.area_pages
                npages = min(32, self.area_pages - stream_page % self.area_pages)
                source = yield from self.device.read(lpn, npages * self.page_size)
                offset = expected % self.page_size
                if stream_page * self.page_size + len(source) > drained:
                    # Device content beyond the drain point is stale;
                    # substitute the authoritative PM copy.
                    source = (source[offset:drained - stream_page * self.page_size]
                              + self._ring_read(drained, tail - drained))
                    offset = 0
            with lent(source) as view:
                end, expected, _foreign = scan_run(apply, view, offset, expected)
            if end == offset:
                break
        return None

    # -- internals -------------------------------------------------------------------

    def _pm_slot(self, lsn: int) -> int:
        return lsn % self.pm.size

    def _pm_copy(self, lsn: int, record: bytes) -> Iterator[Event]:
        position = 0
        while position < len(record):
            slot = self._pm_slot(lsn + position)
            chunk = min(len(record) - position, self.pm.size - slot)
            yield from self.cpu.pm_write(self.pm, slot, record[position:position + chunk])
            position += chunk
        return None

    def _ring_read(self, lsn: int, nbytes: int) -> bytes:
        if nbytes <= 0:
            return b""
        parts = []
        position = 0
        while position < nbytes:
            slot = self._pm_slot(lsn + position)
            chunk = min(nbytes - position, self.pm.size - slot)
            parts.append(self.pm.read(slot, chunk))
            position += chunk
        return b"".join(parts)

    def _kick_flusher(self) -> None:
        if not self._flusher_kicked:
            self._flusher_kicked = True
            self._flusher_signal.put(True)

    def _flusher_loop(self) -> Iterator[Event]:
        while True:
            yield self._flusher_signal.get()
            self._flusher_kicked = False
            # Drain complete pages; the partial tail page stays in PM.
            while self._drained // self.page_size < self._tail // self.page_size:
                first = self._drained // self.page_size
                last = self._tail // self.page_size - 1
                run = min(last - first + 1,
                          self.area_pages - first % self.area_pages,
                          self.pm_pages)
                data = self._ring_read(first * self.page_size, run * self.page_size)
                lpn = self.start_lpn + first % self.area_pages
                yield from self.device.write(lpn, data)
                self.stats.device_writes += 1
                yield from self.device.fsync()
                self._drained = (first + run) * self.page_size
                waiters, self._space_waiters = self._space_waiters, []
                for waiter in waiters:
                    waiter.succeed()
