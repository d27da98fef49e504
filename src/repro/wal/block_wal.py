"""Conventional WAL over block I/O (Fig. 5, left and middle).

Records accumulate in a host-memory log buffer; a single log-writer
process flushes them as page-aligned block writes followed by fsync —
PostgreSQL-style group commit falls out naturally (one write+fsync covers
every commit that queued during the previous flush).

* **Synchronous commit** blocks the transaction until its LSN is durable.
* **Asynchronous commit** returns immediately; the writer drains in the
  background, leaving the paper's risk window (transactions acknowledged
  but not yet durable die with a crash).

The same 4 KiB log page is typically written several times as records
trickle in (``stats.page_rewrites``) — the write-amplification burden
§IV-A attributes to conventional WAL.
"""

from __future__ import annotations

from typing import Iterator

from repro.host.cpu import HostCPU
from repro.obs import tracing
from repro.sim import Engine, Resource, Store
from repro.sim.engine import Event
from repro.ssd.device import BlockSSD
from repro.wal.base import (
    CommitMode,
    LogFullError,
    PartialAppendError,
    WalStats,
    WriteAheadLog,
)
from repro.wal.record import (
    RECORD_HEADER_BYTES, encode_record, lent, record_size, scan_run)


class BlockWAL(WriteAheadLog):
    """WAL backend writing a circular log area on a block SSD."""

    def __init__(
        self,
        engine: Engine,
        device: BlockSSD,
        cpu: HostCPU,
        mode: CommitMode = CommitMode.SYNCHRONOUS,
        start_lpn: int = 0,
        area_pages: int = 16384,
        group_commit: bool = True,
    ) -> None:
        """``group_commit=False`` makes every synchronous commit issue its
        own write+fsync serially (pre-group-commit behaviour, for the
        ablation bench); the default batches concurrent commits through
        the log-writer process."""
        if mode is CommitMode.BA:
            raise ValueError("BlockWAL supports SYNCHRONOUS/ASYNCHRONOUS; use BaWAL for BA")
        self.engine = engine
        self.device = device
        self.cpu = cpu
        self.mode = mode
        self.group_commit = group_commit
        self._inline_flush_lock = Resource(engine)
        self.start_lpn = start_lpn
        self.area_pages = area_pages
        self.page_size = device.page_size
        self.max_record_bytes = area_pages * self.page_size  # the area itself
        self.stats = WalStats()
        self._tail = 0
        self._durable = 0
        self._pages: dict[int, bytearray] = {}
        self._insert_lock = Resource(engine)
        self._commit_waiters: list[tuple[int, Event]] = []
        self._writer_signal = Store(engine)
        self._writer_kicked = False
        self._writer = engine.process(self._writer_loop(),
                                      name="block-wal-writer")

    # -- WriteAheadLog interface ------------------------------------------------

    @property
    def durable_lsn(self) -> int:
        return self._durable

    @property
    def tail_lsn(self) -> int:
        return self._tail

    def append_batch(self, payloads: list[bytes]) -> Iterator[Event]:
        """Process: copy the records into the host log buffer — one
        insert-lock pass and ONE DRAM copy charge for the whole batch.
        A record that would wrap the area over low water raises
        :class:`~repro.wal.base.LogFullError` — mid-batch, as the cause
        of a :class:`~repro.wal.base.PartialAppendError` with the prefix
        that landed in the page cache."""
        if not payloads:
            return []
        lock = self._insert_lock.request()
        yield lock
        lsns: list[int] = []
        try:
            start = self._tail
            overflow = None
            for payload in payloads:
                record = encode_record(self._tail, payload)
                if (self._tail + len(record) - self.low_water_lsn
                        > self.area_pages * self.page_size):
                    overflow = LogFullError(
                        f"log area full: appending up to "
                        f"{self._tail + len(record)} would wrap over low "
                        f"water {self.low_water_lsn}"
                    )
                    break
                self._copy_into_pages(self._tail, record)
                self._tail += len(record)
                lsns.append(self._tail)
            self.stats.appends += len(lsns)
            self.stats.bytes_appended += (
                self._tail - start - RECORD_HEADER_BYTES * len(lsns))
            if overflow is not None:
                if lsns:
                    raise PartialAppendError(lsns, overflow)
                raise overflow
            yield from self.cpu.dram_copy(self._tail - start)
        finally:
            self._insert_lock.release(lock)
        if self.mode is CommitMode.ASYNCHRONOUS:
            self._kick_writer()
        return lsns

    def commit(self, lsn: int) -> Iterator[Event]:
        self.stats.commits += 1
        if self.mode is CommitMode.ASYNCHRONOUS or lsn <= self._durable:
            return None
        if tracing.enabled:
            _t0 = self.engine.now
        if not self.group_commit:
            # Every commit pays its own write+fsync, serialized — even
            # when an earlier commit's flush already covered its LSN (the
            # fsync syscall is issued unconditionally, as pre-group-commit
            # engines did).
            lock = self._inline_flush_lock.request()
            yield lock
            try:
                if lsn > self._durable:
                    yield from self._flush_batch()
                else:
                    head_page = max(self._durable - 1, 0) // self.page_size
                    page = self._pages.get(head_page, bytes(self.page_size))
                    yield from self.device.write(self._page_lpn(head_page), bytes(page))
                    self.stats.device_writes += 1
                    self.stats.page_rewrites += 1
                    yield from self.device.fsync()
            finally:
                self._inline_flush_lock.release(lock)
            if tracing.enabled:
                tracing.observe("wal.block.commit", self.engine.now - _t0)
            return None
        waiter = self.engine.event()
        self._commit_waiters.append((lsn, waiter))
        self._kick_writer()
        yield waiter
        if tracing.enabled:
            tracing.observe("wal.block.commit", self.engine.now - _t0)
        return None

    def crash_reset(self) -> None:
        """Make this WAL usable again after a kernel purge killed its
        in-flight work (a *peer* crashed on the shared kernel; this host
        kept power and its DRAM page copies).

        Locks whose holders died are replaced, commit waiters are dropped
        (the committers died with the purge, and nothing they were waiting
        on was acked), and the group-commit writer, which the purge
        cancelled with everything else, is respawned.
        """
        self._insert_lock = Resource(self.engine)
        self._inline_flush_lock = Resource(self.engine)
        self._commit_waiters = []
        self._writer_kicked = False
        self._writer_signal = Store(self.engine)
        self._writer = self.engine.process(self._writer_loop(),
                                           name="block-wal-writer")

    def replay(self, start_lsn: int, apply) -> Iterator[Event]:
        """Process: scan the on-device log from ``start_lsn`` for the
        contiguous run of valid records (host buffers died with the crash),
        32 pages a read, handing each to ``apply`` where it lies in the
        chunk.  A record the chunk's end cuts is carried, and completed
        from just the bytes of the next chunk it lacks: the scan holds one
        chunk, under 16 pages carried and one record.

        A whole record that is not the next one ends the log; one that
        does not parse ends it only with 16 pages or more behind it — with
        fewer it may be cut by the chunk's end, so read more and retry.
        """
        gap = 16 * self.page_size
        expected = start_lsn
        offset = start_lsn % self.page_size  # of ``expected`` in the chunk
        carry = b""  # bytes from ``expected`` on that the last chunk cut
        page = start_lsn // self.page_size
        last = page + self.area_pages
        while page < last:
            npages = min(32, self.area_pages - page % self.area_pages)
            lpn = self._page_lpn(page)
            page += npages
            # No name holds the chunk: it goes with the view.
            with lent((yield from self.device.read(
                    lpn, npages * self.page_size))) as view:
                if carry:
                    size = record_size(carry + view[:RECORD_HEADER_BYTES])
                    offset = min(len(view), max(0, (size or 0) - len(carry)))
                    with lent(carry + view[:offset]) as record:
                        done, expected, foreign = scan_run(
                            apply, record, 0, expected, 1)
                    if done != size:  # still cut short, or the log ends
                        if foreign or len(carry) + len(view) >= gap:
                            return None
                        carry += view
                        continue
                    carry = b""
                offset, expected, foreign = scan_run(apply, view, offset,
                                                     expected)
                if foreign or len(view) - offset >= gap:
                    return None
                carry = bytes(view[offset:])
            offset = 0
        return None

    # -- internals ----------------------------------------------------------------

    def _page_lpn(self, stream_page: int) -> int:
        return self.start_lpn + stream_page % self.area_pages

    def _copy_into_pages(self, lsn: int, record: bytes) -> None:
        position = 0
        while position < len(record):
            stream_page = (lsn + position) // self.page_size
            within = (lsn + position) % self.page_size
            chunk = min(len(record) - position, self.page_size - within)
            page = self._pages.get(stream_page)
            if page is None:
                page = bytearray(self.page_size)
                self._pages[stream_page] = page
            page[within:within + chunk] = record[position:position + chunk]
            position += chunk

    def _kick_writer(self) -> None:
        if not self._writer_kicked:
            self._writer_kicked = True
            self._writer_signal.put(True)

    def _writer_loop(self) -> Iterator[Event]:
        while True:
            yield self._writer_signal.get()
            self._writer_kicked = False
            while self._tail > self._durable:
                yield from self._flush_batch()

    def _flush_batch(self) -> Iterator[Event]:
        target = self._tail
        first_page = self._durable // self.page_size
        last_page = (target - 1) // self.page_size
        if self._durable % self.page_size:
            # The head page was flushed before as a partial page and is
            # being written again — conventional WAL's rewrite burden.
            self.stats.page_rewrites += 1
        page = first_page
        while page <= last_page:
            run_pages = [self._pages.get(page, bytes(self.page_size))]
            lpn = self._page_lpn(page)
            while (page + len(run_pages) <= last_page
                   and self._page_lpn(page + len(run_pages)) == lpn + len(run_pages)):
                run_pages.append(
                    self._pages.get(page + len(run_pages), bytes(self.page_size))
                )
            yield from self.device.write(lpn, b"".join(bytes(p) for p in run_pages))
            self.stats.device_writes += 1
            page += len(run_pages)
        yield from self.device.fsync()
        self._durable = target
        # Fully-durable pages are on the device; free the host copies.
        head_page = self._durable // self.page_size
        for stale in [p for p in self._pages if p < head_page]:
            del self._pages[stale]
        pending = self._commit_waiters
        self._commit_waiters = []
        for lsn, waiter in pending:
            if lsn <= self._durable:
                waiter.succeed()
            else:
                self._commit_waiters.append((lsn, waiter))
        return None
