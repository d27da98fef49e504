"""BA-WAL: write-ahead logging on the 2B-SSD byte path (§IV-B, Fig. 5 right).

BA commit has three phases:

1. **logging** — records are appended straight into the BA-buffer via MMIO
   (``memcpy`` through the CPU WC buffer), exactly as many bytes as needed;
2. **commit** — ``BA_SYNC`` makes everything appended so far durable
   (clflush+mfence + write-verify read; capacitors guarantee the rest);
3. **flushing** — when a buffer half fills, a single ``BA_FLUSH`` moves the
   whole segment to its pinned NAND pages and the half is re-pinned to the
   next log segment (*double buffering*: appends continue in the other
   half while the flush runs).

Records never span segment boundaries; the unused tail of a segment is
skipped, and recovery accepts the resulting segment-aligned LSN jumps.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.api import TwoBApiClient
from repro.core.mapping_table import BaMappingEntry
from repro.obs import tracing
from repro.sim import Engine, Resource
from repro.sim.engine import Event
from repro.wal.base import (
    LogFullError, PartialAppendError, WalStats, WriteAheadLog)
from repro.wal.record import (
    RECORD_HEADER_BYTES, encode_record, lent, peek_header, scan_run)


class _Half:
    """One half of the BA-buffer: a pinned log segment."""

    def __init__(self, entry_id: int, buffer_offset: int) -> None:
        self.entry_id = entry_id
        self.buffer_offset = buffer_offset
        self.entry: Optional[BaMappingEntry] = None
        self.stream_base = 0      # stream LSN of the segment's first byte
        self.ready: Optional[Event] = None  # fires when flushed + re-pinned
        self.pinning: Optional[int] = None  # segment a pin is targeting


class BaWAL(WriteAheadLog):
    """WAL backend appending directly into the 2B-SSD BA-buffer."""

    def __init__(
        self,
        engine: Engine,
        api: TwoBApiClient,
        start_lpn: int = 0,
        area_pages: int = 16384,
        segment_bytes: Optional[int] = None,
        double_buffer: bool = True,
        entry_ids: tuple[int, int] = (0, 1),
        buffer_base: int = 0,
    ) -> None:
        """``entry_ids`` and ``buffer_base`` let several logs share one
        BA-buffer (the mapping table holds up to eight entries): each WAL
        claims two entry ids and a disjoint buffer slice starting at
        ``buffer_base``."""
        self.engine = engine
        self.api = api
        self.device = api.device
        self.page_size = self.device.page_size
        params = api.params
        self.segment_bytes = segment_bytes or params.buffer_bytes // 2
        if self.segment_bytes % self.page_size:
            raise ValueError("segment size must be page-aligned")
        if buffer_base % self.page_size:
            raise ValueError("buffer_base must be page-aligned")
        if buffer_base + 2 * self.segment_bytes > params.buffer_bytes:
            raise ValueError("two segments (double buffering) must fit the BA-buffer")
        self.segment_pages = self.segment_bytes // self.page_size
        self.max_record_bytes = self.segment_bytes  # no record straddles two
        if area_pages % self.segment_pages:
            raise ValueError("log area must hold a whole number of segments")
        if entry_ids[0] == entry_ids[1]:
            raise ValueError("the two halves need distinct mapping entry ids")
        self.double_buffer = double_buffer
        self.start_lpn = start_lpn
        self.area_pages = area_pages
        self.stats = WalStats()
        self._halves = [
            _Half(entry_ids[0], buffer_base),
            _Half(entry_ids[1], buffer_base + self.segment_bytes),
        ]
        self._active = 0
        self._tail = 0
        self._synced = 0
        self._next_segment = 0  # next segment sequence number to pin
        self._insert_lock = Resource(engine)
        self._started = False

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def over_file(cls, engine: Engine, api: TwoBApiClient, log_file,
                  **kwargs) -> "BaWAL":
        """Build a BA-WAL whose log area is a preallocated filesystem file.

        The file must be one contiguous extent (``File.preallocate`` makes
        one) whose page count divides into whole segments — the on-disk
        shape of PostgreSQL's recycled XLOG segment files.
        """
        from repro.fs.filesystem import FileSystemError

        if log_file.size == 0:
            raise FileSystemError(f"log file {log_file.name!r} is empty; "
                                  f"preallocate it first")
        lpn, contiguous_pages = log_file.extent_for(0)
        page_size = log_file.fs.page_size
        total_pages = -(-log_file.size // page_size)
        if contiguous_pages < total_pages:
            raise FileSystemError(
                f"log file {log_file.name!r} is fragmented; BA-WAL needs one "
                f"contiguous extent"
            )
        return cls(engine, api, start_lpn=lpn, area_pages=total_pages, **kwargs)

    def start(self) -> Iterator[Event]:
        """Process: pin the halves to their first log segments."""
        if self._started:
            raise RuntimeError("BaWAL already started")
        yield from self._pin_half(self._halves[0])
        if self.double_buffer:
            yield from self._pin_half(self._halves[1])
        self._started = True
        return None

    def _pin_half(self, half: _Half,
                  segment: Optional[int] = None) -> Iterator[Event]:
        if segment is None:
            segment = self._next_segment
            self._next_segment += 1
        half.pinning = segment
        half.stream_base = segment * self.segment_bytes
        lpn = self.start_lpn + (segment * self.segment_pages) % self.area_pages
        if segment * self.segment_pages >= self.area_pages:
            # Recycling a wrapped segment: discard its stale generation so
            # the pin takes the firmware's no-data fast path (XLOG-style
            # segment recycling).
            yield from self.api.trim(lpn, self.segment_pages)
        half.entry = yield from self.api.ba_pin(
            half.entry_id, half.buffer_offset, lpn, self.segment_bytes)
        half.pinning = None
        return None

    # -- WriteAheadLog interface ----------------------------------------------------

    @property
    def durable_lsn(self) -> int:
        return self._synced

    @property
    def tail_lsn(self) -> int:
        return self._tail

    def append_batch(self, payloads: list[bytes]) -> Iterator[Event]:
        """Process: logging phase — MMIO-append exactly the records'
        bytes under ONE insert-lock pass, one MMIO write per contiguous
        run inside a buffer half.

        A record that does not fit the active half's rest seals it
        (:meth:`_switch_halves`) and opens the next segment.  A run
        counts as appended only once its MMIO lands, so a half switch
        failing mid-batch (mapping-table pressure stealing the recycle's
        pin, or a recycle refused by low water) reports exactly the
        prefix :meth:`replay` would see.
        """
        if not self._started:
            raise RuntimeError("call start() before appending")
        if not payloads:
            return []
        longest = RECORD_HEADER_BYTES + max(map(len, payloads))
        if longest > self.max_record_bytes:
            raise ValueError(
                f"record of {longest} bytes exceeds segment of {self.segment_bytes}"
            )
        if tracing.enabled:
            _t0 = self.engine.now
        lsns: list[int] = []
        count = len(payloads)
        index = 0
        lock = self._insert_lock.request()
        if not lock._processed:
            yield lock
        try:
            while True:
                half = self._halves[self._active]
                limit = half.stream_base + self.segment_bytes
                tail = self._tail
                run: list[bytes] = []
                while index < count:
                    payload = payloads[index]
                    end = tail + RECORD_HEADER_BYTES + len(payload)
                    if end > limit:
                        break
                    run.append(encode_record(tail, payload))
                    lsns.append(end)
                    tail = end
                    index += 1
                if run:
                    yield from self.api.mmio_write(
                        half.entry, self._tail - half.stream_base,
                        b"".join(run))
                    self.stats.appends += len(run)
                    self.stats.bytes_appended += (
                        tail - self._tail - RECORD_HEADER_BYTES * len(run))
                    self._tail = tail
                if index == count:
                    break
                try:
                    yield from self._switch_halves()
                except Exception as exc:
                    if lsns:
                        raise PartialAppendError(lsns, exc) from exc
                    raise
        finally:
            self._insert_lock.release(lock)
        if tracing.enabled:
            tracing.observe("wal.ba.append", self.engine.now - _t0)
        return lsns

    def commit(self, lsn: int) -> Iterator[Event]:
        """Process: commit phase — BA_SYNC the active half.

        Takes the insert lock (PostgreSQL's WALWriteLock analogue) so a
        sync never races a half-switch that is flushing its entry away.
        """
        self.stats.commits += 1
        if lsn <= self._synced:
            return None
        with tracing.span("wal.ba.commit", self.engine):
            lock = self._insert_lock.request()
            if not lock._processed:
                yield lock
            try:
                if lsn <= self._synced:
                    return None
                target = self._tail
                yield from self.api.ba_sync(self._halves[self._active].entry_id)
                self._synced = max(self._synced, target)
            finally:
                self._insert_lock.release(lock)
        return None

    # -- flushing phase -------------------------------------------------------------

    def _switch_halves(self) -> Iterator[Event]:
        """Seal the active half: sync it, flush it in the background, and
        continue in the other half (waiting for it only if its own recycle
        is still running — the double-buffering stall)."""
        segments = self.area_pages // self.segment_pages
        discarded_end = (self._next_segment - segments + 1) * self.segment_bytes
        if self._next_segment >= segments and discarded_end > self.low_water_lsn:
            # The recycle would trim the slot's previous generation, which
            # still holds records the consumer needs.  Refuse before
            # sealing: nothing changes, the active half stays open.
            raise LogFullError(
                f"log area full: recycling segment {self._next_segment} "
                f"discards bytes below {discarded_end}, low water is "
                f"{self.low_water_lsn}")
        old = self._halves[self._active]
        # Everything in the sealed segment becomes durable before flushing.
        yield from self.api.ba_sync(old.entry_id)
        self._synced = max(self._synced, self._tail)
        # Skip the unusable tail: records never span segments.
        self._tail = old.stream_base + self.segment_bytes
        old.ready = self.engine.event()
        # The recycle's target segment is assigned HERE, not when its pin
        # runs: concurrent recycles finish in flush-latency order (a slow
        # NAND die can invert it), and segments must land in spawn order
        # or the halves come back swapped and misaligned with the tail.
        old.pinning = self._next_segment
        self._next_segment += 1
        self.engine.process(self._recycle_half(old, old.pinning),
                            name="ba-wal-recycle")
        if self.double_buffer:
            other = self._halves[1 - self._active]
            if other.ready is not None and not other.ready.processed:
                self.stats.flush_stalls += 1
                yield other.ready
            self._active = 1 - self._active
        else:
            # Single-buffered (the paper's Redis port): wait for the
            # flush+repin to finish, then reuse the same half.
            self.stats.flush_stalls += 1
            yield old.ready
        new_half = self._halves[self._active]
        if new_half.stream_base != self._tail:
            # The repinned segment's base must line up with the stream.
            raise RuntimeError(
                f"segment misalignment: half base {new_half.stream_base} "
                f"!= stream tail {self._tail}"
            )
        return None

    def _recycle_half(self, half: _Half, segment: int) -> Iterator[Event]:
        yield from self.api.ba_flush(half.entry_id)
        self.stats.device_writes += 1
        yield from self._pin_half(half, segment=segment)
        ready, half.ready = half.ready, None
        if ready is not None:
            ready.succeed()
        return None

    # -- crash recovery of the host object -------------------------------------------

    def crash_reset(self) -> None:
        """Make this WAL usable again after a kernel purge killed its
        in-flight work.

        This is the *peer-crash* case: another node on a shared simulation
        kernel lost power, and the global event purge took this host's
        in-flight appends, commits, and recycles with it — but this host
        kept power, DRAM, and its pinned entries.  Three kinds of damage
        need repair: the insert lock (a cancelled holder's release hands
        it to a cancelled waiter), a recycle that died mid-flight
        (finished deterministically below — both its steps restart
        cleanly), and an ``_active`` pointer a half-switch left on the
        sealed half.

        Must be called from outside the kernel: repairs run through
        ``engine.run_process``.
        """
        self._insert_lock = Resource(self.engine)
        if not self._started:
            return
        for half in self._halves:
            if half.ready is None and half.pinning is None:
                continue
            self.engine.run_process(self._repair_half(half))
        # Re-seat the active pointer on the segment holding the tail: a
        # switch that died waiting out the double-buffering stall had
        # already bumped the tail into the other half.
        for index, half in enumerate(self._halves):
            if (half.stream_base <= self._tail
                    < half.stream_base + self.segment_bytes):
                self._active = index
                break

    def _repair_half(self, half: _Half) -> Iterator[Event]:
        """Finish a recycle the purge interrupted.

        The recycle's target segment was assigned when it was spawned
        (``half.pinning``), and the mapping table is the ground truth for
        how far it got: flushing a segment twice rewrites the same NAND
        bytes (the buffer did not change), and a pin whose table entry
        already exists at the target LPN only needs adopting
        (``table.add`` runs before any data movement, so the entry's
        presence proves the pin got that far).
        """
        table = self.device.mapping_table
        segment = half.pinning
        if segment is not None:
            lpn = self.start_lpn + \
                (segment * self.segment_pages) % self.area_pages
            if half.entry_id in table:
                entry = table.get(half.entry_id)
                if entry.lba == lpn:
                    half.entry = entry
                    half.stream_base = segment * self.segment_bytes
                else:
                    # Still mapped to the sealed segment: the flush never
                    # finished.  Redo it, then the pin.
                    yield from self.api.ba_flush(half.entry_id)
                    yield from self._pin_half(half, segment=segment)
            else:
                # Flushed (unmapped) but never repinned.
                yield from self._pin_half(half, segment=segment)
        half.pinning = None
        half.ready = None
        return None

    # -- recovery --------------------------------------------------------------------

    def replay(self, start_lsn: int, apply) -> Iterator[Event]:
        """Process: post-crash read of the live log — the restored
        BA-buffer and the NAND segments behind it.

        Segment ``n`` lives in slot ``n % segments`` and opens with a
        record at LSN ``n * segment_bytes`` (records never span segments;
        ``_switch_halves`` pads a sealed tail), so the log is followed
        from ``start_lsn``'s segment, one slot at a time, until a slot
        does not anchor at its expected base.  A pinned slot is scanned
        where it lies in the BA-buffer (it holds the newer bytes); any
        other is probed one page before its body is read.  Every record
        is CRC-checked where it lies and goes through :class:`_Chain`,
        which hands those from ``start_lsn`` on to ``apply`` while their
        segment is live.

        The record at ``start_lsn``, if there is one, sits in the first
        slot.  When it is not there — the area wrapped over it, or it is
        the tail — the slots are still followed (the same reads) with
        nothing applied, and then :meth:`_replay_every_slot` scans every
        slot and re-anchors at the oldest surviving segment.
        """
        segments = self.area_pages // self.segment_pages
        first = start_lsn // self.segment_bytes
        chain = _Chain(start_lsn, self.segment_bytes, apply)
        with tracing.span("wal.ba.recover", self.engine):
            for number in range(first, first + segments):
                base = number * self.segment_bytes
                lpn = self.start_lpn + number % segments * self.segment_pages
                anchored = self._scan_pinned(chain, lpn, base)
                if anchored is not None:
                    yield self.engine.timeout(self.api.params.entry_info_latency)
                else:
                    anchored = yield from self._scan_stored(chain, lpn, base)
                if not anchored:
                    break
                if chain.expected == start_lsn:
                    chain.ended = True  # nothing at start_lsn: read on, apply none
            if chain.expected == start_lsn:
                yield from self._replay_every_slot(start_lsn, apply)
        return None

    def _replay_every_slot(self, start_lsn: int, apply) -> Iterator[Event]:
        """Process: the fallback — the anchored records at or above
        ``start_lsn`` of every slot of the log area, whatever was written,
        sorted and handed to :meth:`_chain_sorted`.  The only path that
        collects."""
        if tracing.enabled:
            tracing.count("wal.ba.recover.fallback_scans")
        records: list[tuple[int, bytes]] = []

        def keep(lsn, payload):
            if lsn >= start_lsn:
                records.append((lsn, payload.tobytes()))

        for slot in range(self.area_pages // self.segment_pages):
            lpn = self.start_lpn + slot * self.segment_pages
            if self._scan_pinned(keep, lpn, None) is not None:
                yield self.engine.timeout(self.api.params.entry_info_latency)
            else:
                self._scan_anchored(keep, (yield from self._read(
                    lpn, self.segment_bytes, "wal.ba.recover.segments_read")),
                    None)
        records.sort(key=lambda item: item[0])
        self._chain_sorted(records, start_lsn, apply)
        return None

    def _chain_sorted(self, records: list[tuple[int, bytes]], start_lsn: int,
                      apply) -> None:
        """:class:`_Chain` through the sorted ``records`` from ``start_lsn``
        or, when the circular area wrapped over it, from the oldest
        surviving segment boundary (the most recent generation)."""
        anchor = start_lsn
        if all(lsn != start_lsn for lsn, _p in records):
            anchor = min((lsn for lsn, _p in records if lsn >= start_lsn
                          and lsn % self.segment_bytes == 0), default=start_lsn)
        chain = _Chain(anchor, self.segment_bytes, apply)
        for lsn, payload in records:
            chain(lsn, memoryview(payload))

    def _scan_pinned(self, apply, lpn: int,
                     base: Optional[int]) -> Optional[bool]:
        """:meth:`_scan_anchored` of the segment pinned at ``lpn``, where it
        lies in the BA-buffer; ``None`` when no segment is pinned there.

        The overlay is resolved at access time (a background flush+re-pin
        may move entries while recovery is reading) and the buffer scanned
        synchronously, so lookup and scan are atomic with respect to the
        mapping table and to every later write.
        """
        overlay = self.device.mapping_table.pinned_lba_overlap(
            lpn, self.segment_pages)
        if overlay is None or overlay.lba != lpn:
            return None
        with self.device.ba_dram.view(overlay.offset,
                                      self.segment_bytes) as image:
            return self._scan_anchored(apply, image, base)

    def _scan_stored(self, apply, lpn: int, base: int) -> Iterator[Event]:
        """Process: :meth:`_scan_anchored` of the segment stored at ``lpn``,
        probed one page before its body is read; ``None`` when the probe
        finds no record of ``base`` there.  The image dies on return."""
        image = yield from self._read(
            lpn, self.page_size, "wal.ba.recover.slots_probed")
        if peek_header(image) != base:
            return None
        # A background recycle may have re-pinned the slot while the probe
        # was in flight.
        anchored = self._scan_pinned(apply, lpn, base)
        if anchored is None:
            if self.segment_pages > 1:
                image += yield from self._read(
                    lpn + 1, self.segment_bytes - self.page_size,
                    "wal.ba.recover.segments_read")
            anchored = self._scan_anchored(apply, image, base)
        return anchored

    def _read(self, lpn: int, nbytes: int, counter: str) -> Iterator[Event]:
        """Process: one block read of recovery, tallied when traced."""
        if tracing.enabled:
            tracing.count(counter)
            tracing.count("wal.ba.recover.bytes_read", nbytes)
        return (yield from self.device.read(lpn, nbytes))

    @staticmethod
    def _scan_anchored(apply, image, base: Optional[int]) -> bool:
        """:func:`~repro.wal.record.scan_run` of the run that opens ``image``
        at LSN ``base`` (at whatever LSN its first header claims when
        ``base`` is None); True if the run holds any record."""
        if base is None:
            base = peek_header(image)
            if base is None:
                return False
        with lent(image) as view:
            return scan_run(apply, view, 0, base)[1] != base


class _Chain:
    """Recovery's contiguity rule, applied as records arrive in LSN order.

    A record goes to ``apply`` when it starts where the last one ended,
    or — when that was inside a segment — at the next segment's base (the
    one legal jump, over a sealed segment's padding; a record ending
    exactly on a boundary leaves none).  Records below ``expected`` are
    passed over, and the first gap ends the chain: nothing after a hole
    is reachable.
    """

    __slots__ = ("expected", "segment_bytes", "apply", "ended")

    def __init__(self, expected: int, segment_bytes: int, apply) -> None:
        self.expected = expected
        self.segment_bytes = segment_bytes
        self.apply = apply
        self.ended = False

    def __call__(self, lsn: int, payload: memoryview) -> None:
        expected = self.expected
        if lsn < expected or self.ended:
            return
        if (lsn != expected and lsn != -(-expected // self.segment_bytes)
                * self.segment_bytes):
            self.ended = True  # a gap
            return
        self.apply(lsn, payload)
        self.expected = lsn + RECORD_HEADER_BYTES + len(payload)
