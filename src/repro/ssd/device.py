"""The NVMe block device: command latency facade + functional backend.

Host-visible command completion times follow the profile's calibrated
QD1 model (what Fig. 7 measures), while the payload takes the real
datapath: it enters the power-loss-protected device write cache at
completion time and a pool of destage workers moves it through the FTL
onto NAND in the background.  This split keeps latencies faithful to the
paper's measurements *and* keeps flush semantics, WAF accounting, cache
backpressure and crash recovery functional.

Addressing: the device exposes 4 KiB logical pages (the paper's LBA unit,
§III-C).  Multi-page commands are split internally.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.ftl.mapping import keys_in_range
from repro.ftl.pagemap import PageMapFTL
from repro.nand.array import FlashArray
from repro.sim import Engine, Resource, RngStreams, Store
from repro.sim.engine import Event
from repro.ssd.profiles import DeviceProfile


@dataclass
class BlockIoStats:
    """Host-visible command counters."""

    reads: int = 0
    writes: int = 0
    flushes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    gated_writes: int = 0


class BlockSSD:
    """One NVMe SSD instance (DC, ULL, or the block half of 2B)."""

    def __init__(
        self,
        engine: Engine,
        profile: DeviceProfile,
        rng: Optional[RngStreams] = None,
    ) -> None:
        self.engine = engine
        self.profile = profile
        rng = rng or RngStreams(0)
        self._latency_rng = rng.stream("device-latency")
        self.flash = FlashArray(engine, profile.geometry, profile.nand_timing, rng)
        self.ftl = PageMapFTL(engine, self.flash)
        self.page_size = profile.geometry.page_size
        self.stats = BlockIoStats()
        self._cmd_slots = Resource(engine, profile.queue_parallelism)
        self._cache_capacity_pages = profile.cache_bytes // self.page_size
        self._dirty: OrderedDict[int, bytes] = OrderedDict()
        self._destage_queue: Store = Store(engine)
        self._drain_waiters: list[Event] = []
        self._empty_waiters: list[Event] = []
        # Pages currently in flight between the cache and NAND; reads and
        # crash recovery must still see these bytes.
        self._destaging: dict[int, bytes] = {}
        self._trimmed_during_destage: set[int] = set()
        self._redo_after_destage: set[int] = set()
        # Long-lived NAND program batch shared by the destage workers:
        # destage writes reuse one worker process per die instead of
        # spawning an FTL-write + program process per page.
        self._destage_batch = self.flash.program_batch()
        for _ in range(profile.destage_workers):
            engine.process(self._destage_worker(), name=f"{profile.name}-destager")
        # Hook point for the 2B LBA checker; None on plain block SSDs.
        self.lba_gate = None

    # -- capacity ------------------------------------------------------------

    @property
    def logical_pages(self) -> int:
        return self.ftl.logical_pages

    @property
    def dirty_cache_pages(self) -> int:
        return len(self._dirty) + len(self._destaging)

    # -- state capture ---------------------------------------------------------

    def capture_state(self) -> dict:
        """Snapshot device state for the warm-start protocol.

        Requires a fully destaged cache (``drain()`` first): dirty pages
        live in OrderedDicts keyed by LPN and their destage order rides
        the kernel queues, which a snapshot cannot carry.
        """
        if self.dirty_cache_pages:
            raise RuntimeError(
                f"device capture with {self.dirty_cache_pages} dirty cache pages; "
                "drain() before snapshotting")
        if self._drain_waiters or self._empty_waiters:
            raise RuntimeError("device capture with parked cache waiters")
        return {
            "stats": {
                "reads": self.stats.reads,
                "writes": self.stats.writes,
                "flushes": self.stats.flushes,
                "bytes_read": self.stats.bytes_read,
                "bytes_written": self.stats.bytes_written,
                "gated_writes": self.stats.gated_writes,
            },
            "latency_rng": self._latency_rng.getstate(),
            "flash": self.flash.capture_state(),
            "ftl": self.ftl.capture_state(),
            # Dies whose batch workers existed at capture, in creation
            # order — restore re-primes them so post-restore submissions
            # consume identical kernel sequence numbers.
            "destage_dies": list(self._destage_batch._queues.keys()),
        }

    def restore_state(self, state: dict) -> None:
        """Restore onto a freshly constructed device of the same profile.

        The engine must still be at time 0 with the destage workers
        parked; the caller runs the engine afterwards to park the primed
        batch workers, then advances the kernel clock.
        """
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self._latency_rng.setstate(state["latency_rng"])
        self.flash.restore_state(state["flash"])
        self.ftl.restore_state(state["ftl"])
        self._destage_batch.prime(state["destage_dies"])

    # -- host commands ---------------------------------------------------------

    def write(self, lpn: int, data: bytes) -> Iterator[Event]:
        """Process: block write of ``data`` starting at logical page ``lpn``.

        Completes when the payload is in the (power-protected) write cache;
        destaging to NAND happens in the background.  Writes overlapping a
        BA-pinned range are gated by the LBA checker (§III-A2).
        """
        npages = self._page_count(len(data))
        self._check_range(lpn, npages)
        if self.lba_gate is not None:
            self.lba_gate.check_write(lpn, npages)
        slot = self._cmd_slots.request()
        if not slot._processed:
            yield slot
        try:
            while self.dirty_cache_pages + npages > self._cache_capacity_pages:
                waiter = self.engine.event()
                self._drain_waiters.append(waiter)
                yield waiter
            yield self.engine.timeout(
                self._jittered(self.profile.write_latency(len(data))))
            for index in range(npages):
                page = data[index * self.page_size:(index + 1) * self.page_size]
                if len(page) < self.page_size:
                    page = page + bytes(self.page_size - len(page))
                self._cache_insert(lpn + index, page)
        finally:
            self._cmd_slots.release(slot)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        return None

    def read(self, lpn: int, nbytes: int) -> Iterator[Event]:
        """Process: block read of ``nbytes`` starting at logical page ``lpn``.

        Data comes from the write cache when present (most recent), else
        from the FTL's mapped NAND pages.
        """
        npages = self._page_count(nbytes)
        self._check_range(lpn, npages)
        slot = self._cmd_slots.request()
        yield slot
        try:
            yield self.engine.timeout(
                self._jittered(self.profile.read_latency(nbytes)))
        finally:
            self._cmd_slots.release(slot)
        chunks = []
        for index in range(npages):
            page = lpn + index
            cached = self._dirty.get(page)
            if cached is None:
                cached = self._destaging.get(page)
            chunks.append(cached if cached is not None else self.ftl.peek(page))
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return b"".join(chunks)[:nbytes]

    def flush(self) -> Iterator[Event]:
        """Process: NVMe FLUSH.

        With a power-loss-protected cache (all profiles here) this is a
        quick command round trip — cached data is already durable.  Without
        PLP it must wait until every dirty page reaches NAND.
        """
        self.stats.flushes += 1
        if self.profile.plp_cache:
            yield self.engine.timeout(self.profile.flush_latency)
            return None
        yield self.engine.timeout(self.profile.flush_latency)
        while self.dirty_cache_pages:
            waiter = self.engine.event()
            self._empty_waiters.append(waiter)
            yield waiter
        return None

    def fsync(self) -> Iterator[Event]:
        """Process: what a host fsync() costs — FLUSH plus filesystem overhead."""
        yield self.engine.timeout(self.profile.fs_sync_overhead)
        yield from self.flush()
        return None

    def drain(self) -> Iterator[Event]:
        """Process: wait until the write cache is fully destaged (test helper)."""
        while self.dirty_cache_pages:
            waiter = self.engine.event()
            self._empty_waiters.append(waiter)
            yield waiter
        return None

    def trim(self, lpn: int, npages: int) -> None:
        """Discard pages: drop cached copies and unmap in the FTL.  Costs
        O(pages cached or mapped): a never-written range is free."""
        self._check_range(lpn, npages)
        end = lpn + npages
        for page in keys_in_range(self._dirty, lpn, end):
            del self._dirty[page]
        # An in-flight destage would re-materialize the mapping; remember
        # to unmap again once it lands.
        self._trimmed_during_destage.update(
            keys_in_range(self._destaging, lpn, end))
        self.ftl.trim(lpn, npages)

    def smart(self) -> dict:
        """SMART-style health report: wear, spare pool, media activity.

        ``percentage_used`` follows the NVMe health-log convention: mean
        erase count over the medium's rated endurance.
        """
        wear = self.flash.wear_summary()
        endurance = self.profile.nand_timing.endurance_cycles
        return {
            "percentage_used": round(100 * wear["mean"] / endurance, 3),
            "max_erase_count": int(wear["max"]),
            "min_erase_count": int(wear["min"]),
            "free_blocks": self.ftl.total_free_blocks,
            "data_units_written": self.stats.bytes_written // 512,
            "data_units_read": self.stats.bytes_read // 512,
            "media_page_programs": self.flash.stats.page_programs,
            "read_retries": self.flash.stats.read_retries,
            "waf": round(self.ftl.stats.waf, 4),
            "background_gc_runs": self.ftl.stats.background_gc_runs,
            "power_loss_protected": self.profile.plp_cache,
        }

    # -- internal-datapath hooks (used by the 2B BA-buffer manager) -------------

    def cached_page(self, lpn: int) -> Optional[bytes]:
        """Latest write-cache copy of a page, if any (dirty or destaging)."""
        cached = self._dirty.get(lpn)
        if cached is None:
            cached = self._destaging.get(lpn)
        return cached

    def supersede_page(self, lpn: int) -> None:
        """Drop the dirty-cache copy of a page: newer bytes are arriving via
        the internal datapath (BA_FLUSH)."""
        self._dirty.pop(lpn, None)

    def wait_destage(self, lpn: int) -> Iterator[Event]:
        """Process: wait until no destage of ``lpn`` is in flight."""
        while lpn in self._destaging:
            waiter = self.engine.event()
            self._drain_waiters.append(waiter)
            yield waiter
        return None

    # -- crash behaviour -------------------------------------------------------

    def power_loss(self) -> None:
        """Power failure.  PLP caches survive (capacitors destage them);
        without PLP all dirty cached pages are lost."""
        if not self.profile.plp_cache:
            self._dirty.clear()
            self._destaging.clear()

    def halt(self) -> None:
        """Firmware stops (power is gone): take back in-flight destages.

        Runs *before* ``engine.purge()`` cancels the destage workers:
        their pages fall back into the dirty set (with PLP their bytes
        are still in cache and will be written again), so the workers'
        cleanup finds nothing left to undo.
        """
        for lpn, page in self._destaging.items():
            self._dirty.setdefault(lpn, page)
        self._destaging.clear()
        self._trimmed_during_destage.clear()
        self._redo_after_destage.clear()

    def reboot(self) -> None:
        """Restart controller firmware after a crash.

        Call after :meth:`halt` + ``engine.purge()``: the destage workers
        died with the purge, so respawn them and re-queue every page
        still in the (power-protected) cache.
        """
        self.halt()  # idempotent: a no-op when the harness fenced first
        self.flash.reboot()
        self.ftl.reboot()
        self._drain_waiters.clear()
        self._empty_waiters.clear()
        self._cmd_slots = Resource(self.engine, self.profile.queue_parallelism)
        self._destage_queue = Store(self.engine)
        # The pre-crash batch's die workers died with the purge (their
        # pending die claims point at the replaced resources).
        self._destage_batch = self.flash.program_batch()
        for lpn in self._dirty:
            self._destage_queue.put(lpn)
        for _ in range(self.profile.destage_workers):
            self.engine.process(self._destage_worker(),
                                name=f"{self.profile.name}-destager")

    def persisted_page(self, lpn: int) -> bytes:
        """Post-crash contents of a page: cache (if PLP) else NAND."""
        if self.profile.plp_cache:
            cached = self._dirty.get(lpn)
            if cached is None:
                cached = self._destaging.get(lpn)
            if cached is not None:
                return cached
        return self.ftl.peek(lpn)

    # -- internals -----------------------------------------------------------------

    def _jittered(self, latency: float) -> float:
        jitter = self.profile.latency_jitter
        if jitter <= 0:
            return latency
        return latency * (1.0 + self._latency_rng.uniform(-jitter, jitter))

    def _page_count(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        return -(-nbytes // self.page_size)

    def _check_range(self, lpn: int, npages: int) -> None:
        if lpn < 0 or lpn + npages > self.ftl.logical_pages:
            raise ValueError(
                f"pages [{lpn}, +{npages}) outside device of {self.ftl.logical_pages} pages"
            )

    def _cache_insert(self, lpn: int, page: bytes) -> None:
        if lpn not in self._dirty:
            self._destage_queue.put(lpn)
        self._dirty[lpn] = page

    def _destage_write(self, lpn: int, page: bytes) -> Event:
        """Issue one destage write; returns the event that fires when the
        page is in.  The page streams into the shared NAND program batch
        (no per-page process); one that stalls on foreground GC stalls
        only this worker (:meth:`~repro.ftl.pagemap.PageMapFTL.write_submit`).
        """
        completion = self.engine.event()
        self.ftl.write_submit(lpn, page, self._destage_batch,
                              on_done=completion._succeed_processed)
        return completion

    def _destage_worker(self) -> Iterator[Event]:
        while True:
            got = self._destage_queue.get()
            lpn = got._value if got._processed else (yield got)
            if lpn in self._destaging:
                # An older version of this page is mid-destage on another
                # worker; writing now could land out of order and resurrect
                # stale bytes.  Retry once the in-flight write completes.
                self._redo_after_destage.add(lpn)
                continue
            page = self._dirty.pop(lpn, None)
            if page is None:
                continue  # superseded before we got to it
            self._destaging[lpn] = page
            try:
                yield self._destage_write(lpn, page)
            finally:
                self._destaging.pop(lpn, None)
                if lpn in self._trimmed_during_destage:
                    self._trimmed_during_destage.discard(lpn)
                    self.ftl.trim(lpn)
                if lpn in self._redo_after_destage:
                    self._redo_after_destage.discard(lpn)
                    if lpn in self._dirty:
                        self._destage_queue.put(lpn)
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                waiter.succeed()
            if not self.dirty_cache_pages:
                empty, self._empty_waiters = self._empty_waiters, []
                for waiter in empty:
                    waiter.succeed()
