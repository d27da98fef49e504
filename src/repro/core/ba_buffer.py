"""The BA-buffer manager (§III-A2): the internal DRAM<->NAND datapath.

The BA-buffer is a reserved region of the SSD-internal DRAM.  Its logic —
mapping-table maintenance and page movement — runs as firmware on an ARM
core inside the device; that core is modeled as a capacity-1 resource whose
per-page service time bounds the internal bandwidth at
``page_size / firmware_per_page`` (~2.27 GB/s), matching the Fig. 8 plateau
("the software firmware that runs on ARM cores is mainly involved in the
internal datapath").  A pin or flush holds the core from its grant to its
last page.  The NAND accesses themselves fan out across dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.analysis import sanitizer as simsan
from repro.core.errors import PinConflictError
from repro.core.mapping_table import BaMappingEntry, BaMappingTable
from repro.core.params import BaParams
from repro.host.memory import ByteRegion
from repro.sim import Engine, Resource
from repro.sim.engine import Event

if TYPE_CHECKING:
    from repro.ssd.device import BlockSSD


@dataclass
class BaBufferStats:
    pins: int = 0
    flushes: int = 0
    pages_pinned: int = 0
    pages_flushed: int = 0


class BaBufferManager:
    """Firmware logic: pin (NAND -> buffer) and flush (buffer -> NAND)."""

    def __init__(self, engine: Engine, device: "BlockSSD", dram: ByteRegion,
                 params: BaParams, table: BaMappingTable) -> None:
        self.engine = engine
        self.device = device
        self.dram = dram
        self.params = params
        self.table = table
        self._firmware_core = Resource(engine)
        self.stats = BaBufferStats()

    # -- BA_PIN ----------------------------------------------------------------

    def pin(self, entry_id: int, offset: int, lba: int, length: int) -> Iterator[Event]:
        """Process: load NAND pages into the buffer and record the mapping.

        Validation happens before any data movement; a rejected pin has no
        side effects.

        One driver holds one firmware-core claim for the whole job and
        streams the media reads into a NAND read batch (one worker per die
        touched).  Each page's instant is the previous one plus its cost,
        as a chain of per-page timeouts would place it, but the driver
        wakes only where a page has work at its own instant (a read
        submit) and at the last page, where it releases the core.  A run
        of never-written or trimmed pages moves no data (the fast path log
        recycling depends on): one zero-fill at the run's end, no wake-up.
        """
        npages = -(-length // self.params.page_size)
        if lba + npages > self.device.logical_pages:
            raise PinConflictError(
                f"LBA range [{lba}, +{npages}) exceeds device of "
                f"{self.device.logical_pages} pages"
            )
        entry = self.table.add(entry_id, offset, lba, length)
        engine = self.engine
        device = self.device
        params = self.params
        page_size = params.page_size
        # Per page at the call instant (block writes to it are gated from now
        # on): its write-cache bytes, True if on NAND, None if never written.
        sources: list[bytes | bool | None] = []
        for lpn in range(entry.lba, entry.lba + npages):
            source: bytes | bool | None = device.cached_page(lpn)
            if source is None and device.ftl.map.lookup(lpn) is not None:
                source = True
            sources.append(source)

        batch = device.flash.read_batch()
        done = 0
        waiter: Event | None = None

        def landed(index: int, data: bytes) -> None:
            nonlocal done, waiter
            self.dram.write(entry.offset + index * page_size, data)
            done += 1
            if waiter is not None and done == npages:
                waiter._succeed_processed()

        claim = self._firmware_core.request()
        held = True
        try:
            yield claim
            clock = engine.now
            blank = 0   # first page of the never-written run not yet filled
            for index, source in enumerate(sources):
                clock = clock + (params.firmware_per_unmapped_page if source is None
                                 else params.firmware_per_page)
                if source is None and index < npages - 1:
                    continue
                yield engine.timeout_at(clock)
                if index == npages - 1:
                    self._firmware_core.release(claim)
                    held = False
                end = index + 1 if source is None else index
                if blank < end:
                    self.dram.zero(entry.offset + blank * page_size,
                                   (end - blank) * page_size)
                    device.ftl.note_unmapped_reads(end - blank)
                    done += end - blank
                blank = index + 1
                if isinstance(source, bytes):
                    landed(index, source)  # already in device DRAM
                elif source:
                    device.ftl.read_submit(entry.lba + index, batch, landed,
                                           token=index)
        except BaseException:
            # Give the core back, or cancel a claim never granted.
            if held:
                self._firmware_core.release(claim)
            batch.close()
            raise
        if done < npages:
            waiter = Event(engine)
            yield waiter
            waiter = None
        yield from batch.drain()
        if simsan.enabled:
            simsan.check_mapping_table(self.device)
        self.stats.pins += 1
        self.stats.pages_pinned += npages
        return entry

    # -- BA_FLUSH ---------------------------------------------------------------

    def flush(self, entry_id: int) -> Iterator[Event]:
        """Process: write the entry's buffer contents to its NAND pages and
        delete the entry (§III-C: successful BA_FLUSH removes the mapping).

        Like :meth:`pin`, one driver holds one firmware-core claim for the
        job, wakes once per page (every page has work at its own instant)
        and streams the destage writes into a NAND program batch.  A page
        that must stall on foreground GC stalls only itself (see
        :meth:`repro.ftl.pagemap.PageMapFTL.write_submit`).
        """
        entry = self.table.get(entry_id)
        engine = self.engine
        device = self.device
        params = self.params
        page_size = params.page_size
        npages = -(-entry.length // page_size)

        batch = device.flash.program_batch()
        done = 0
        waiter: Event | None = None

        def written(_token) -> None:
            nonlocal done, waiter
            done += 1
            if waiter is not None and done == npages:
                waiter._succeed_processed()

        claim = self._firmware_core.request()
        held = True
        try:
            yield claim
            for index in range(npages):
                yield engine.timeout(params.firmware_per_page)
                if index == npages - 1:
                    self._firmware_core.release(claim)
                    held = False
                lpn = entry.lba + index
                # Any write-cache copy of this page predates the pin (the
                # LBA checker gated block writes since); our bytes
                # supersede it.
                device.supersede_page(lpn)
                if lpn in device._destaging:
                    yield from device.wait_destage(lpn)
                data = self.dram.read(entry.offset + index * page_size, page_size)
                device.ftl.write_submit(lpn, data, batch, on_done=written)
        except BaseException:
            if held:
                self._firmware_core.release(claim)
            batch.close()
            raise
        if done < npages:
            waiter = Event(engine)
            yield waiter
            waiter = None
        yield from batch.drain()
        self.table.remove(entry_id)
        if simsan.enabled:
            simsan.check_mapping_table(self.device)
        self.stats.flushes += 1
        self.stats.pages_flushed += npages
        return entry

    # -- BA_GET_ENTRY_INFO ----------------------------------------------------------

    def get_entry_info(self, entry_id: int) -> BaMappingEntry:
        return self.table.get(entry_id)
