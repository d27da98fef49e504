"""The BA-buffer manager (§III-A2): the internal DRAM<->NAND datapath.

The BA-buffer is a reserved region of the SSD-internal DRAM.  Its logic —
mapping-table maintenance and page movement — runs as firmware on an ARM
core inside the device; that core is modeled as a capacity-1 resource whose
per-page service time bounds the internal bandwidth at
``page_size / firmware_per_page`` (~2.27 GB/s), matching the Fig. 8 plateau
("the software firmware that runs on ARM cores is mainly involved in the
internal datapath").  The NAND accesses themselves fan out across dies.
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

        One driver process paces every page through the firmware core and
        streams the media reads into a NAND read batch (one worker per die
        touched) instead of spawning a process per page.  Cache/mapping
        snapshots and firmware-core claims are taken up front — the same
        instant the per-page processes used to take them — so pacing,
        arbitration order, and therefore simulated timing are unchanged.
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
        plans = []
        for index in range(npages):
            lpn = entry.lba + index
            cached = device.cached_page(lpn)
            mapped = cached is not None or device.ftl.map.lookup(lpn) is not None
            plans.append((index, lpn, cached, mapped, self._firmware_core.request()))

        batch = device.flash.read_batch()
        done = 0
        waiter: Event | None = None

        def landed(index: int, data: bytes) -> None:
            nonlocal done, waiter
            self.dram.write(entry.offset + index * page_size, data)
            done += 1
            if waiter is not None and done == npages:
                waiter._succeed_processed()

        try:
            for position, (index, lpn, cached, mapped, core_req) in enumerate(plans):
                yield core_req
                try:
                    # Trimmed/unwritten pages move no data: bookkeeping cost
                    # only (the fast path log recycling depends on).
                    cost = (params.firmware_per_page if mapped
                            else params.firmware_per_unmapped_page)
                    yield engine.timeout(cost)
                finally:
                    self._firmware_core.release(core_req)
                if cached is not None:
                    landed(index, cached)  # already in device DRAM
                else:
                    device.ftl.read_submit(lpn, batch, landed, token=index)
        except BaseException:
            # Cancel the unclaimed firmware-core slots of the pages this
            # driver never got to, so the core is not wedged for others.
            for plan in plans[position + 1:]:
                self._firmware_core.release(plan[4])
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

        Like :meth:`pin`, one driver paces the pages through the firmware
        core and streams the destage writes into a NAND program batch —
        O(dies) process spawns instead of O(pages).  Pages that must stall
        on foreground GC fall back to a per-page FTL write so the stall
        blocks only that page (see
        :meth:`repro.ftl.pagemap.PageMapFTL.write_submit`).
        """
        entry = self.table.get(entry_id)
        engine = self.engine
        device = self.device
        params = self.params
        page_size = params.page_size
        npages = -(-entry.length // page_size)
        core_reqs = [self._firmware_core.request() for _ in range(npages)]

        batch = device.flash.program_batch()
        submitted = 0
        done = 0
        waiter: Event | None = None
        fallbacks: list[Event] = []

        def written(_token) -> None:
            nonlocal done, waiter
            done += 1
            if waiter is not None and done == submitted:
                waiter._succeed_processed()

        try:
            for index in range(npages):
                lpn = entry.lba + index
                core_req = core_reqs[index]
                yield core_req
                try:
                    yield engine.timeout(params.firmware_per_page)
                finally:
                    self._firmware_core.release(core_req)
                # Any write-cache copy of this page predates the pin (the
                # LBA checker gated block writes since); our bytes
                # supersede it.
                device.supersede_page(lpn)
                if lpn in device._destaging:
                    yield from device.wait_destage(lpn)
                data = self.dram.read(entry.offset + index * page_size, page_size)
                fallback = device.ftl.write_submit(lpn, data, batch, on_done=written)
                if fallback is None:
                    submitted += 1
                else:
                    fallbacks.append(fallback)
        except BaseException:
            for core_req in core_reqs[index + 1:]:
                self._firmware_core.release(core_req)
            batch.close()
            raise
        if done < submitted:
            waiter = Event(engine)
            yield waiter
            waiter = None
        yield from batch.drain()
        if fallbacks:
            yield engine.all_of(fallbacks)
        self.table.remove(entry_id)
        if simsan.enabled:
            simsan.check_mapping_table(self.device)
        self.stats.flushes += 1
        self.stats.pages_flushed += npages
        return entry

    # -- BA_GET_ENTRY_INFO ----------------------------------------------------------

    def get_entry_info(self, entry_id: int) -> BaMappingEntry:
        return self.table.get(entry_id)
