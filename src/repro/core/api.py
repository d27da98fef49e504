"""Host-side 2B-SSD API (§III-C).

``BA_PIN``, ``BA_FLUSH`` and ``BA_READ_DMA`` pass through ioctl + NVMe
vendor-unique commands (the left path of Fig. 4) and carry that fixed
cost.  ``BA_SYNC`` is pure CPU work — clflush + mfence over the entry's
written lines followed by the write-verify read (Fig. 3) — and
``BA_GET_ENTRY_INFO`` is served from the driver's cached table copy.

MMIO access to the BA-buffer goes through :class:`~repro.host.cpu.HostCPU`
exactly as an mmap'ed BAR1 window would: stores stage in the CPU WC buffer
and are *not durable* until ``BA_SYNC`` returns.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis import sanitizer as simsan
from repro.core.device import TwoBSSD
from repro.core.mapping_table import BaMappingEntry
from repro.host.cpu import HostCPU
from repro.host.memory import ByteRegion
from repro.obs import tracing
from repro.sim import Engine
from repro.sim.engine import Event


class TwoBApiClient:
    """One application's handle on the 2B-SSD byte path."""

    def __init__(self, engine: Engine, cpu: HostCPU, device: TwoBSSD) -> None:
        self.engine = engine
        self.cpu = cpu
        self.device = device
        # The mmap'ed BAR1 view: CPU stores land (via ATU) in this region.
        self.region = device.ba_dram
        self._lines_since_sync: dict[int, int] = {}

    @property
    def params(self):
        return self.device.ba_params

    # -- control APIs (ioctl path) ---------------------------------------------

    def ba_pin(self, entry_id: int, offset: int, lba: int, length: int) -> Iterator[Event]:
        """Process: BA_PIN(EID, offset, LBA, length) — load + pin + map."""
        with tracing.span("core.api.ba_pin", self.engine):
            yield self.engine.timeout(self.params.ioctl_latency)
            entry = yield from self.device.ba_manager.pin(entry_id, offset, lba, length)
        self._lines_since_sync.setdefault(entry_id, 0)
        return entry

    def ba_flush(self, entry_id: int) -> Iterator[Event]:
        """Process: BA_FLUSH(EID) — write buffer contents to NAND, unmap.

        Stores still staged in the CPU WC buffer are drained first
        (clflush + write-verify read, the BA_SYNC steps), so a flush
        without a preceding sync publishes what the application last
        stored instead of a torn page.  Callers that already synced have
        no staged lines in the entry's window and skip the drain — no
        extra simulated events on that path.
        """
        with tracing.span("core.api.ba_flush", self.engine):
            info = self.device.ba_manager.get_entry_info(entry_id)
            if self.cpu.wc.dirty_lines_in_range(self.region, info.offset, info.length):
                lines = yield from self.cpu.wc_flush(self.region, info.offset, info.length)
                yield from self.cpu.write_verify_read(lines)
            yield self.engine.timeout(self.params.ioctl_latency)
            entry = yield from self.device.ba_manager.flush(entry_id)
        self._lines_since_sync.pop(entry_id, None)
        return entry

    def ba_get_entry_info(self, entry_id: int) -> Iterator[Event]:
        """Process: BA_GET_ENTRY_INFO(EID) — mapping details for one entry."""
        if tracing.enabled:
            _t0 = self.engine.now
        yield self.engine.timeout(self.params.entry_info_latency)
        if tracing.enabled:
            tracing.observe("core.api.ba_get_entry_info", self.engine.now - _t0)
        return self.device.ba_manager.get_entry_info(entry_id)

    def ba_read_dma(self, entry_id: int, dst: ByteRegion, dst_offset: int,
                    length: int) -> Iterator[Event]:
        """Process: BA_READ_DMA(EID, dst, length) — engine-assisted bulk read,
        completed by a device interrupt."""
        with tracing.span("core.api.ba_read_dma", self.engine):
            yield self.engine.timeout(self.params.ioctl_latency)
            entry = self.device.ba_manager.get_entry_info(entry_id)
            copied = yield from self.device.read_dma.copy(entry, dst, dst_offset, length)
            yield self.engine.timeout(self.params.interrupt_latency)
        return copied

    def trim(self, lpn: int, npages: int) -> Iterator[Event]:
        """Process: discard a logical page range (block-path TRIM/deallocate).

        Log management trims recycled segments before re-pinning them so
        the pin takes the no-data fast path.
        """
        yield self.engine.timeout(self.params.ioctl_latency)
        self.device.trim(lpn, npages)
        return None

    # -- durability (CPU instruction path) ----------------------------------------

    def ba_sync(self, entry_id: int) -> Iterator[Event]:
        """Process: BA_SYNC(EID) — make the entry's buffer contents durable.

        Three sub-steps per §III-C: look up the entry (driver-cached),
        clflush+mfence its written lines, then the write-verify read.
        """
        if tracing.enabled:
            _t0 = self.engine.now
        entry = yield from self.ba_get_entry_info(entry_id)
        scope = (simsan.sync_begin(entry_id, self.region, entry.offset,
                                   entry.length)
                 if simsan.enabled else None)
        try:
            yield from self.cpu.wc_flush(self.region, entry.offset, entry.length)
            lines = self._lines_since_sync.get(entry_id, 0)
            yield from self.cpu.write_verify_read(lines)
        finally:
            if scope is not None:
                simsan.sync_end(scope)
        if tracing.enabled:
            tracing.observe("core.api.ba_sync", self.engine.now - _t0)
        self._lines_since_sync[entry_id] = 0
        return entry

    # -- mmap'ed MMIO access --------------------------------------------------------

    def mmio_write(self, entry: BaMappingEntry, rel_offset: int,
                   data: bytes) -> Iterator[Event]:
        """Process: store ``data`` at ``rel_offset`` within the pinned entry.

        Staged in the CPU WC buffer; durable only after :meth:`ba_sync`.
        """
        if rel_offset < 0 or rel_offset + len(data) > entry.length:
            raise ValueError(
                f"write [{rel_offset}, +{len(data)}) outside entry "
                f"{entry.entry_id} of {entry.length} bytes"
            )
        lines = yield from self.cpu.wc_store(self.region, entry.offset + rel_offset, data)
        self._lines_since_sync[entry.entry_id] = (
            self._lines_since_sync.get(entry.entry_id, 0) + lines
        )
        return lines

    def mmio_read(self, entry: BaMappingEntry, rel_offset: int,
                  nbytes: int) -> Iterator[Event]:
        """Process: uncacheable MMIO read from the pinned entry (slow for
        bulk data — prefer :meth:`ba_read_dma` beyond ~2 KiB, §III-A3)."""
        if rel_offset < 0 or rel_offset + nbytes > entry.length:
            raise ValueError(
                f"read [{rel_offset}, +{nbytes}) outside entry "
                f"{entry.entry_id} of {entry.length} bytes"
            )
        data = yield from self.cpu.mmio_read(self.region, entry.offset + rel_offset, nbytes)
        return data
