"""Host CPU: the store/flush/read instruction path to MMIO and PM.

All methods that take simulated time are processes (generators to run via
``engine.process``).  Costs come from :class:`~repro.host.params.HostParams`;
data movement is functional through the write-combining buffer and the
PCIe link, so durability tests observe real byte movement.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from repro.analysis import sanitizer as simsan
from repro.host.memory import ByteRegion, PersistentMemoryRegion
from repro.host.params import HostParams
from repro.host.wc import WriteCombiningBuffer
from repro.obs import tracing
from repro.pcie.link import PcieLink
from repro.sim import Engine
from repro.sim.engine import Event


class HostCPU:
    """One host CPU core's view of the byte-addressable datapath."""

    def __init__(
        self,
        engine: Engine,
        link: PcieLink,
        params: Optional[HostParams] = None,
    ) -> None:
        self.engine = engine
        self.link = link
        self.params = params or HostParams()
        self.wc = WriteCombiningBuffer(link, self.params.wc_buffer_lines)

    # -- helpers ------------------------------------------------------------

    def _lines_for(self, offset: int, nbytes: int) -> int:
        if nbytes == 0:
            return 0
        line = self.link.params.wc_line_bytes
        first = offset // line
        last = (offset + nbytes - 1) // line
        return last - first + 1

    # -- MMIO write path ------------------------------------------------------

    def wc_store(self, region: ByteRegion, offset: int, data: bytes) -> Iterator[Event]:
        """Process: stage stores into the WC buffer (no flush — not yet durable)."""
        # Hottest path in the simulator: guard with the bare flag rather
        # than a span object so disabled-mode cost is one bool check.
        if tracing.enabled:
            _t0 = self.engine.now
        lines, evicted = self.wc.store(region, offset, data)
        cost = (lines * self.params.wc_store_per_line
                + evicted * self.params.wc_evict_stall)
        if cost:
            yield self.engine.timeout(cost)
        if tracing.enabled:
            tracing.observe("host.cpu.wc_store", self.engine.now - _t0)
        return lines

    def wc_flush(self, region: ByteRegion, offset: int = 0,
                 nbytes: int | None = None) -> Iterator[Event]:
        """Process: ``clflush`` the staged lines of a range, then ``mfence``."""
        if tracing.enabled:
            _t0 = self.engine.now
        flushed = self.wc.flush(region, offset, nbytes)
        if simsan.enabled:
            simsan.on_wc_flush(region, offset, nbytes)
        yield self.engine.timeout(
            flushed * self.params.clflush_per_line + self.params.mfence
        )
        if tracing.enabled:
            tracing.observe("host.cpu.wc_flush", self.engine.now - _t0)
        return flushed

    def mmio_write(self, region: ByteRegion, offset: int, data: bytes) -> Iterator[Event]:
        """Process: store + clflush + mfence — the Fig. 7(b) 'MMIO write' curve.

        After this returns, the bytes are on their way through the root
        complex but are *not yet guaranteed durable*; pair with
        :meth:`write_verify_read` for the persistent variant.
        """
        yield from self.wc_store(region, offset, data)
        yield from self.wc_flush(region, offset, len(data))
        return self._lines_for(offset, len(data))

    def write_verify_read(self, lines: int = 0) -> Iterator[Event]:
        """Process: zero-byte non-posted read — flushes the root complex.

        Completes only after every previously issued posted write has
        landed in device memory (PCIe ordering), making those writes
        durable on a power-protected device.
        """
        if tracing.enabled:
            _t0 = self.engine.now
        if simsan.enabled:
            simsan.on_write_verify_read(self)
        yield from self.link.non_posted_read(0)
        yield self.engine.timeout(self.params.wvr_cost(lines))
        if tracing.enabled:
            tracing.observe("host.cpu.write_verify_read", self.engine.now - _t0)
        return None

    def persistent_mmio_write(self, region: ByteRegion, offset: int,
                              data: bytes) -> Iterator[Event]:
        """Process: MMIO write plus write-verify read — durable on return."""
        lines = yield from self.mmio_write(region, offset, data)
        yield from self.write_verify_read(lines)
        return lines

    # -- MMIO read path -----------------------------------------------------------

    def mmio_read(self, region: ByteRegion, offset: int, nbytes: int) -> Iterator[Event]:
        """Process: uncacheable MMIO read, split into 8-byte TLPs (slow).

        Own staged WC lines covering the range are flushed first so the
        read observes this CPU's writes.
        """
        if tracing.enabled:
            _t0 = self.engine.now
        if self.wc.dirty_lines(region):
            yield from self.wc_flush(region, offset, nbytes)
        yield from self.link.non_posted_read(0)
        if nbytes:
            yield self.engine.timeout(self.link.mmio_read_latency(nbytes))
        if tracing.enabled:
            tracing.observe("host.cpu.mmio_read", self.engine.now - _t0)
        return region.read(offset, nbytes)

    # -- emulated persistent memory (Fig. 10) -----------------------------------------

    def pm_write(self, region: PersistentMemoryRegion, offset: int,
                 data: bytes) -> Iterator[Event]:
        """Process: durable store to DIMM-bus persistent memory."""
        lines = self._lines_for(offset, len(data))
        yield self.engine.timeout(self.params.pm_write_cost(lines))
        region.write(offset, data)
        return lines

    # -- plain memory ------------------------------------------------------------------

    def dram_copy(self, nbytes: int) -> Iterator[Event]:
        """Process: memcpy cost between cacheable DRAM buffers."""
        lines = math.ceil(nbytes / self.link.params.wc_line_bytes)
        yield self.engine.timeout(lines * self.params.dram_copy_per_line)
        return None

    # -- failure ----------------------------------------------------------------------------

    def power_loss(self) -> int:
        """Drop all staged WC lines; returns how many were lost."""
        return self.wc.power_loss()
