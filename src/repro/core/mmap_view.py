"""mmap'ed views of the BA-buffer (§II-B's access mechanism).

Applications reach the BA-buffer by ``mmap()``-ing the BAR1 window into
their address space and issuing plain loads/stores (Fig. 4, right path).
:class:`MmapView` models that: a base *virtual address* chosen at map
time, translated virtual -> BAR1 -> (ATU) -> BA-buffer offset on every
access, with the same bounds enforcement the hardware window provides.

This is sugar over :class:`~repro.core.api.TwoBApiClient` — the WAL and
engines use entry-relative offsets directly — but it is the shape real
application code against 2B-SSD would take.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.api import TwoBApiClient
from repro.core.mapping_table import BaMappingEntry
from repro.pcie.bar import BarAccessError
from repro.sim.engine import Event

# Where mmap places BAR1 in the process's virtual address space.
DEFAULT_VIRTUAL_BASE = 0x7F00_0000_0000


class MmapView:
    """One process's mapped window onto a pinned BA-buffer entry."""

    def __init__(self, api: TwoBApiClient, entry: BaMappingEntry,
                 virtual_base: int = DEFAULT_VIRTUAL_BASE) -> None:
        self.api = api
        self.entry = entry
        self.virtual_base = virtual_base
        bar = api.device.bar1
        # The virtual mapping covers exactly this entry's window of BAR1.
        self._bar_base = bar.host_base + entry.offset

    @property
    def length(self) -> int:
        return self.entry.length

    def _translate(self, virtual_address: int, nbytes: int) -> int:
        """virtual address -> BAR1 host address -> entry-relative offset."""
        offset = virtual_address - self.virtual_base
        if offset < 0 or offset + nbytes > self.entry.length:
            raise BarAccessError(
                f"access [{virtual_address:#x}, +{nbytes}) outside mapping of "
                f"{self.entry.length} bytes at {self.virtual_base:#x}"
            )
        host_address = self._bar_base + offset
        # The ATU validates the BAR window and yields the device offset.
        device_offset = self.api.device.bar1.translate(host_address, nbytes)
        return device_offset - self.entry.offset

    def store(self, virtual_address: int, data: bytes) -> Iterator[Event]:
        """Process: memcpy into the mapping (WC-buffered, not yet durable)."""
        rel = self._translate(virtual_address, len(data))
        yield from self.api.mmio_write(self.entry, rel, data)
        return None

    def load(self, virtual_address: int, nbytes: int) -> Iterator[Event]:
        """Process: memcpy out of the mapping (uncacheable, split reads)."""
        rel = self._translate(virtual_address, nbytes)
        data = yield from self.api.mmio_read(self.entry, rel, nbytes)
        return data

    def msync(self) -> Iterator[Event]:
        """Process: make prior stores durable (BA_SYNC under the hood)."""
        yield from self.api.ba_sync(self.entry.entry_id)
        return None
