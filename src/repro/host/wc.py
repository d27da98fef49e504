"""The CPU write-combining buffer.

Stores to a WC-mapped BAR window do not go to the device immediately: they
are staged in a small set of 64-byte line buffers and reach the PCIe link
only when a line is evicted (buffer overflow) or explicitly flushed with
``clflush`` + ``mfence`` (§III-B).  Until then the bytes exist *only* in
the CPU — a power failure loses them.  This class models that staging
functionally: un-flushed spans really are absent from device memory, and
``power_loss()`` really discards them.

The buffer is a FIFO of lines, but what it keeps is *extents*: lines that
are consecutive in the region and adjacent in staging order share one
record, so a streamed record is staged, evicted, flushed and posted as a
few runs rather than line by line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Union

from repro.host.memory import ByteRegion
from repro.pcie.link import PcieLink, PostedTlp


class _Extent:
    """Staged lines ``first .. first+count-1`` of ``region``, oldest first.

    With ``mask is None`` these are whole lines held as one ``bytes``.
    Otherwise it is one partially written line: ``data`` and the
    dirty-byte ``mask`` are line-sized bytearrays.
    """

    __slots__ = ("region", "first", "count", "data", "mask")

    def __init__(self, region: ByteRegion, first: int, count: int,
                 data: Union[bytes, bytearray],
                 mask: Optional[bytearray] = None) -> None:
        self.region = region
        self.first = first
        self.count = count
        self.data = data
        self.mask = mask

    def cut(self, lines: int, line_size: int) -> "_Extent":
        """Split the oldest ``lines`` whole lines off as their own extent."""
        nbytes = lines * line_size
        head = _Extent(self.region, self.first, lines, self.data[:nbytes])
        self.first += lines
        self.count -= lines
        self.data = self.data[nbytes:]
        return head

    def post(self, burst: list[PostedTlp], line_size: int) -> None:
        """Append the TLPs carrying this extent to ``burst``: one run entry
        of line-sized TLPs, or one TLP per contiguous dirty span."""
        base = self.first * line_size
        mask = self.mask
        if mask is None or 0 not in mask:
            burst.append((line_size, self.region, base, bytes(self.data)))
            return
        data = self.data
        start = mask.find(1)
        while start != -1:
            end = mask.find(0, start + 1)
            if end == -1:
                end = line_size
            burst.append((end - start, self.region, base + start,
                          bytes(data[start:end])))
            start = mask.find(1, end)


@dataclass
class WcStats:
    lines_staged: int = 0
    lines_evicted: int = 0
    lines_flushed: int = 0
    lines_lost_to_power_failure: int = 0


class WriteCombiningBuffer:
    """A FIFO pool of WC lines targeting one or more MMIO regions."""

    def __init__(self, link: PcieLink, max_lines: int) -> None:
        if max_lines < 1:
            raise ValueError(f"max_lines must be >= 1, got {max_lines}")
        self.link = link
        self.line_size = link.params.wc_line_bytes
        self.max_lines = max_lines
        # Staged lines in staging (FIFO) order, grouped into extents; a
        # line keeps its place when it is stored to again.
        self._extents: list[_Extent] = []
        self._staged = 0  # lines held, over all extents
        self.stats = WcStats()

    def __len__(self) -> int:
        return self._staged

    # -- staging --------------------------------------------------------------

    def store(self, region: ByteRegion, offset: int, data: bytes) -> tuple[int, int]:
        """Stage ``data`` at ``region[offset:]``; returns ``(touched, evicted)``.

        Overflowing the line pool evicts the oldest line to the link; the
        issuing store stalls briefly while the line drains (the caller
        charges :attr:`HostParams.wc_evict_stall` per eviction), and the
        evicted bytes are lost if power fails before they land.  All the
        lines one store evicts go to the link as one burst.
        """
        if not data:
            return 0, 0
        region._check(offset, len(data))
        if type(data) is not bytes:
            data = bytes(data)
        line_size = self.line_size
        max_lines = self.max_lines
        burst: list[PostedTlp] = []
        touched = 0
        staged = 0
        evicted = 0
        position = 0
        end = len(data)
        while position < end:
            line_index, within = divmod(offset + position, line_size)
            run = (end - position) // line_size
            if within == 0 and run > 1 and self._find(region, line_index, run) is None:
                # A run of whole lines none of which is staged: what the
                # per-line walk below would do, in closed form.  It evicts
                # max(0, held + run - max_lines) lines, oldest first, and
                # once the pool holds only this run those are the run's
                # own head — which goes to the link as one entry; the
                # kept tail is staged as one slice.
                held = self._staged
                evict = max(0, held + run - max_lines)
                head = max(0, evict - held)
                self._evict(evict - head, burst)
                cut = position + head * line_size
                if head:
                    burst.append((line_size, region, line_index * line_size,
                                  data[position:cut]))
                position += run * line_size
                self._stage_whole(region, line_index + head, run - head,
                                  data[cut:position])
                staged += run
                evicted += evict
                touched += run
                continue
            chunk = min(end - position, line_size - within)
            piece = data[position:position + chunk]
            extent = self._find(region, line_index, 1)
            if extent is None:
                if self._staged >= max_lines:
                    self._evict(1, burst)
                    evicted += 1
                staged += 1
                if chunk < line_size:
                    extent = _Extent(region, line_index, 1,
                                     bytearray(line_size), bytearray(line_size))
                    self._extents.append(extent)
                    self._staged += 1
            if extent is None:
                self._stage_whole(region, line_index, 1, piece)
            elif extent.mask is None:
                # Every byte of a whole line is dirty already: a store into
                # it, partial or whole, only replaces bytes of the run.
                at = (line_index - extent.first) * line_size + within
                extent.data = extent.data[:at] + piece + extent.data[at + chunk:]
            elif chunk == line_size:
                extent.data, extent.mask = piece, None
            else:
                extent.data[within:within + chunk] = piece
                extent.mask[within:within + chunk] = b"\x01" * chunk
            touched += 1
            position += chunk
        self.stats.lines_staged += staged
        self.stats.lines_evicted += evicted
        if burst:
            self.link.posted_burst(burst)
        return touched, evicted

    def _find(self, region: ByteRegion, first: int, count: int) -> Optional[_Extent]:
        """The oldest extent holding any of ``count`` lines from ``first``."""
        end = first + count
        for extent in self._extents:
            if (extent.region is region and extent.first < end
                    and first < extent.first + extent.count):
                return extent
        return None

    def _stage_whole(self, region: ByteRegion, first: int, count: int,
                     data: bytes) -> None:
        """Stage ``count`` fresh whole lines at the young end of the FIFO."""
        self._staged += count
        extents = self._extents
        if extents:
            tail = extents[-1]
            if (tail.mask is None and tail.region is region
                    and tail.first + tail.count == first):
                tail.data += data
                tail.count += count
                return
        extents.append(_Extent(region, first, count, data))

    def _evict(self, lines: int, burst: list[PostedTlp]) -> None:
        """Pop the ``lines`` oldest lines onto ``burst``, a run per extent."""
        extents = self._extents
        line_size = self.line_size
        self._staged -= lines
        while lines:
            extent = extents[0]
            if extent.count <= lines:
                del extents[0]
            else:
                extent = extent.cut(lines, line_size)
            lines -= extent.count
            extent.post(burst, line_size)

    # -- flushing ---------------------------------------------------------------

    def flush(self, region: ByteRegion | None = None,
              offset: int = 0, nbytes: int | None = None) -> int:
        """clflush semantics: post all (or matching) staged lines; returns count.

        A range that ends inside an extent splits it; what is not flushed
        keeps its place in the FIFO.
        """
        line_size = self.line_size
        if region is None or nbytes is None:
            first, last = 0, sys.maxsize
        else:
            first = offset // line_size
            last = (offset + max(nbytes, 1) - 1) // line_size
        burst: list[PostedTlp] = []
        kept: list[_Extent] = []
        flushed = 0
        for extent in self._extents:
            if region is not None and (extent.region is not region
                                       or extent.first > last
                                       or extent.first + extent.count <= first):
                kept.append(extent)
                continue
            if extent.first < first:
                kept.append(extent.cut(first - extent.first, line_size))
            if extent.first + extent.count - 1 > last:
                selected = extent.cut(last + 1 - extent.first, line_size)
                kept.append(extent)
                extent = selected
            flushed += extent.count
            extent.post(burst, line_size)
        self._extents = kept
        self._staged -= flushed
        if burst:
            self.link.posted_burst(burst)
        self.stats.lines_flushed += flushed
        return flushed

    def dirty_lines(self, region: ByteRegion | None = None) -> int:
        if region is None:
            return self._staged
        return sum(extent.count for extent in self._extents
                   if extent.region is region)

    def dirty_lines_in_range(self, region: ByteRegion, offset: int,
                             nbytes: int) -> int:
        """Staged lines overlapping ``region[offset:offset+nbytes)`` (the
        sanitizer's durability probe: these bytes are not yet on the wire)."""
        if nbytes <= 0:
            return 0
        first = offset // self.line_size
        last = (offset + nbytes - 1) // self.line_size
        return sum(
            max(0, min(extent.first + extent.count - 1, last)
                - max(extent.first, first) + 1)
            for extent in self._extents if extent.region is region
        )

    # -- failure -------------------------------------------------------------------

    def power_loss(self) -> int:
        """Drop every staged line (the data never reached the device)."""
        lost = self._staged
        self._extents.clear()
        self._staged = 0
        self.stats.lines_lost_to_power_failure += lost
        return lost
