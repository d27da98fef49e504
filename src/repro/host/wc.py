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
record holding their contiguous dirty byte range, so a streamed record —
aligned or not — is staged as one extent and evicted, flushed and posted
as a run or two, which the link cuts into TLPs at line boundaries.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Union

from repro.host.memory import ByteRegion
from repro.pcie.link import PcieLink, PostedTlp


class _Extent:
    """Staged lines ``first .. first+count-1`` of ``region``, oldest first.

    With ``mask is None`` these hold one contiguous dirty byte range:
    ``data`` starts ``lo`` bytes into line ``first`` and runs on through
    the lines behind it, so only the first and the last line can be
    partial.  Otherwise it is one line written with a gap: ``data`` and
    the dirty-byte ``mask`` are line-sized bytearrays.
    """

    __slots__ = ("region", "first", "count", "lo", "data", "mask")

    def __init__(self, region: ByteRegion, first: int, count: int, lo: int,
                 data: Union[bytes, bytearray],
                 mask: Optional[bytearray] = None) -> None:
        self.region = region
        self.first = first
        self.count = count
        self.lo = lo
        self.data = data
        self.mask = mask

    def cut(self, lines: int, line_size: int) -> "_Extent":
        """Split the oldest ``lines`` lines off as their own extent."""
        nbytes = lines * line_size - self.lo
        head = _Extent(self.region, self.first, lines, self.lo, self.data[:nbytes])
        self.first += lines
        self.count -= lines
        self.lo = 0
        self.data = self.data[nbytes:]
        return head

    def post(self, burst: list[PostedTlp], line_size: int) -> None:
        """Append the TLPs carrying this extent to ``burst``: the byte
        range as one entry, which the link cuts at line boundaries, or
        one TLP per contiguous dirty span of a gapped line."""
        base = self.first * line_size
        mask = self.mask
        if mask is None:
            burst.append((line_size, self.region, base + self.lo, self.data))
            return
        data = self.data
        start = mask.find(1)
        while start != -1:
            end = mask.find(0, start + 1)
            if end == -1:
                end = line_size
            burst.append((line_size, self.region, base + start,
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
        burst: list[PostedTlp] = []
        first, within = divmod(offset, line_size)
        lines = (within + len(data) - 1) // line_size + 1
        tail = self._tail_ending_at(region, offset)
        # A line the bytes share with the extent they carry on is staged.
        fresh = lines - (1 if tail is not None and within else 0)
        if not fresh or self._find(region, first + lines - fresh, fresh) is None:
            # The bytes continue the youngest extent (a log append) or touch
            # no staged line: one extent either way.  Staging every fresh
            # line and then evicting the overflow pops the same lines, with
            # the same contents and in the same order, as evicting the oldest
            # line before each fresh one: both take them off the old end of
            # one FIFO, and the store writes no line twice.
            if tail is None:
                self._extents.append(_Extent(region, first, lines, within, data))
            else:
                tail.data += data
                tail.count += fresh
            self._staged += fresh
            evicted = max(0, self._staged - self.max_lines)
            if evicted:
                self._evict(evicted, burst)
        else:
            fresh, evicted = self._store_by_line(region, offset, data, burst)
        self.stats.lines_staged += fresh
        self.stats.lines_evicted += evicted
        if burst:
            self.link.posted_burst(burst)
        return lines, evicted

    def _store_by_line(self, region: ByteRegion, offset: int, data: bytes,
                       burst: list[PostedTlp]) -> tuple[int, int]:
        """Stage ``data`` one line at a time: a staged line keeps its place
        and takes the bytes, a fresh one evicts the oldest from a full pool.
        Returns ``(fresh, evicted)``."""
        line_size = self.line_size
        fresh = evicted = position = 0
        while position < len(data):
            start = offset + position
            line_index, within = divmod(start, line_size)
            chunk = min(len(data) - position, line_size - within)
            piece = data[position:position + chunk]
            position += chunk
            extent = self._find(region, line_index, 1)
            if extent is None:
                if self._staged >= self.max_lines:
                    self._evict(1, burst)
                    evicted += 1
                tail = self._tail_ending_at(region, start)
                if tail is None:
                    self._extents.append(_Extent(region, line_index, 1, within, piece))
                else:
                    tail.data += piece
                    tail.count += 1
                self._staged += 1
                fresh += 1
                continue
            if extent.mask is None:
                # Where the piece starts, counted from the dirty range's start.
                at = start - extent.first * line_size - extent.lo
                if -chunk <= at <= len(extent.data):
                    # It touches or overlaps the range (always, on a middle
                    # line): splice it in; only a ragged end can grow.
                    if at < 0:
                        extent.lo = within
                    extent.data = (extent.data[:max(at, 0)] + piece
                                   + extent.data[max(at + chunk, 0):])
                    continue
                extent = self._split_off(extent, line_index)
            if chunk == line_size:
                extent.data, extent.mask = piece, None
            else:
                extent.data[within:within + chunk] = piece
                extent.mask[within:within + chunk] = b"\x01" * chunk
        return fresh, evicted

    def _find(self, region: ByteRegion, first: int, count: int) -> Optional[_Extent]:
        """The oldest extent holding any of ``count`` lines from ``first``."""
        end = first + count
        for extent in self._extents:
            if (extent.region is region and extent.first < end
                    and first < extent.first + extent.count):
                return extent
        return None

    def _tail_ending_at(self, region: ByteRegion, offset: int) -> Optional[_Extent]:
        """The youngest extent, if it is a byte range ending at ``region[offset]``."""
        if self._extents:
            tail = self._extents[-1]
            if (tail.mask is None and tail.region is region and offset
                    == tail.first * self.line_size + tail.lo + len(tail.data)):
                return tail
        return None

    def _split_off(self, extent: _Extent, line_index: int) -> _Extent:
        """Make the ragged end line ``line_index`` of ``extent`` a masked
        extent of its own, in the same FIFO place; returns it."""
        extents, line_size = self._extents, self.line_size
        place = extents.index(extent)
        if line_index > extent.first:
            extents.insert(place, extent.cut(line_index - extent.first, line_size))
            place += 1
        if extent.count > 1:
            extent = extent.cut(1, line_size)
            extents.insert(place, extent)
        span = slice(extent.lo, extent.lo + len(extent.data))
        data, mask = bytearray(line_size), bytearray(line_size)
        data[span], mask[span] = extent.data, b"\x01" * len(extent.data)
        extent.lo, extent.data, extent.mask = 0, data, mask
        return extent

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
