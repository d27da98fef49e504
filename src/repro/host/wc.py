"""The CPU write-combining buffer.

Stores to a WC-mapped BAR window do not go to the device immediately: they
are staged in a small set of 64-byte line buffers and reach the PCIe link
only when a line is evicted (buffer overflow) or explicitly flushed with
``clflush`` + ``mfence`` (§III-B).  Until then the bytes exist *only* in
the CPU — a power failure loses them.  This class models that staging
functionally: un-flushed spans really are absent from device memory, and
``power_loss()`` really discards them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Union

from repro.host.memory import ByteRegion
from repro.pcie.link import PcieLink, PostedTlp


@dataclass
class _Line:
    """Staged contents of one WC line: data plus a dirty-byte mask."""

    data: bytearray
    mask: bytearray

    def spans(self) -> list[tuple[int, bytes]]:
        """Contiguous dirty spans as ``(offset_in_line, bytes)`` pairs.

        Scans the mask with C-level ``find`` instead of per-byte Python
        iteration; a fully dirty line (the common case for streaming
        MMIO writes) short-circuits to a single span.
        """
        mask = self.mask
        if 0 not in mask:
            return [(0, bytes(self.data))]
        result: list[tuple[int, bytes]] = []
        data = self.data
        start = mask.find(1)
        while start != -1:
            end = mask.find(0, start + 1)
            if end == -1:
                result.append((start, bytes(data[start:])))
                break
            result.append((start, bytes(data[start:end])))
            start = mask.find(1, end + 1)
        return result


@dataclass
class WcStats:
    lines_staged: int = 0
    lines_evicted: int = 0
    lines_flushed: int = 0
    lines_lost_to_power_failure: int = 0
    spans: dict = field(default_factory=dict)


class WriteCombiningBuffer:
    """A FIFO pool of WC lines targeting one or more MMIO regions."""

    def __init__(self, link: PcieLink, max_lines: int) -> None:
        if max_lines < 1:
            raise ValueError(f"max_lines must be >= 1, got {max_lines}")
        self.link = link
        self.line_size = link.params.wc_line_bytes
        self.max_lines = max_lines
        # key: (region, line_index) -> staged line, in staging (FIFO) order.
        # A line stored whole is kept as its immutable ``bytes``; only a
        # partially written line needs the masked :class:`_Line` form.
        self._lines: OrderedDict[tuple[ByteRegion, int], Union[bytes, _Line]] = OrderedDict()
        self.stats = WcStats()

    def __len__(self) -> int:
        return len(self._lines)

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
        lines = self._lines
        burst: list[PostedTlp] = []
        touched = 0
        staged = 0
        evicted = 0
        position = 0
        end = len(data)
        while position < end:
            line_index, within = divmod(offset + position, line_size)
            run = (end - position) // line_size
            if within == 0 and run > 1 and self._is_fresh(region, line_index, run):
                # A run of whole lines none of which is staged: what the
                # per-line walk below would do, in closed form.  It evicts
                # max(0, staged + run - max_lines) lines, oldest first,
                # and once the pool holds only this run those are the
                # run's own head — which goes to the link as one entry.
                evict = max(0, len(lines) + run - max_lines)
                head = max(0, evict - len(lines))
                for _ in range(evict - head):
                    self._post_line(burst, *lines.popitem(last=False))
                cut = position + head * line_size
                if head:
                    burst.append((line_size, region, line_index * line_size,
                                  data[position:cut]))
                for index in range(line_index + head, line_index + run):
                    lines[(region, index)] = data[cut:cut + line_size]
                    cut += line_size
                staged += run
                evicted += evict
                touched += run
                position = cut
                continue
            chunk = min(end - position, line_size - within)
            key = (region, line_index)
            piece = data[position:position + chunk]
            line = lines.get(key)
            if line is None:
                while len(lines) >= max_lines:
                    self._post_line(burst, *lines.popitem(last=False))
                    evicted += 1
                staged += 1
            if chunk == line_size:
                # A whole line; (re)assignment keeps the key's FIFO position.
                lines[key] = piece
            else:
                if line is None:
                    line = lines[key] = _Line(bytearray(line_size), bytearray(line_size))
                elif type(line) is bytes:
                    line = lines[key] = _Line(bytearray(line), bytearray(b"\x01" * line_size))
                line.data[within:within + chunk] = piece
                line.mask[within:within + chunk] = b"\x01" * chunk
            touched += 1
            position += chunk
        self.stats.lines_staged += staged
        self.stats.lines_evicted += evicted
        if burst:
            self.link.posted_burst(burst)
        return touched, evicted

    def _is_fresh(self, region: ByteRegion, first: int, count: int) -> bool:
        """True when none of ``count`` lines from ``first`` is staged."""
        last = first + count - 1
        for staged_region, index in self._lines:
            if staged_region is region and first <= index <= last:
                return False
        return True

    def _post_line(self, burst: list[PostedTlp], key: tuple[ByteRegion, int],
                   line: Union[bytes, _Line]) -> None:
        """Append the TLPs carrying ``line`` (one per dirty span) to ``burst``."""
        region, line_index = key
        base = line_index * self.line_size
        if type(line) is bytes:
            burst.append((len(line), region, base, line))
        else:
            for within, payload in line.spans():
                burst.append((len(payload), region, base + within, payload))

    # -- flushing ---------------------------------------------------------------

    def flush(self, region: ByteRegion | None = None,
              offset: int = 0, nbytes: int | None = None) -> int:
        """clflush semantics: post all (or matching) staged lines; returns count."""
        if region is None:
            selected = list(self._lines)
        else:
            if nbytes is None:
                selected = [key for key in self._lines if key[0] is region]
            else:
                first = offset // self.line_size
                last = (offset + max(nbytes, 1) - 1) // self.line_size
                selected = [
                    key for key in self._lines
                    if key[0] is region and first <= key[1] <= last
                ]
        burst: list[PostedTlp] = []
        for key in selected:
            self._post_line(burst, key, self._lines.pop(key))
        if burst:
            self.link.posted_burst(burst)
        self.stats.lines_flushed += len(selected)
        return len(selected)

    def dirty_lines(self, region: ByteRegion | None = None) -> int:
        if region is None:
            return len(self._lines)
        return sum(1 for key in self._lines if key[0] is region)

    def dirty_lines_in_range(self, region: ByteRegion, offset: int,
                             nbytes: int) -> int:
        """Staged lines overlapping ``region[offset:offset+nbytes)`` (the
        sanitizer's durability probe: these bytes are not yet on the wire)."""
        if nbytes <= 0:
            return 0
        first = offset // self.line_size
        last = (offset + nbytes - 1) // self.line_size
        return sum(
            1 for key in self._lines
            if key[0] is region and first <= key[1] <= last
        )

    # -- failure -------------------------------------------------------------------

    def power_loss(self) -> int:
        """Drop every staged line (the data never reached the device)."""
        lost = len(self._lines)
        self._lines.clear()
        self.stats.lines_lost_to_power_failure += lost
        return lost
