"""Byte-addressable memory regions.

:class:`ByteRegion` is the basic data container: a named byte store used
for host DRAM buffers and for the device-internal DRAM that BAR1 exposes.

:class:`PersistentMemoryRegion` marks a region that survives power loss
(an emulated NVDIMM for the Fig. 10 comparison, or the capacitor-backed
BA-buffer once the recovery manager has saved it).
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING, Optional

from repro.analysis import sanitizer as simsan

if TYPE_CHECKING:  # import cycle: pcie.link is imported by repro.host
    from repro.pcie.link import PcieLink

_OS_PAGE = mmap.PAGESIZE
_ZERO_PAGE = bytes(_OS_PAGE)


class ByteRegion:
    """A named, bounds-checked byte store.

    The backing store is a private anonymous mapping, created on the
    first write: large regions (the 8 MiB BA DRAM, multi-MiB host
    buffers) are routinely constructed and never — or only sparsely —
    touched.  The OS backs a page only once it is written, so host
    memory follows the bytes the model wrote, not the region's size, and
    an untouched page reads as zeros.  :meth:`zero` hands whole pages
    back.  The mapping is ``MAP_PRIVATE``: a forked worker's writes stay
    in the worker.

    A region behind a BAR takes posted writes that land some time after
    they are issued; the link that carries them (``_inbound``, set by the
    link on the first such write) deposits every landed one before any
    access here looks at or replaces the bytes.
    """

    def __init__(self, name: str, size: int) -> None:
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.name = name
        self.size = size
        self._data: mmap.mmap | None = None
        self._inbound: Optional["PcieLink"] = None

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"access [{offset}, +{nbytes}) outside region {self.name!r} of {self.size} bytes"
            )

    def _settle_inbound(self) -> None:
        """Bring the bytes up to date with the inbound link (which is set)."""
        link = self._inbound
        link.settle()
        if simsan.enabled:
            simsan.check_settled(link, self)

    def _backing(self) -> mmap.mmap:
        if self._data is None:
            self._data = mmap.mmap(-1, self.size, flags=mmap.MAP_PRIVATE)
            if hasattr(mmap, "MADV_NOHUGEPAGE"):
                # A host with transparent huge pages always on would
                # fault in 2 MiB per touch.
                self._data.madvise(mmap.MADV_NOHUGEPAGE)
        return self._data

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        if self._inbound is not None:
            self._settle_inbound()
        self._backing()[offset:offset + len(data)] = data

    def zero(self, offset: int, nbytes: int) -> None:
        """A write of zeros that touches only the ragged ends: the whole
        OS pages between them go back to the OS (they read as zeros and
        cost nothing until written again)."""
        self._check(offset, nbytes)
        if self._inbound is not None:
            self._settle_inbound()
        data = self._data
        if data is None:
            return
        end = offset + nbytes
        first = -(-offset // _OS_PAGE) * _OS_PAGE
        last = end // _OS_PAGE * _OS_PAGE
        if first >= last:
            data[offset:end] = bytes(nbytes)
            return
        data[offset:first] = bytes(first - offset)
        data.madvise(mmap.MADV_DONTNEED, first, last - first)
        data[last:end] = bytes(end - last)

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            return bytes(nbytes)
        return self._data[offset:offset + nbytes]

    def view(self, offset: int, nbytes: int) -> memoryview:
        """:meth:`read` without the copy: a read-only view of the bytes.
        It shows later writes too, so the caller releases it before
        anything else can run (before its next ``yield``)."""
        self._check(offset, nbytes)
        if self._inbound is not None:
            self._settle_inbound()
        return memoryview(self._backing())[offset:offset + nbytes].toreadonly()

    def snapshot(self) -> bytes:
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            return bytes(self.size)
        return self._data[:]

    def page_image(self) -> dict[int, bytes]:
        """The OS pages that hold data, offset -> bytes: the image
        :meth:`restore` adopts, as small as what was written."""
        if self._inbound is not None:
            self._settle_inbound()
        image: dict[int, bytes] = {}
        data = self._data
        if data is not None:
            for offset in range(0, self.size, _OS_PAGE):
                page = data[offset:offset + _OS_PAGE]
                if page != _ZERO_PAGE[:len(page)]:
                    image[offset] = page
        return image

    def restore(self, image: dict[int, bytes]) -> None:
        """Adopt a :meth:`page_image`: exactly its pages are written, and
        every other byte reads as zeros and costs nothing."""
        for offset, page in image.items():
            self._check(offset, len(page))
        self.clear()
        for offset, page in image.items():
            self._backing()[offset:offset + len(page)] = page

    def clear(self) -> None:
        if self._inbound is not None:
            self._settle_inbound()
        # Dropped, not closed: a live memoryview export would make
        # close() raise; the mapping goes when its last user does.
        self._data = None


class PersistentMemoryRegion(ByteRegion):
    """A region whose contents survive power loss (emulated PM / NVDIMM)."""

    persistent = True
