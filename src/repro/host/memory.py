"""Byte-addressable memory regions.

:class:`ByteRegion` is the basic data container: a named bytearray used for
host DRAM buffers and for the device-internal DRAM that BAR1 exposes.

:class:`PersistentMemoryRegion` marks a region that survives power loss
(an emulated NVDIMM for the Fig. 10 comparison, or the capacitor-backed
BA-buffer once the recovery manager has saved it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.analysis import sanitizer as simsan

if TYPE_CHECKING:  # import cycle: pcie.link is imported by repro.host
    from repro.pcie.link import PcieLink


class ByteRegion:
    """A named, bounds-checked byte store.

    The backing bytearray is allocated lazily on the first write: large
    regions (the 16 MiB BA DRAM, multi-MiB host buffers) are routinely
    constructed and never — or only sparsely — touched, and eagerly
    zero-filling them dominated short-run platform construction.
    An untouched region reads as zeros, exactly like the eager version.

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
        self._data: bytearray | None = None
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

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            self._data = bytearray(self.size)
        self._data[offset:offset + len(data)] = data

    def zero(self, offset: int, nbytes: int) -> None:
        """A write of zeros that allocates nothing while the region is untouched."""
        if self._data is None and self._inbound is None:
            self._check(offset, nbytes)
        else:
            self.write(offset, bytes(nbytes))

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            return bytes(nbytes)
        return bytes(memoryview(self._data)[offset:offset + nbytes])

    def snapshot(self) -> bytes:
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            return bytes(self.size)
        return bytes(self._data)

    def restore(self, image: bytes) -> None:
        if len(image) != self.size:
            raise ValueError(
                f"restore image of {len(image)} bytes does not match region size {self.size}"
            )
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            self._data = bytearray(image)
        else:
            self._data[:] = image

    def clear(self) -> None:
        if self._inbound is not None:
            self._settle_inbound()
        self._data = None


class PersistentMemoryRegion(ByteRegion):
    """A region whose contents survive power loss (emulated PM / NVDIMM)."""

    persistent = True
