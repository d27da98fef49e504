"""The extent filesystem: superblock, inode table, allocator, files.

On-device layout (4 KiB pages):

====================  ==========================================
page 0                superblock (magic, active slot, size, CRC)
pages 1..M            inode table, slot A
pages M+1..2M         inode table, slot B
pages 2M+1..end       data region, extent-allocated
====================  ==========================================

Metadata writes are synchronous at ``fsync``/namespace operations (no
journal), and crash-consistent by construction: the inode table is
written to alternating slots (ping-pong) and the single-page superblock —
whose write is atomic — carries the active slot plus a CRC of the table.
A crash between the table write and the superblock write leaves the old
superblock pointing at the old, still-valid table.

All sizes are byte-granular at the API; storage is page-granular
underneath with read-modify-write for partial pages, exactly the
alignment cost §IV-A attributes to conventional log writes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.db.relational.codec import pack_obj, unpack_obj
from repro.sim import Engine, Resource
from repro.sim.engine import Event
from repro.ssd.device import BlockSSD

_SUPERBLOCK_MAGIC = "repro-extfs-v1"


class FileSystemError(Exception):
    """Raised for namespace errors, allocation failures, or corruption."""


class PermissionDenied(FileSystemError):
    """Raised when a caller lacks permission for an operation (BA_PIN gate)."""


@dataclass
class _Inode:
    """One file: name, size, owner, and its extent list."""

    name: str
    size: int = 0
    owner: str = "root"
    # Extents as (start_lpn, npages), in file order.
    extents: list = field(default_factory=list)

    @property
    def allocated_pages(self) -> int:
        return sum(npages for _lpn, npages in self.extents)

    def to_obj(self) -> dict:
        return {"n": self.name, "s": self.size, "o": self.owner,
                "e": [list(extent) for extent in self.extents]}

    @classmethod
    def from_obj(cls, obj: dict) -> "_Inode":
        return cls(name=obj["n"], size=obj["s"], owner=obj["o"],
                   extents=[tuple(extent) for extent in obj["e"]])


class ExtentFileSystem:
    """A mountable filesystem instance over one block device."""

    INODE_TABLE_PAGES = 16

    def __init__(self, engine: Engine, device: BlockSSD) -> None:
        self.engine = engine
        self.device = device
        self.page_size = device.page_size
        self._inodes: dict[str, _Inode] = {}
        self._mounted = False
        self._data_start = 1 + 2 * self.INODE_TABLE_PAGES
        self._next_lpn = self._data_start
        self._free: list[tuple[int, int]] = []
        self._meta_lock = Resource(engine)
        self._active_slot = 0

    # -- lifecycle ---------------------------------------------------------------

    def format(self) -> Iterator[Event]:
        """Process: initialize an empty filesystem and mount it."""
        self._inodes = {}
        self._next_lpn = self._data_start
        self._free = []
        yield from self._write_metadata()
        self._mounted = True
        return None

    def mount(self) -> Iterator[Event]:
        """Process: load the superblock and inode table from the device."""
        raw = yield from self.device.read(0, self.page_size)
        length = int.from_bytes(raw[:4], "little")
        if length == 0:
            raise FileSystemError("no filesystem: device not formatted")
        superblock = unpack_obj(raw[4:4 + length])
        if superblock.get("magic") != _SUPERBLOCK_MAGIC:
            raise FileSystemError(f"bad superblock magic {superblock.get('magic')!r}")
        table_bytes = superblock["table_bytes"]
        slot = superblock.get("slot", 0)
        slot_lpn = 1 + slot * self.INODE_TABLE_PAGES
        raw = yield from self.device.read(slot_lpn, self.INODE_TABLE_PAGES * self.page_size)
        if zlib.crc32(raw[:table_bytes]) != superblock.get("table_crc"):
            raise FileSystemError("inode table corrupt (CRC mismatch)")
        table = unpack_obj(raw[:table_bytes]) if table_bytes else {"inodes": []}
        self._inodes = {
            inode["n"]: _Inode.from_obj(inode) for inode in table["inodes"]
        }
        self._next_lpn = superblock["next_lpn"]
        self._free = [tuple(extent) for extent in superblock["free"]]
        self._active_slot = slot
        self._mounted = True
        return None

    def _write_metadata(self) -> Iterator[Event]:
        lock = self._meta_lock.request()
        yield lock
        try:
            table = pack_obj({"inodes": [inode.to_obj()
                                         for inode in self._inodes.values()]})
            capacity = self.INODE_TABLE_PAGES * self.page_size
            if len(table) > capacity:
                raise FileSystemError(
                    f"inode table of {len(table)} bytes exceeds {capacity}"
                )
            # Ping-pong: write the table to the inactive slot, flush, then
            # flip the superblock (a single atomic page write).
            slot = 1 - self._active_slot
            superblock = pack_obj({
                "magic": _SUPERBLOCK_MAGIC,
                "table_bytes": len(table),
                "table_crc": zlib.crc32(table),
                "slot": slot,
                "next_lpn": self._next_lpn,
                "free": [list(extent) for extent in self._free],
            })
            framed = len(superblock).to_bytes(4, "little") + superblock
            if len(framed) > self.page_size:
                raise FileSystemError("superblock too large")
            yield from self.device.write(1 + slot * self.INODE_TABLE_PAGES, table)
            yield from self.device.flush()
            yield from self.device.write(0, framed)
            yield from self.device.flush()
            self._active_slot = slot
        finally:
            self._meta_lock.release(lock)
        return None

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise FileSystemError("filesystem not mounted")

    # -- namespace ---------------------------------------------------------------

    def create(self, name: str, owner: str = "root") -> Iterator[Event]:
        """Process: create an empty file; returns a :class:`File` handle."""
        self._require_mounted()
        if not name or "/" in name:
            raise FileSystemError(f"invalid file name {name!r}")
        if name in self._inodes:
            raise FileSystemError(f"file {name!r} already exists")
        self._inodes[name] = _Inode(name=name, owner=owner)
        yield from self._write_metadata()
        return File(self, self._inodes[name])

    def open(self, name: str) -> "File":
        self._require_mounted()
        inode = self._inodes.get(name)
        if inode is None:
            raise FileSystemError(f"no such file {name!r}")
        return File(self, inode)

    def unlink(self, name: str) -> Iterator[Event]:
        """Process: delete a file; its extents are trimmed and recycled."""
        self._require_mounted()
        inode = self._inodes.pop(name, None)
        if inode is None:
            raise FileSystemError(f"no such file {name!r}")
        for lpn, npages in inode.extents:
            self.device.trim(lpn, npages)
            self._free.append((lpn, npages))
        yield from self._write_metadata()
        return None

    def listdir(self) -> list[str]:
        self._require_mounted()
        return sorted(self._inodes)

    def stat(self, name: str) -> dict:
        inode = self._inodes.get(name)
        if inode is None:
            raise FileSystemError(f"no such file {name!r}")
        return {"size": inode.size, "owner": inode.owner,
                "extents": list(inode.extents),
                "allocated_bytes": inode.allocated_pages * self.page_size}

    # -- allocation --------------------------------------------------------------

    def _allocate_extent(self, npages: int, contiguous: bool) -> list[tuple[int, int]]:
        if npages <= 0:
            raise FileSystemError(f"allocation of {npages} pages")
        for index, (lpn, free_pages) in enumerate(self._free):
            if free_pages >= npages:
                if free_pages == npages:
                    self._free.pop(index)
                else:
                    self._free[index] = (lpn + npages, free_pages - npages)
                return [(lpn, npages)]
        end = self._next_lpn + npages
        if end > self.device.logical_pages:
            if contiguous:
                raise FileSystemError("no contiguous space left")
            raise FileSystemError("filesystem full")
        lpn = self._next_lpn
        self._next_lpn = end
        return [(lpn, npages)]


class File:
    """An open file handle (thin view over the inode)."""

    def __init__(self, fs: ExtentFileSystem, inode: _Inode) -> None:
        self.fs = fs
        self._inode = inode

    @property
    def name(self) -> str:
        return self._inode.name

    @property
    def size(self) -> int:
        return self._inode.size

    @property
    def owner(self) -> str:
        return self._inode.owner

    # -- extent resolution (the BA_PIN hook) -----------------------------------------

    def extent_for(self, offset: int) -> tuple[int, int]:
        """Map a byte offset to ``(lpn, contiguous_pages_remaining)``."""
        if offset < 0 or offset >= self._inode.allocated_pages * self.fs.page_size:
            raise FileSystemError(
                f"offset {offset} outside allocated space of {self.name!r}"
            )
        page_index = offset // self.fs.page_size
        for lpn, npages in self._inode.extents:
            if page_index < npages:
                return lpn + page_index, npages - page_index
            page_index -= npages
        raise FileSystemError("extent walk overran inode (corrupt extents)")

    def preallocate(self, nbytes: int, keep_size: bool = False) -> Iterator[Event]:
        """Process: extend the file's allocation by ``nbytes``, contiguously.

        Log segment files preallocate so the whole segment is one LBA
        range — the shape ``BA_PIN`` requires.  By default the file size
        grows to cover the allocation (fallocate semantics without
        KEEP_SIZE), matching how fixed-size log segments are created.
        """
        npages = -(-nbytes // self.fs.page_size)
        extents = self.fs._allocate_extent(npages, contiguous=True)
        self._inode.extents.extend(extents)
        if not keep_size:
            self._inode.size = self._inode.allocated_pages * self.fs.page_size
        yield from self.fs._write_metadata()
        return extents

    # -- I/O ---------------------------------------------------------------------------

    def write(self, offset: int, data: bytes) -> Iterator[Event]:
        """Process: write ``data`` at byte ``offset`` (extends the file).

        Partial-page heads/tails are read-modify-written — the block
        path's alignment cost.
        """
        if not data:
            return None
        end = offset + len(data)
        needed_pages = -(-end // self.fs.page_size)
        while self._inode.allocated_pages < needed_pages:
            grow = needed_pages - self._inode.allocated_pages
            extents = self.fs._allocate_extent(grow, contiguous=False)
            self._inode.extents.extend(extents)
        position = offset
        remaining = data
        while remaining:
            lpn, run_pages = self.extent_for(position)
            within = position % self.fs.page_size
            run_bytes = run_pages * self.fs.page_size - within
            chunk = remaining[:run_bytes]
            if within or len(chunk) % self.fs.page_size:
                # Read-modify-write the partial run.
                run_span = within + len(chunk)
                span_pages = -(-run_span // self.fs.page_size)
                old = yield from self.fs.device.read(lpn, span_pages * self.fs.page_size)
                merged = bytearray(old)
                merged[within:within + len(chunk)] = chunk
                yield from self.fs.device.write(lpn, bytes(merged))
            else:
                yield from self.fs.device.write(lpn, chunk)
            position += len(chunk)
            remaining = remaining[len(chunk):]
        self._inode.size = max(self._inode.size, end)
        return None

    def read(self, offset: int, nbytes: int) -> Iterator[Event]:
        """Process: read up to ``nbytes`` from ``offset`` (short at EOF)."""
        if offset >= self._inode.size:
            return b""
        nbytes = min(nbytes, self._inode.size - offset)
        parts: list[bytes] = []
        position = offset
        remaining = nbytes
        while remaining > 0:
            lpn, run_pages = self.extent_for(position)
            within = position % self.fs.page_size
            run_bytes = min(remaining + within, run_pages * self.fs.page_size)
            span_pages = -(-run_bytes // self.fs.page_size)
            raw = yield from self.fs.device.read(lpn, span_pages * self.fs.page_size)
            take = min(remaining, run_bytes - within)
            parts.append(raw[within:within + take])
            position += take
            remaining -= take
        return b"".join(parts)

    def fsync(self) -> Iterator[Event]:
        """Process: make file data and metadata durable."""
        yield from self.fs._write_metadata()
        yield from self.fs.device.fsync()
        return None

    def truncate(self, nbytes: int = 0) -> Iterator[Event]:
        """Process: shrink the file; surplus whole extent pages are trimmed."""
        if nbytes > self._inode.size:
            raise FileSystemError("truncate cannot grow a file")
        keep_pages = -(-nbytes // self.fs.page_size)
        kept: list[tuple[int, int]] = []
        seen = 0
        for lpn, npages in self._inode.extents:
            if seen + npages <= keep_pages:
                kept.append((lpn, npages))
            elif seen < keep_pages:
                split = keep_pages - seen
                kept.append((lpn, split))
                self.fs.device.trim(lpn + split, npages - split)
                self.fs._free.append((lpn + split, npages - split))
            else:
                self.fs.device.trim(lpn, npages)
                self.fs._free.append((lpn, npages))
            seen += npages
        self._inode.extents = kept
        self._inode.size = nbytes
        yield from self.fs._write_metadata()
        return None
