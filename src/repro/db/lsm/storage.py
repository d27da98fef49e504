"""Durable homes for SST files and the manifest.

Two implementations:

* :class:`DeviceTableStorage` — extents on a block SSD: table blobs are
  written page-aligned through the block path, and a manifest page
  (extent map + WAL truncation point) is rewritten after every change so
  recovery can find everything.
* :class:`MemoryTableStorage` — host-DRAM storage for the paper's Fig. 9
  configuration ("we assumed that all user data fits in DRAM, and only
  WAL logs are written to a log device"): cheap, and per the experiment's
  assumption the dataset itself is not what crash tests exercise.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

from repro.sim import Engine
from repro.sim.engine import Event
from repro.ssd.device import BlockSSD


class StorageError(Exception):
    """Raised for allocation failures or missing files."""


class MemoryTableStorage:
    """Host-DRAM table storage (Fig. 9's user-data-in-DRAM setup)."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._blobs: dict[int, bytes] = {}
        self._manifest: Optional[dict] = None

    def write_table(self, file_id: int, blob: bytes) -> Iterator[Event]:
        yield self.engine.timeout(len(blob) / 10e9)  # DRAM copy, ~10 GB/s
        self._blobs[file_id] = bytes(blob)
        return None

    def write_tables(self, blobs: list[tuple[int, bytes]]) -> Iterator[Event]:
        """Process: store several tables concurrently (copies overlap)."""
        procs = [self.engine.process(self.write_table(file_id, blob))
                 for file_id, blob in blobs]
        if procs:
            yield self.engine.all_of(procs)
        return None

    def read_table(self, file_id: int) -> Iterator[Event]:
        if file_id not in self._blobs:
            raise StorageError(f"no table file {file_id}")
        blob = self._blobs[file_id]
        yield self.engine.timeout(len(blob) / 10e9)
        return blob

    def read_tables(self, file_ids: list[int]) -> Iterator[Event]:
        """Process: fetch several tables concurrently; blobs in call order."""
        procs = [self.engine.process(self.read_table(file_id))
                 for file_id in file_ids]
        if not procs:
            return []
        blobs = yield self.engine.all_of(procs)
        return blobs

    def delete_table(self, file_id: int) -> None:
        self._blobs.pop(file_id, None)

    def write_manifest(self, manifest: dict) -> Iterator[Event]:
        yield self.engine.timeout(1e-7)
        self._manifest = json.loads(json.dumps(manifest))
        return None

    def read_manifest(self) -> Iterator[Event]:
        yield self.engine.timeout(1e-7)
        return self._manifest

    def table_ids(self) -> list[int]:
        return sorted(self._blobs)


class DeviceTableStorage:
    """Extent-allocated table storage on a block SSD.

    Layout: pages ``[base, base + manifest_pages)`` hold the manifest
    (JSON, zero-padded); table extents are allocated upward from there.
    Freed extents are recycled first-fit.
    """

    MANIFEST_PAGES = 8

    def __init__(self, engine: Engine, device: BlockSSD, base_lpn: int = 0,
                 capacity_pages: Optional[int] = None) -> None:
        self.engine = engine
        self.device = device
        self.page_size = device.page_size
        self.base_lpn = base_lpn
        limit = device.logical_pages - base_lpn
        self.capacity_pages = capacity_pages if capacity_pages is not None else limit
        if self.capacity_pages > limit:
            raise ValueError("storage region exceeds device capacity")
        self._next_lpn = base_lpn + self.MANIFEST_PAGES
        self._extents: dict[int, tuple[int, int]] = {}  # file_id -> (lpn, npages)
        self._free: list[tuple[int, int]] = []

    # -- tables ------------------------------------------------------------------

    def _allocate(self, npages: int) -> int:
        for index, (lpn, free_pages) in enumerate(self._free):
            if free_pages >= npages:
                if free_pages == npages:
                    self._free.pop(index)
                else:
                    self._free[index] = (lpn + npages, free_pages - npages)
                return lpn
        lpn = self._next_lpn
        if lpn + npages > self.base_lpn + self.capacity_pages:
            raise StorageError("table storage exhausted")
        self._next_lpn += npages
        return lpn

    def write_table(self, file_id: int, blob: bytes) -> Iterator[Event]:
        npages = -(-len(blob) // self.page_size)
        lpn = self._allocate(npages)
        yield from self.device.write(lpn, blob)
        yield from self.device.fsync()
        self._extents[file_id] = (lpn, npages)
        return None

    def write_tables(self, blobs: list[tuple[int, bytes]]) -> Iterator[Event]:
        """Process: write several tables with a single flush barrier.

        Extents are allocated up front (deterministic first-fit order),
        every page write is issued immediately — the device destages them
        through the shared NAND program batch, so the pages land across
        all dies in parallel — and one ``fsync`` covers the whole group.
        Compaction output cost becomes max-over-dies instead of
        sum-over-tables.  Crash safety is unchanged: the manifest naming
        these extents is only written after the barrier, so a crash
        mid-group leaves unreferenced pages, never a torn table.

        The empty group returns up front so that every path reaching an
        extent registration runs the flush barrier unconditionally —
        the form reproscan's DUR002 must-analysis can prove.
        """
        if not blobs:
            return None
        extents = []
        for file_id, blob in blobs:
            npages = -(-len(blob) // self.page_size)
            extents.append((file_id, self._allocate(npages), npages, blob))
        procs = [self.engine.process(self.device.write(lpn, blob))
                 for _file_id, lpn, _npages, blob in extents]
        yield self.engine.all_of(procs)
        yield from self.device.fsync()
        for file_id, lpn, npages, _blob in extents:
            self._extents[file_id] = (lpn, npages)
        return None

    def read_table(self, file_id: int) -> Iterator[Event]:
        if file_id not in self._extents:
            raise StorageError(f"no table file {file_id}")
        lpn, npages = self._extents[file_id]
        blob = yield from self.device.read(lpn, npages * self.page_size)
        return blob

    def read_tables(self, file_ids: list[int]) -> Iterator[Event]:
        """Process: read several tables concurrently; blobs in call order.

        Each read is issued as its own process so the per-table device
        reads (and, on a cold cache, their NAND ``read_batch`` fills)
        overlap across dies instead of serializing — the recovery path's
        analogue of :meth:`write_tables`.
        """
        procs = []
        for file_id in file_ids:
            if file_id not in self._extents:
                raise StorageError(f"no table file {file_id}")
            lpn, npages = self._extents[file_id]
            procs.append(self.engine.process(
                self.device.read(lpn, npages * self.page_size)))
        if not procs:
            return []
        blobs = yield self.engine.all_of(procs)
        return blobs

    def delete_table(self, file_id: int) -> None:
        extent = self._extents.pop(file_id, None)
        if extent is not None:
            self.device.trim(*extent)
            self._free.append(extent)

    def table_ids(self) -> list[int]:
        return sorted(self._extents)

    # -- manifest ----------------------------------------------------------------

    def write_manifest(self, manifest: dict) -> Iterator[Event]:
        image = dict(manifest)
        image["extents"] = {str(fid): list(ext) for fid, ext in self._extents.items()}
        blob = json.dumps(image).encode()
        capacity = self.MANIFEST_PAGES * self.page_size - 4
        if len(blob) > capacity:
            raise StorageError(f"manifest of {len(blob)} bytes exceeds {capacity}")
        framed = len(blob).to_bytes(4, "little") + blob
        yield from self.device.write(self.base_lpn, framed)
        yield from self.device.fsync()
        return None

    def read_manifest(self) -> Iterator[Event]:
        raw = yield from self.device.read(self.base_lpn, self.MANIFEST_PAGES * self.page_size)
        length = int.from_bytes(raw[:4], "little")
        if length == 0:
            return None
        manifest = json.loads(raw[4:4 + length].decode())
        self._extents = {
            int(fid): tuple(ext) for fid, ext in manifest.pop("extents", {}).items()
        }
        # Everything between the recovered extents is free again: the
        # space of tables deleted before the manifest was written.
        self._free = []
        end = self.base_lpn + self.MANIFEST_PAGES
        for lpn, npages in sorted(self._extents.values()):
            if lpn > end:
                self._free.append((end, lpn - end))
            end = lpn + npages
        self._next_lpn = end
        return manifest
