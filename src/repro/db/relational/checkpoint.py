"""Checkpointing: bounded-log recovery for the relational engine.

Without checkpoints, recovery replays the WAL from offset zero and the
log area can never be recycled.  A checkpoint writes the engine's full
table image plus the WAL position to a dedicated device region (two
slots, written alternately, so a crash mid-checkpoint always leaves one
valid image — the classic ping-pong scheme); recovery loads the newest
valid image and replays only the WAL tail behind it.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Optional

from repro.db.relational.engine import RelationalEngine
from repro.db.relational.codec import pack_obj, unpack_obj
from repro.sim.engine import Event
from repro.ssd.device import BlockSSD

_MAGIC = 0xC4EC


class CheckpointError(Exception):
    """Raised when no valid checkpoint image can be loaded."""


class CheckpointStore:
    """Two alternating checkpoint slots on a block device."""

    def __init__(self, engine, device: BlockSSD, base_lpn: int = 0,
                 slot_pages: int = 256) -> None:
        self.engine = engine
        self.device = device
        self.base_lpn = base_lpn
        self.slot_pages = slot_pages
        self.page_size = device.page_size
        self._next_slot = 0
        self.checkpoints_taken = 0

    def _slot_lpn(self, slot: int) -> int:
        return self.base_lpn + slot * self.slot_pages

    def _frame(self, blob: bytes, sequence: int, wal_lsn: int) -> bytes:
        header = pack_obj({
            "magic": _MAGIC,
            "seq": sequence,
            "wal_lsn": wal_lsn,
            "len": len(blob),
            "crc": zlib.crc32(blob),
        })
        framed = len(header).to_bytes(4, "little") + header + blob
        capacity = self.slot_pages * self.page_size
        if len(framed) > capacity:
            raise CheckpointError(
                f"checkpoint of {len(framed)} bytes exceeds slot of {capacity}"
            )
        return framed

    def save(self, db: RelationalEngine, wal_lsn: int) -> Iterator[Event]:
        """Process: write a checkpoint of ``db`` taken at ``wal_lsn``."""
        blob = db.checkpoint_image()
        self.checkpoints_taken += 1
        framed = self._frame(blob, self.checkpoints_taken, wal_lsn)
        slot = self._next_slot
        self._next_slot = 1 - self._next_slot
        yield from self.device.write(self._slot_lpn(slot), framed)
        yield from self.device.fsync()
        return slot

    def _read_slot(self, slot: int) -> Iterator[Event]:
        raw = yield from self.device.read(
            self._slot_lpn(slot), self.slot_pages * self.page_size)
        header_len = int.from_bytes(raw[:4], "little")
        if header_len == 0 or header_len > self.page_size:
            return None
        try:
            header = unpack_obj(raw[4:4 + header_len])
        except Exception:
            return None
        if header.get("magic") != _MAGIC:
            return None
        blob = raw[4 + header_len:4 + header_len + header["len"]]
        if zlib.crc32(blob) != header["crc"]:
            return None  # torn checkpoint write
        return header["seq"], header["wal_lsn"], bytes(blob)

    def load_latest(self) -> Iterator[Event]:
        """Process: return ``(wal_lsn, blob)`` of the newest valid image,
        or None if no checkpoint exists."""
        best: Optional[tuple[int, int, bytes]] = None
        for slot in (0, 1):
            candidate = yield from self._read_slot(slot)
            if candidate is not None and (best is None or candidate[0] > best[0]):
                best = candidate
        if best is None:
            return None
        return best[1], best[2]


def checkpoint_and_truncate(engine, db: RelationalEngine,
                            store: CheckpointStore) -> Iterator[Event]:
    """Process: take a checkpoint at the WAL's current durable horizon.

    Returns the WAL LSN the checkpoint covers; log space before it may be
    recycled, and recovery starts there.
    """
    wal_lsn = db.wal.durable_lsn
    yield from store.save(db, wal_lsn)
    return wal_lsn


def recover_from_checkpoint(engine, db: RelationalEngine,
                            store: CheckpointStore) -> Iterator[Event]:
    """Process: load the newest checkpoint (if any) into ``db`` and replay
    the WAL tail behind it.  Returns ``(checkpoint_lsn, replayed_ops)``."""
    loaded = yield from store.load_latest()
    start_lsn = 0
    if loaded is not None:
        start_lsn, blob = loaded
        db.load_checkpoint(blob)
    replayed = yield from db.recover(start_lsn)
    return start_lsn, replayed
