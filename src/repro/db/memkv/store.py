"""The Redis-like store: single-threaded command loop over a dict + AOF.

Redis's defining structural property for this paper is its *single
thread*: commands execute one at a time, so the engine cannot overlap a
slow log write of one client with the work of another — which is why
Fig. 9(c) shows ULL-SSD barely beating DC-SSD, while the BA path (commit
in well under a microsecond) helps dramatically.  The single thread is
modeled as a capacity-1 resource every command holds end to end.
"""

from __future__ import annotations

from typing import Iterator

from repro.db.common import EngineStats
from repro.db.memkv.commands import (
    Command, apply, decode_command, encode_command, validate)
from repro.sim import Engine, Resource
from repro.sim.engine import Event
from repro.sim.units import USEC
from repro.wal.base import WriteAheadLog


class MemKV:
    """An in-memory KV store persisting write commands to an AOF."""

    # CPU work per command: dict op + request parsing in a tight C loop.
    COMMAND_CPU = 10.0 * USEC

    def __init__(self, engine: Engine, aof: WriteAheadLog) -> None:
        self.engine = engine
        self.aof = aof
        self._data: dict[str, bytes] = {}
        self._thread = Resource(engine)  # the single event-loop thread
        self.stats = EngineStats()

    def __len__(self) -> int:
        return len(self._data)

    # -- commands ---------------------------------------------------------------

    def set(self, key: str, value: bytes) -> Iterator[Event]:
        """Process: SET — durable in the AOF before acknowledging."""
        yield from self._write_command(Command.SET, key, value)
        return None

    def delete(self, key: str) -> Iterator[Event]:
        """Process: DEL."""
        yield from self._write_command(Command.DEL, key)
        return None

    def append(self, key: str, value: bytes) -> Iterator[Event]:
        """Process: APPEND — concatenates onto the existing value."""
        yield from self._write_command(Command.APPEND, key, value)
        return None

    def incr(self, key: str) -> Iterator[Event]:
        """Process: INCR — integer increment (missing keys start at 0); a
        non-integer value raises ``ValueError`` before anything is logged."""
        yield from self._write_command(Command.INCR, key)
        return int(self._data[key])

    def get(self, key: str) -> Iterator[Event]:
        """Process: GET."""
        start = self.engine.now
        thread = self._thread.request()
        yield thread
        try:
            yield self.engine.timeout(self.COMMAND_CPU)
            value = self._data.get(key)
        finally:
            self._thread.release(thread)
        self.stats.record("GET", self.engine.now - start, is_write=False)
        return value

    # -- internals ---------------------------------------------------------------

    def _write_command(self, command: Command, key: str,
                       value: bytes = b"") -> Iterator[Event]:
        start = self.engine.now
        thread = self._thread.request()
        yield thread
        try:
            yield self.engine.timeout(self.COMMAND_CPU)
            validate(self._data, command, key)
            record = encode_command(command, key, value)
            lsns = yield from self.aof.append_batch([record])
            commit_start = self.engine.now
            yield from self.aof.commit(lsns[0])
            self.stats.commit_latency += self.engine.now - commit_start
            apply(self._data, command, key, value)
        finally:
            self._thread.release(thread)
        self.stats.record(command.name, self.engine.now - start, is_write=True)
        return None

    # -- recovery -----------------------------------------------------------------

    def recover(self, start_lsn: int = 0) -> Iterator[Event]:
        """Process: rebuild the dataset by replaying the AOF."""
        data = self._data
        data.clear()
        replayed = 0

        def redo(_lsn, payload):
            nonlocal replayed
            apply(data, *decode_command(bytes(payload)))
            replayed += 1

        yield from self.aof.replay(start_lsn, redo)
        return replayed

    def snapshot(self) -> dict[str, bytes]:
        """Copy of the current dataset (assertion helper)."""
        return dict(self._data)
