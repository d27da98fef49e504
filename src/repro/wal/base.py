"""The WAL backend interface and shared statistics."""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.sim.engine import Event


class CommitMode(enum.Enum):
    """Transaction commit modes (Fig. 5)."""

    SYNCHRONOUS = "sync"
    ASYNCHRONOUS = "async"
    BA = "ba"


@dataclass
class WalStats:
    """Counters every backend maintains."""

    appends: int = 0
    commits: int = 0
    bytes_appended: int = 0
    device_writes: int = 0
    page_rewrites: int = 0
    flush_stalls: int = 0

    @property
    def mean_record_bytes(self) -> float:
        return self.bytes_appended / self.appends if self.appends else 0.0


class PartialAppendError(Exception):
    """A batched append failed part-way through the batch.

    ``lsns`` holds the end LSNs of the records that *did* land, in batch
    order — never empty: a batch that landed nothing raises ``cause``
    itself.  ``cause`` is the underlying error for the first record that
    did not.  The appended prefix is real log content — it is in the
    stream and will be replicated/recovered like any other record — so a
    caller may retry only the remaining suffix.
    """

    def __init__(self, lsns: list[int], cause: BaseException) -> None:
        super().__init__(
            f"batch append stopped after {len(lsns)} record(s): {cause}")
        self.lsns = list(lsns)
        self.cause = cause


class LogFullError(Exception):
    """An append needs log area that still holds records at or above the
    stream's ``low_water_lsn``: recycling it would discard them, so the
    log refuses the append and overwrites nothing.  Advancing low water
    (the consumer truncating) makes room again."""


class WriteAheadLog(abc.ABC):
    """A log stream with byte-offset LSNs and a durability horizon.

    ``append_batch`` places records in the stream and returns their
    *end* LSNs; ``commit(lsn)`` returns once the stream is durable at
    least up to ``lsn``.  ``durable_lsn`` is the crash-survivable
    horizon — after a power cycle, :meth:`replay` hands over exactly the
    contiguous records below it (and possibly a few more that made it
    out by luck).

    ``low_water_lsn`` is the consumer's truncation point: records below
    it are no longer needed (flushed into tables, checkpointed).  The
    log area is circular, and no backend recycles area holding bytes at
    or above low water — such an append raises :class:`LogFullError`.

    ``max_record_bytes`` is the largest record, header included, the
    stream can ever hold (fixed at construction); ``append_batch`` of a
    larger one raises ``ValueError``.
    """

    stats: WalStats
    low_water_lsn: int = 0
    max_record_bytes: int

    @abc.abstractmethod
    def append_batch(self, payloads: list[bytes]) -> Iterator[Event]:
        """Process: append ``payloads`` in order; returns their end LSNs.

        The logging phase — group commit is its native shape, one record
        is a batch of one.  A failure after at least one record landed
        raises :class:`PartialAppendError` carrying the landed prefix; a
        failure before any landed raises its cause unchanged.
        """

    def append(self, payload: bytes) -> Iterator[Event]:
        """Process: append one record; returns the record's end LSN."""
        lsns = yield from self.append_batch([payload])
        return lsns[0]

    @abc.abstractmethod
    def commit(self, lsn: int) -> Iterator[Event]:
        """Process: make the stream durable up to ``lsn``."""

    @abc.abstractmethod
    def replay(self, start_lsn: int,
               apply: Callable[[int, memoryview], None]) -> Iterator[Event]:
        """Process: the post-crash read of the log — ``apply(lsn, payload)``
        for each record of the contiguous run from ``start_lsn``, in LSN
        order, while the segment holding it is live.

        ``payload`` is a read-only view valid only during the call: copy
        what you keep.  A view kept past it makes the replay raise
        ``BufferError`` instead of aliasing device memory.
        """

    def recover(self, start_lsn: int = 0) -> Iterator[Event]:
        """Process: :meth:`replay` collected into ``[(lsn, payload), ...]``."""
        records: list[tuple[int, bytes]] = []
        yield from self.replay(start_lsn, lambda lsn, payload: records.append(
            (lsn, payload.tobytes())))
        return records

    @property
    @abc.abstractmethod
    def durable_lsn(self) -> int:
        """Stream offset below which data is guaranteed crash-survivable."""

    @property
    @abc.abstractmethod
    def tail_lsn(self) -> int:
        """Stream offset of the next append."""

    def append_and_commit(self, payload: bytes) -> Iterator[Event]:
        """Process: the common ``log(); commit()`` pair; returns end LSN."""
        lsn = yield from self.append(payload)
        yield from self.commit(lsn)
        return lsn

    def commit_batch(self, lsns: list[int]) -> Iterator[Event]:
        """Process: group fsync — ONE durability barrier covers every LSN
        in ``lsns``.  Correct because ``commit`` is monotonic: making the
        stream durable at ``max(lsns)`` makes it durable at each of them.
        """
        if lsns:
            yield from self.commit(max(lsns))
        return None
