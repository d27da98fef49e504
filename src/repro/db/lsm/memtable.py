"""The memtable: an ordered map of the writes not yet flushed.

RocksDB's default memtable is a skiplist; here it is a dict of values
beside a key list kept sorted with ``bisect.insort``, which runs only
for a key not seen before (an overwrite is one dict store).  Lookups are
dict lookups, a flush reads the sorted list as it is, and a scan bisects
it.  Deletions are recorded by the tree as tombstone values (``None``);
the memtable itself only ever inserts/replaces.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any

_ABSENT = object()


def _value_bytes(value: Any) -> int:
    return len(value) if isinstance(value, (bytes, bytearray)) else 8


class MemTable:
    """Ordered string-keyed map."""

    def __init__(self) -> None:
        self._values: dict[str, Any] = {}
        self._keys: list[str] = []  # sorted
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def approximate_bytes(self) -> int:
        """Accumulated key+value bytes (the memtable-full trigger)."""
        return self._bytes

    def insert(self, key: str, value: Any) -> None:
        """Insert or replace ``key``."""
        old = self._values.get(key, _ABSENT)
        if old is _ABSENT:
            insort(self._keys, key)
            self._bytes += len(key.encode()) + _value_bytes(value)
        else:
            self._bytes += _value_bytes(value) - _value_bytes(old)
        self._values[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def items(self) -> list[tuple[str, Any]]:
        """Sorted ``(key, value)`` pairs (the flush path)."""
        return list(zip(self._keys, map(self._values.__getitem__, self._keys)))

    def range_items(self, start: str, limit: int) -> list[tuple[str, Any]]:
        """Up to ``limit`` items with key >= start, in order (scan support)."""
        index = bisect_left(self._keys, start)
        keys = self._keys[index:index + max(limit, 0)]
        return list(zip(keys, map(self._values.__getitem__, keys)))
