"""Sorted String Tables: immutable sorted runs of key/value entries.

An SSTable is built once (from a flushed memtable or a compaction merge),
serialized to storage for durability, and probed in memory via binary
search.  Tombstones (``value is None``) shadow older versions of a key
and are dropped when a compaction merges down to the bottom level.
"""

from __future__ import annotations

import bisect
import struct
from itertools import chain
from typing import Iterable, Optional

from repro.db.lsm.bloom import BloomFilter

_ENTRY_HEADER = struct.Struct("<HBI")
_TABLE_HEADER = struct.Struct("<II")
_TABLE_MAGIC = 0x55735374


class SstFormatError(Exception):
    """Raised when bytes do not parse as an SSTable image."""


class SSTable:
    """One immutable sorted run."""

    _COUNTER = 0

    def __init__(self, entries: Iterable[tuple[str, Optional[bytes]]],
                 file_id: Optional[int] = None) -> None:
        pairs = list(entries)
        keys = [key for key, _value in pairs]
        if keys != sorted(keys):
            raise ValueError("SSTable entries must be sorted by key")
        if len(set(keys)) != len(keys):
            raise ValueError("SSTable entries must have unique keys")
        if not pairs:
            raise ValueError("SSTable must contain at least one entry")
        self._init(keys, [value for _key, value in pairs], file_id)

    @classmethod
    def from_sorted(cls, pairs: list[tuple[str, Optional[bytes]]],
                    file_id: Optional[int] = None) -> "SSTable":
        """Trusted constructor for merge/split output.

        Skips the sortedness/uniqueness validation (O(n log n) on every
        compaction chunk) — the caller guarantees ``pairs`` is sorted by
        key with no duplicates, which merge and split outputs are by
        construction.
        """
        if not pairs:
            raise ValueError("SSTable must contain at least one entry")
        keys, values = zip(*pairs)
        table = cls.__new__(cls)
        table._init(list(keys), list(values), file_id)
        return table

    def _init(self, keys: list[str], values: list[Optional[bytes]],
              file_id: Optional[int]) -> None:
        if file_id is None:
            SSTable._COUNTER += 1
            file_id = SSTable._COUNTER
        else:
            SSTable._COUNTER = max(SSTable._COUNTER, file_id)
        self.file_id = file_id
        self._keys = keys
        self._values = values
        # The bloom filter hashes every key (blake2b per key); the read
        # path builds it on the first lookup this table misses, so a table
        # that only ever answers hits never pays for one.
        self._filter: Optional[BloomFilter] = None

    @property
    def filter(self) -> BloomFilter:
        built = self._filter
        if built is None:
            built = self._filter = BloomFilter(self._keys)
        return built

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def min_key(self) -> str:
        return self._keys[0]

    @property
    def max_key(self) -> str:
        return self._keys[-1]

    @property
    def data_bytes(self) -> int:
        return sum(len(k.encode()) + (len(v) if v else 0)
                   for k, v in zip(self._keys, self._values))

    def might_contain(self, key: str) -> bool:
        """Bloom-filter check: False means the key is definitely absent."""
        return self.filter.might_contain(key)

    def get(self, key: str) -> tuple[bool, Optional[bytes]]:
        """Returns ``(found, value)``; a found tombstone is ``(True, None)``."""
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return True, self._values[index]
        return False, None

    def overlaps(self, other: "SSTable") -> bool:
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def items(self) -> list[tuple[str, Optional[bytes]]]:
        return list(zip(self._keys, self._values))

    def range_items(self, start: str, limit: int) -> list[tuple[str, Optional[bytes]]]:
        index = bisect.bisect_left(self._keys, start)
        return list(zip(self._keys[index:index + limit],
                        self._values[index:index + limit]))

    # -- serialization -----------------------------------------------------------

    def encode(self) -> bytes:
        # One join of (header, key, value) parts: concatenating each entry
        # first would copy every value twice more.
        pack = _ENTRY_HEADER.pack
        entries = [(pack(len(key), value is None, len(value or b"")), key, value or b"")
                   for key, value in zip(map(str.encode, self._keys), self._values)]
        return b"".join(chain([_TABLE_HEADER.pack(_TABLE_MAGIC, len(entries))],
                              *entries))

    @classmethod
    def decode(cls, data: bytes, file_id: Optional[int] = None) -> "SSTable":
        if len(data) < _TABLE_HEADER.size:
            raise SstFormatError("truncated table header")
        magic, count = _TABLE_HEADER.unpack_from(data)
        if magic != _TABLE_MAGIC:
            raise SstFormatError(f"bad table magic {magic:#x}")
        entries: list[tuple[str, Optional[bytes]]] = []
        offset = _TABLE_HEADER.size
        for _ in range(count):
            if offset + _ENTRY_HEADER.size > len(data):
                raise SstFormatError("truncated entry header")
            key_len, tombstone, value_len = _ENTRY_HEADER.unpack_from(data, offset)
            offset += _ENTRY_HEADER.size
            if offset + key_len + value_len > len(data):
                raise SstFormatError("truncated entry body")
            key = data[offset:offset + key_len].decode()
            offset += key_len
            value = None if tombstone else bytes(data[offset:offset + value_len])
            offset += value_len
            entries.append((key, value))
        return cls(entries, file_id=file_id)


def merge_tables(tables: list[SSTable], drop_tombstones: bool,
                 file_id: Optional[int] = None) -> Optional[SSTable]:
    """Merge runs given newest first: the newest version of each key wins.

    Returns None when everything merged away (all tombstones dropped).
    """
    merged: dict[str, Optional[bytes]] = {}
    for table in reversed(tables):  # oldest first; newer overwrite
        merged.update(zip(table._keys, table._values))
    if drop_tombstones and None in merged.values():
        merged = {k: v for k, v in merged.items() if v is not None}
    if not merged:
        return None
    return SSTable.from_sorted(sorted(merged.items()), file_id=file_id)
