"""Bloom filters for SSTable point lookups.

RocksDB attaches a bloom filter to every SST file so point lookups skip
tables that cannot contain the key.  A standard m-bit / k-hash filter with
double hashing (Kirsch-Mitzenmacher) over two independent 64-bit hashes of
the key; ~10 bits/key gives a ~1% false-positive rate.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable


class BloomFilter:
    """An immutable-once-built membership filter."""

    def __init__(self, keys: Iterable[str], bits_per_key: int = 10) -> None:
        if bits_per_key < 1:
            raise ValueError(f"bits_per_key must be >= 1, got {bits_per_key}")
        key_list = list(keys)
        self.count = len(key_list)
        bits = self.bits = max(64, self.count * bits_per_key)
        # Optimal number of hashes: (m/n) ln 2, clamped to [1, 30].
        hashes = self.hashes = max(1, min(30, round(bits_per_key * math.log(2))))
        bitmap = self._bitmap = bytearray(-(-bits // 8))
        hash_key = self.hash_key
        # Additive double hashing: position i is (h1 + i*h2) mod bits,
        # reached by stepping (h2 mod bits) from (h1 mod bits) with one
        # conditional subtract — no wide multiply or modulo per position.
        for key in key_list:
            h1, h2 = hash_key(key)
            position = h1 % bits
            step = h2 % bits
            for _ in range(hashes):
                bitmap[position >> 3] |= 1 << (position & 7)
                position += step
                if position >= bits:
                    position -= bits

    @staticmethod
    def hash_key(key: str) -> tuple[int, int]:
        """The two base hashes for ``key``, independent of filter geometry.

        Probing many filters with one key (the L0 scan in a point lookup)
        hashes once and reuses the pair via :meth:`might_contain_hashed`.
        """
        digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
        return (int.from_bytes(digest[:8], "little"),
                int.from_bytes(digest[8:], "little") | 1)

    def might_contain(self, key: str) -> bool:
        """False means definitely absent; True means probably present."""
        h1, h2 = self.hash_key(key)
        return self.might_contain_hashed(h1, h2)

    def might_contain_hashed(self, h1: int, h2: int) -> bool:
        """Membership test from a precomputed :meth:`hash_key` pair."""
        bits = self.bits
        bitmap = self._bitmap
        position = h1 % bits
        step = h2 % bits
        for _ in range(self.hashes):
            if not bitmap[position >> 3] & (1 << (position & 7)):
                return False
            position += step
            if position >= bits:
                position -= bits
        return True

    @property
    def size_bytes(self) -> int:
        return len(self._bitmap)

    def encode(self) -> bytes:
        header = (self.bits.to_bytes(8, "little")
                  + self.hashes.to_bytes(2, "little")
                  + self.count.to_bytes(6, "little"))
        return header + bytes(self._bitmap)

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        if len(data) < 16:
            raise ValueError("truncated bloom filter")
        instance = cls.__new__(cls)
        instance.bits = int.from_bytes(data[:8], "little")
        instance.hashes = int.from_bytes(data[8:10], "little")
        instance.count = int.from_bytes(data[10:16], "little")
        if instance.bits < 1 or not 1 <= instance.hashes <= 30:
            raise ValueError(
                f"bloom filter geometry out of range: bits={instance.bits}, "
                f"hashes={instance.hashes}")
        expected = -(-instance.bits // 8)
        if len(data) != 16 + expected:
            raise ValueError("bloom filter size mismatch")
        instance._bitmap = bytearray(data[16:])
        return instance
