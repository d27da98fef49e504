"""Tests for the bloom filter and its integration with the LSM read path.

``OracleBloom`` keeps the generator-built, multiply-modulo filter the
additive one replaced, verbatim, as the reference: the bitmap, the
encoded image and every probe answer must stay byte-identical.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.lsm.bloom import BloomFilter


class OracleBloom:
    """The filter as it was built and probed before additive stepping."""

    def __init__(self, keys, bits_per_key=10):
        key_list = list(keys)
        self.count = len(key_list)
        self.bits = max(64, self.count * bits_per_key)
        self.hashes = max(1, min(30, round(bits_per_key * math.log(2))))
        self._bitmap = bytearray(-(-self.bits // 8))
        for key in key_list:
            for position in self._positions(key):
                self._bitmap[position // 8] |= 1 << (position % 8)

    def _positions(self, key):
        h1, h2 = BloomFilter.hash_key(key)
        for i in range(self.hashes):
            yield (h1 + i * h2) % self.bits

    def might_contain_hashed(self, h1, h2):
        bits = self.bits
        bitmap = self._bitmap
        for i in range(self.hashes):
            position = (h1 + i * h2) % bits
            if not bitmap[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def encode(self):
        header = (self.bits.to_bytes(8, "little")
                  + self.hashes.to_bytes(2, "little")
                  + self.count.to_bytes(6, "little"))
        return header + bytes(self._bitmap)


U64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestAdditiveHashingMatchesOracle:
    # 3 keys -> the 64-bit floor; 37 and 101 keys -> 370 and 1010 bits
    # (not powers of two); bits_per_key 1 and 50 reach both hash clamps.
    @pytest.mark.parametrize("count,bits_per_key", [
        (0, 10), (3, 10), (37, 10), (101, 10), (64, 1), (50, 50), (33, 7)])
    def test_image_and_answers_identical(self, count, bits_per_key):
        keys = [f"key{i:05d}" for i in range(count)]
        bloom = BloomFilter(keys, bits_per_key)
        oracle = OracleBloom(keys, bits_per_key)
        assert bloom.encode() == oracle.encode()
        for probe in keys + [f"absent{i}" for i in range(200)]:
            h1, h2 = BloomFilter.hash_key(probe)
            assert (bloom.might_contain_hashed(h1, h2)
                    == oracle.might_contain_hashed(h1, h2))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 37, 101]), U64, U64,
           st.integers(min_value=0, max_value=2**40))
    def test_random_hash_pairs(self, count, h1, h2, multiple):
        keys = [f"key{i:05d}" for i in range(count)]
        bloom = BloomFilter(keys)
        oracle = OracleBloom(keys)
        # Raw pairs (not hash_key's: h2 may be even), and an h2 that is a
        # multiple of bits, where the step is 0 and every probe hits h1.
        for step in (h2, multiple * bloom.bits):
            assert (bloom.might_contain_hashed(h1, step)
                    == oracle.might_contain_hashed(h1, step))

    def test_step_zero_probes_one_position(self):
        bloom = BloomFilter([f"key{i}" for i in range(10)])  # 100 bits
        set_bit = next(p for p in range(bloom.bits)
                       if bloom._bitmap[p >> 3] & (1 << (p & 7)))
        clear_bit = next(p for p in range(bloom.bits)
                         if not bloom._bitmap[p >> 3] & (1 << (p & 7)))
        assert bloom.might_contain_hashed(set_bit, 3 * bloom.bits)
        assert not bloom.might_contain_hashed(clear_bit, 3 * bloom.bits)


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = [f"key{i}" for i in range(500)]
        bloom = BloomFilter(keys)
        assert all(bloom.might_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        keys = [f"key{i}" for i in range(2000)]
        bloom = BloomFilter(keys, bits_per_key=10)
        probes = [f"absent{i}" for i in range(2000)]
        false_positives = sum(bloom.might_contain(p) for p in probes)
        assert false_positives / len(probes) < 0.03  # ~1% expected

    def test_empty_filter(self):
        bloom = BloomFilter([])
        assert not bloom.might_contain("anything")

    def test_encode_decode_roundtrip(self):
        keys = ["alpha", "beta", "gamma"]
        bloom = BloomFilter(keys)
        decoded = BloomFilter.decode(bloom.encode())
        assert all(decoded.might_contain(key) for key in keys)
        assert decoded.bits == bloom.bits
        assert decoded.hashes == bloom.hashes

    def test_decode_garbage_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.decode(b"short")
        with pytest.raises(ValueError):
            BloomFilter.decode(bytes(20))
        # Geometry the constructor never produces: a filter that would
        # answer True for everything, or divide by zero on its first probe.
        def image(bits, hashes):
            return (bits.to_bytes(8, "little") + hashes.to_bytes(2, "little")
                    + bytes(6) + bytes(-(-bits // 8)))

        for bits, hashes in [(0, 0), (0, 3), (8, 0), (64, 31)]:
            with pytest.raises(ValueError, match="geometry"):
                BloomFilter.decode(image(bits, hashes))
        assert BloomFilter.decode(image(8, 1)).hashes == 1
        assert BloomFilter.decode(image(64, 30)).hashes == 30

    def test_invalid_bits_per_key(self):
        with pytest.raises(ValueError):
            BloomFilter(["a"], bits_per_key=0)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.text(min_size=1, max_size=12), min_size=1, max_size=100))
    def test_property_membership_complete(self, keys):
        bloom = BloomFilter(keys)
        assert all(bloom.might_contain(key) for key in keys)


class TestLsmFilterIntegration:
    def test_point_misses_skip_tables(self):
        from tests.test_lsm import make_lsm
        platform, tree = make_lsm(memtable_bytes=1024)
        engine = platform.engine

        def scenario():
            for i in range(100):
                yield engine.process(tree.put(f"present{i:03d}", bytes(40)))
            for i in range(50):
                # Absent keys *inside* the tables' key range, so only the
                # bloom filter (not the range check) can skip the probe.
                yield engine.process(tree.get(f"present{i:03d}x"))

        engine.run_process(scenario())
        assert tree.flush_count > 0
        assert tree.filter_skips > 0

    def test_sstable_might_contain_consistent_with_get(self):
        from repro.db.lsm import SSTable
        table = SSTable([(f"k{i:03d}", b"v") for i in range(100)])
        for i in range(100):
            key = f"k{i:03d}"
            assert table.might_contain(key)
            assert table.get(key) == (True, b"v")
