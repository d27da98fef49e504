"""Tests for the LSM engine: memtable, SSTables, tree, recovery.

``OracleSkipList`` keeps the skiplist memtable that ``MemTable`` replaced,
verbatim, as the reference: the same inserts, replaces and tombstones must
give the same reads, order and byte accounting.
"""

import random
from typing import Any, Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer as simsan
from repro.core.faults import CrashHarness
from repro.db.lsm import (
    DeviceTableStorage,
    LSMTree,
    MemoryTableStorage,
    MemTable,
    SSTable,
)
from repro.db.lsm.bloom import BloomFilter
from repro.db.lsm.sst import SstFormatError, merge_tables
from repro.db.lsm.tree import decode_kv, encode_kv
from repro.sim import RngStreams
from repro.ssd import ULL_SSD
from repro.wal import BaWAL, BlockWAL
from tests.helpers import Platform, dual_path_lsm, small_ba_params


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Optional[str], value: Any, level: int) -> None:
        self.key = key
        self.value = value
        self.forward: list[Optional[_Node]] = [None] * level


class OracleSkipList:
    """Ordered string-keyed map with skiplist internals."""

    MAX_LEVEL = 16
    P = 0.5

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0)
        self._head = _Node(None, None, self.MAX_LEVEL)
        self._level = 1
        self._count = 0
        self._bytes = 0

    def __len__(self) -> int:
        return self._count

    @property
    def approximate_bytes(self) -> int:
        """Accumulated key+value bytes (the memtable-full trigger)."""
        return self._bytes

    def _random_level(self) -> int:
        level = 1
        while level < self.MAX_LEVEL and self._rng.random() < self.P:
            level += 1
        return level

    def _find_predecessors(self, key: str) -> list[_Node]:
        update = [self._head] * self.MAX_LEVEL
        node = self._head
        for level in reversed(range(self._level)):
            while node.forward[level] is not None and node.forward[level].key < key:
                node = node.forward[level]
            update[level] = node
        return update

    def insert(self, key: str, value: Any) -> None:
        """Insert or replace ``key``."""
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            self._bytes += self._value_bytes(value) - self._value_bytes(candidate.value)
            candidate.value = value
            return
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._count += 1
        self._bytes += len(key.encode()) + self._value_bytes(value)

    @staticmethod
    def _value_bytes(value: Any) -> int:
        return len(value) if isinstance(value, (bytes, bytearray)) else 8

    def get(self, key: str, default: Any = None) -> Any:
        node = self._head
        for level in reversed(range(self._level)):
            while node.forward[level] is not None and node.forward[level].key < key:
                node = node.forward[level]
        node = node.forward[0]
        if node is not None and node.key == key:
            return node.value
        return default

    def __contains__(self, key: str) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def items(self) -> Iterator[tuple[str, Any]]:
        """Sorted iteration (the flush path)."""
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def range_items(self, start: str, limit: int) -> list[tuple[str, Any]]:
        """Up to ``limit`` items with key >= start, in order (scan support)."""
        update = self._find_predecessors(start)
        node = update[0].forward[0]
        result = []
        while node is not None and len(result) < limit:
            result.append((node.key, node.value))
            node = node.forward[0]
        return result


class TestSkipList:
    """``MemTable``, under the class name its tests have always had."""

    def test_insert_get(self):
        memtable = MemTable()
        memtable.insert("b", b"2")
        memtable.insert("a", b"1")
        memtable.insert("c", b"3")
        assert memtable.get("a") == b"1"
        assert memtable.get("missing") is None
        assert len(memtable) == 3

    def test_replace_updates_value(self):
        memtable = MemTable()
        memtable.insert("k", b"old")
        memtable.insert("k", b"newer")
        assert memtable.get("k") == b"newer"
        assert len(memtable) == 1

    def test_items_sorted(self):
        memtable = MemTable()
        keys = [f"key{i:04d}" for i in random.Random(2).sample(range(1000), 300)]
        for key in keys:
            memtable.insert(key, b"x")
        assert [k for k, _ in memtable.items()] == sorted(keys)

    def test_bytes_accounting(self):
        memtable = MemTable()
        memtable.insert("abc", b"12345")
        assert memtable.approximate_bytes == 8
        memtable.insert("abc", b"1234567890")
        assert memtable.approximate_bytes == 13

    def test_range_items(self):
        memtable = MemTable()
        for i in range(20):
            memtable.insert(f"k{i:02d}", bytes([i]))
        result = memtable.range_items("k05", 3)
        assert [k for k, _ in result] == ["k05", "k06", "k07"]

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           st.binary(max_size=16), max_size=60))
    def test_property_matches_dict(self, mapping):
        memtable = MemTable()
        for key, value in mapping.items():
            memtable.insert(key, value)
        assert dict(memtable.items()) == mapping
        assert [k for k, _ in memtable.items()] == sorted(mapping)


class TestMemTableMatchesOracle:
    pytestmark = pytest.mark.oracle

    KEYS = st.text(alphabet="abcé", max_size=4)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(KEYS, st.one_of(st.none(), st.binary(max_size=24))),
                    max_size=80),
           st.lists(st.tuples(KEYS, st.integers(min_value=-1, max_value=12)),
                    max_size=8))
    def test_same_reads_order_and_bytes(self, writes, ranges):
        memtable, oracle = MemTable(), OracleSkipList(random.Random(7))
        for key, value in writes:  # inserts, replaces and tombstones
            memtable.insert(key, value)
            oracle.insert(key, value)
            assert memtable.approximate_bytes == oracle.approximate_bytes
            assert len(memtable) == len(oracle)
        assert memtable.items() == list(oracle.items())
        for key in {key for key, _value in writes} | {"", "b", "zz"}:
            assert memtable.get(key, "absent") == oracle.get(key, "absent")
            assert (key in memtable) == (key in oracle)
        for start, limit in ranges:
            assert memtable.range_items(start, limit) == oracle.range_items(start, limit)


class TestSSTable:
    def test_roundtrip(self):
        entries = [("a", b"1"), ("b", None), ("c", b"3")]
        table = SSTable(entries)
        decoded = SSTable.decode(table.encode(), file_id=table.file_id)
        assert decoded.items() == entries
        assert decoded.get("b") == (True, None)  # tombstone found
        assert decoded.get("zz") == (False, None)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SSTable([("b", b"1"), ("a", b"2")])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SSTable([("a", b"1"), ("a", b"2")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SSTable([])

    def test_corrupt_decode_rejected(self):
        blob = SSTable([("a", b"1")]).encode()
        with pytest.raises(SstFormatError):
            SSTable.decode(blob[:-1])
        with pytest.raises(SstFormatError):
            SSTable.decode(b"\x00" * 16)

    def test_overlaps(self):
        a = SSTable([("a", b""), ("m", b"")])
        b = SSTable([("k", b""), ("z", b"")])
        c = SSTable([("n", b""), ("z", b"")])
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_merge_newest_wins(self):
        old = SSTable([("a", b"old"), ("b", b"keep")])
        new = SSTable([("a", b"new"), ("c", b"add")])
        merged = merge_tables([new, old], drop_tombstones=False)
        assert dict(merged.items()) == {"a": b"new", "b": b"keep", "c": b"add"}

    def test_merge_drops_tombstones(self):
        old = SSTable([("a", b"x"), ("b", b"y")])
        new = SSTable([("a", None)])
        merged = merge_tables([new, old], drop_tombstones=True)
        assert dict(merged.items()) == {"b": b"y"}

    def test_merge_to_nothing(self):
        table = SSTable([("a", None)])
        assert merge_tables([table], drop_tombstones=True) is None


class TestKvCodec:
    @given(st.text(min_size=1, max_size=20),
           st.one_of(st.none(), st.binary(max_size=64)))
    def test_property_roundtrip(self, key, value):
        assert decode_kv(encode_kv(key, value)) == (key, value)


def make_lsm(storage_kind="memory", memtable_bytes=4096, wal_kind="block"):
    platform = Platform(ba_params=small_ba_params(64))
    log_device = platform.add_block_ssd(ULL_SSD)
    if wal_kind == "block":
        wal = BlockWAL(platform.engine, log_device, platform.cpu, area_pages=4096)
    else:
        wal = BaWAL(platform.engine, platform.api, area_pages=4096)
        platform.engine.run_process(wal.start())
    if storage_kind == "memory":
        storage = MemoryTableStorage(platform.engine)
    else:
        data_device = platform.add_block_ssd(ULL_SSD, seed=13)
        storage = DeviceTableStorage(platform.engine, data_device)
    tree = LSMTree(platform.engine, wal, storage,
                   memtable_bytes=memtable_bytes, rng=RngStreams(3))
    return platform, tree


class TestLSMTree:
    def test_put_get_roundtrip(self):
        platform, tree = make_lsm()
        engine = platform.engine

        def scenario():
            yield engine.process(tree.put("alpha", b"one"))
            yield engine.process(tree.put("beta", b"two"))
            return (yield engine.process(tree.get("alpha")))

        assert engine.run_process(scenario()) == b"one"

    def test_delete_hides_key(self):
        platform, tree = make_lsm()
        engine = platform.engine

        def scenario():
            yield engine.process(tree.put("k", b"v"))
            yield engine.process(tree.delete("k"))
            return (yield engine.process(tree.get("k")))

        assert engine.run_process(scenario()) is None

    def test_flush_after_memtable_fills(self):
        platform, tree = make_lsm(memtable_bytes=2048)
        engine = platform.engine

        def scenario():
            for i in range(60):
                yield engine.process(tree.put(f"key{i:04d}", bytes(100)))
            # Everything must still be readable across memtable + SSTs.
            values = []
            for i in range(60):
                values.append((yield engine.process(tree.get(f"key{i:04d}"))))
            return values

        values = engine.run_process(scenario())
        assert all(v == bytes(100) for v in values)
        assert tree.flush_count > 0

    def test_compaction_merges_l0(self):
        platform, tree = make_lsm(memtable_bytes=1024)
        engine = platform.engine

        def scenario():
            for i in range(300):
                yield engine.process(tree.put(f"key{i % 40:04d}", bytes([i % 251]) * 60))
            return (yield engine.process(tree.get("key0000")))

        engine.run_process(scenario())
        engine.run()
        assert tree.compaction_count > 0
        assert len(tree._l0) < tree.l0_compaction_trigger

    def test_overwrites_return_latest_across_levels(self):
        platform, tree = make_lsm(memtable_bytes=1024)
        engine = platform.engine

        def scenario():
            for round_no in range(8):
                for i in range(20):
                    value = f"{round_no}-{i}".encode().ljust(50, b".")
                    yield engine.process(tree.put(f"key{i:04d}", value))
            results = []
            for i in range(20):
                results.append((yield engine.process(tree.get(f"key{i:04d}"))))
            return results

        results = engine.run_process(scenario())
        for i, value in enumerate(results):
            assert value.startswith(f"7-{i}".encode())

    def test_scan_merges_sources(self):
        platform, tree = make_lsm(memtable_bytes=1024)
        engine = platform.engine

        def scenario():
            for i in range(50):
                yield engine.process(tree.put(f"key{i:04d}", bytes([i])))
            yield engine.process(tree.delete("key0003"))
            return (yield engine.process(tree.scan("key0000", 5)))

        rows = engine.run_process(scenario())
        assert [k for k, _ in rows] == [
            "key0000", "key0001", "key0002", "key0004", "key0005",
        ]

    def test_scan_reaches_past_a_run_of_newer_tombstones(self):
        # 40 tombstones in L0 shadow the head of a live L1 run: more than
        # the 32 extra rows fetched per source on the first pass.
        platform, tree = make_lsm()
        tree._l1 = [SSTable([(f"k{i:03d}", b"v%d" % i) for i in range(100)])]
        tree._l0 = [SSTable([(f"k{i:03d}", None) for i in range(40)])]
        start = platform.engine.now
        rows = platform.engine.run_process(tree.scan("k000", 10))
        assert rows == [(f"k{i:03d}", b"v%d" % i) for i in range(40, 50)]
        assert platform.engine.now - start == pytest.approx(
            tree.READ_CPU + 10 * 0.1e-6)

    def test_scan_never_returns_a_row_past_a_cut_off_source(self):
        # The memtable's first fetch ends at m041, every key but the last
        # a tombstone; L1's live rows all sort after it.  A row from L1 is
        # only safe once the memtable has been read past it.
        platform, tree = make_lsm()
        for i in range(45):
            tree._active.insert(f"m{i:03d}", None if i < 44 else b"mem")
        tree._l1 = [SSTable([(f"n{i:03d}", b"l1") for i in range(50)])]
        rows = platform.engine.run_process(tree.scan("m000", 3))
        assert rows == [("m044", b"mem"), ("n000", b"l1"), ("n001", b"l1")]

    def test_recovery_from_device_storage(self):
        platform, tree = make_lsm(storage_kind="device", memtable_bytes=2048)
        engine = platform.engine

        def scenario():
            for i in range(80):
                yield engine.process(tree.put(f"key{i:04d}", b"val-%03d" % i))

        engine.run_process(scenario())
        platform.power.power_cycle()
        # Fresh tree over the same (recovered) WAL + storage.
        fresh = LSMTree(engine, tree.wal, tree.storage, memtable_bytes=2048,
                        rng=RngStreams(4))

        def recovery():
            replayed = yield engine.process(fresh.recover())
            values = []
            for i in range(80):
                values.append((yield engine.process(fresh.get(f"key{i:04d}"))))
            return replayed, values

        replayed, values = engine.run_process(recovery())
        assert values == [b"val-%03d" % i for i in range(80)]
        assert replayed > 0  # some records were only in the WAL

    def test_recovery_with_ba_wal(self):
        platform, tree = make_lsm(storage_kind="device", wal_kind="ba",
                                  memtable_bytes=2048)
        engine = platform.engine

        def scenario():
            for i in range(40):
                yield engine.process(tree.put(f"key{i:04d}", b"ba-%03d" % i))

        engine.run_process(scenario())
        platform.power.power_cycle()
        fresh = LSMTree(engine, tree.wal, tree.storage, memtable_bytes=2048,
                        rng=RngStreams(4))

        def recovery():
            yield engine.process(fresh.recover())
            values = []
            for i in range(40):
                values.append((yield engine.process(fresh.get(f"key{i:04d}"))))
            return values

        values = engine.run_process(recovery())
        assert values == [b"ba-%03d" % i for i in range(40)]

    def test_write_stall_when_both_memtables_full(self):
        platform, tree = make_lsm(storage_kind="device", memtable_bytes=512)
        engine = platform.engine

        def scenario():
            for i in range(200):
                yield engine.process(tree.put(f"key{i:05d}", bytes(100)))

        engine.run_process(scenario())
        assert tree.write_stalls >= 0  # may or may not stall; counter exists
        assert tree.flush_count > 1

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.text(min_size=1, max_size=6),
                              st.one_of(st.none(), st.binary(max_size=40))),
                    min_size=1, max_size=80))
    def test_property_matches_dict(self, ops):
        platform, tree = make_lsm(memtable_bytes=1024)
        engine = platform.engine
        shadow: dict[str, bytes] = {}

        def scenario():
            for key, value in ops:
                if value is None:
                    yield engine.process(tree.delete(key))
                    shadow.pop(key, None)
                else:
                    yield engine.process(tree.put(key, value))
                    shadow[key] = value
            for key in {k for k, _v in ops}:
                got = yield engine.process(tree.get(key))
                assert got == shadow.get(key)

        engine.run_process(scenario())


class TestDeviceTableStorage:
    def test_write_read_roundtrip(self):
        platform = Platform()
        device = platform.add_block_ssd(ULL_SSD)
        storage = DeviceTableStorage(platform.engine, device)
        engine = platform.engine
        blob = bytes(range(256)) * 20

        def scenario():
            yield engine.process(storage.write_table(1, blob))
            return (yield engine.process(storage.read_table(1)))

        assert engine.run_process(scenario())[:len(blob)] == blob

    def test_delete_recycles_extents(self):
        platform = Platform()
        device = platform.add_block_ssd(ULL_SSD)
        storage = DeviceTableStorage(platform.engine, device, capacity_pages=16)
        engine = platform.engine

        def scenario():
            for round_no in range(10):
                yield engine.process(storage.write_table(round_no, bytes(4096 * 4)))
                storage.delete_table(round_no)

        engine.run_process(scenario())  # would exhaust without recycling

    def test_manifest_roundtrip_across_instances(self):
        platform = Platform()
        device = platform.add_block_ssd(ULL_SSD)
        storage = DeviceTableStorage(platform.engine, device)
        engine = platform.engine

        def scenario():
            yield engine.process(storage.write_table(7, b"table-seven"))
            yield engine.process(storage.write_manifest({"wal_start": 123}))

        engine.run_process(scenario())
        fresh = DeviceTableStorage(engine, device)

        def reload():
            manifest = yield engine.process(fresh.read_manifest())
            blob = yield engine.process(fresh.read_table(7))
            return manifest, blob

        manifest, blob = engine.run_process(reload())
        assert manifest["wal_start"] == 123
        assert blob[:11] == b"table-seven"

    def test_recovered_manifest_frees_the_space_of_deleted_tables(self):
        platform = Platform()
        device = platform.add_block_ssd(ULL_SSD)
        storage = DeviceTableStorage(platform.engine, device)
        engine = platform.engine
        first = storage.base_lpn + storage.MANIFEST_PAGES

        def scenario():
            yield from storage.write_table(1, bytes(4096 * 4))
            yield from storage.write_table(2, bytes(4096 * 4))
            storage.delete_table(1)
            yield from storage.write_manifest({"wal_start": 0})

        engine.run_process(scenario())
        fresh = DeviceTableStorage(engine, device)
        engine.run_process(fresh.read_manifest())
        assert fresh._free == [(first, 4)]
        assert fresh._allocate(4) == first  # table 1's extent, not 16

    def test_crash_recover_cycles_reuse_freed_space(self):
        """Each cycle writes a table, deletes the previous one and
        reopens from the manifest: room for two tables lasts forever."""
        platform = Platform()
        device = platform.add_block_ssd(ULL_SSD)
        manifest_pages = DeviceTableStorage.MANIFEST_PAGES
        engine = platform.engine
        storage = DeviceTableStorage(engine, device,
                                     capacity_pages=manifest_pages + 8)
        for cycle in range(6):
            def step(storage=storage, cycle=cycle):
                yield from storage.write_table(cycle, bytes(4096 * 4))
                storage.delete_table(cycle - 1)
                yield from storage.write_manifest({"wal_start": cycle})

            engine.run_process(step())
            storage = DeviceTableStorage(engine, device,
                                         capacity_pages=manifest_pages + 8)
            assert engine.run_process(storage.read_manifest()) == {"wal_start": cycle}
        assert storage.table_ids() == [5]


class TestLeveledCompaction:
    def test_l1_runs_stay_non_overlapping(self):
        platform, tree = make_lsm(memtable_bytes=512)
        engine = platform.engine

        def scenario():
            for i in range(400):
                yield engine.process(tree.put(f"key{i % 80:04d}", bytes(60)))

        engine.run_process(scenario())
        engine.run()
        assert tree.compaction_count > 0
        runs = tree._l1
        assert runs == sorted(runs, key=lambda t: t.min_key)
        for left, right in zip(runs, runs[1:]):
            assert left.max_key < right.min_key

    def test_output_runs_are_size_bounded(self):
        platform, tree = make_lsm(memtable_bytes=512)
        engine = platform.engine

        def scenario():
            for i in range(300):
                yield engine.process(tree.put(f"key{i:04d}", bytes(100)))

        engine.run_process(scenario())
        engine.run()
        if len(tree._l1) > 1:
            for run in tree._l1[:-1]:
                assert run.data_bytes <= 3 * tree.memtable_bytes

    def test_tombstones_do_not_resurrect_values(self):
        """Deleting a key whose value sits in an L1 run, then compacting,
        must never bring the old value back."""
        platform, tree = make_lsm(memtable_bytes=512)
        engine = platform.engine

        def scenario():
            # Push 'victim' down into L1 via churn.
            yield engine.process(tree.put("victim", b"old-value"))
            for i in range(200):
                yield engine.process(tree.put(f"filler{i:04d}", bytes(60)))
            yield engine.process(tree.delete("victim"))
            # More churn forces compactions that merge the tombstone down.
            for i in range(200):
                yield engine.process(tree.put(f"more{i:04d}", bytes(60)))
            return (yield engine.process(tree.get("victim")))

        assert engine.run_process(scenario()) is None
        engine.run()

        def after_compaction():
            return (yield engine.process(tree.get("victim")))

        assert engine.run_process(after_compaction()) is None

    def test_recovery_with_multiple_l1_runs(self):
        platform, tree = make_lsm(storage_kind="device", memtable_bytes=512)
        engine = platform.engine

        def scenario():
            for i in range(250):
                yield engine.process(tree.put(f"key{i:04d}", b"v%04d" % i))

        engine.run_process(scenario())
        engine.run()
        platform.power.power_cycle()
        fresh = LSMTree(engine, tree.wal, tree.storage, memtable_bytes=512,
                        rng=RngStreams(9))

        def recovery():
            yield engine.process(fresh.recover())
            values = []
            for i in range(250):
                values.append((yield engine.process(fresh.get(f"key{i:04d}"))))
            return values

        values = engine.run_process(recovery())
        assert values == [b"v%04d" % i for i in range(250)]


def oracle_linear_lookup(tree, key):
    """The ``_lookup`` the bisected one replaced — every L1 run range-checked
    in turn — counting filter skips locally instead of on the tree.
    Returns ``((found, value), skips)``."""
    skips = 0
    sentinel = object()
    for memtable in (tree._active, tree._immutable):
        if memtable is None:
            continue
        value = memtable.get(key, sentinel)
        if value is not sentinel:
            return (True, value), skips
    key_hash = None
    for table in reversed(tree._l0):
        if key_hash is None:
            key_hash = BloomFilter.hash_key(key)
        if not table.filter.might_contain_hashed(*key_hash):
            skips += 1
            continue
        found, value = table.get(key)
        if found:
            return (True, value), skips
    for table in tree._l1:
        if table.min_key <= key <= table.max_key:
            if key_hash is None:
                key_hash = BloomFilter.hash_key(key)
            if not table.filter.might_contain_hashed(*key_hash):
                skips += 1
                continue
            found, value = table.get(key)
            if found:
                return (True, value), skips
    return (False, None), skips


class TestBisectedLookup:
    def assert_lookups_match(self, tree, keys):
        for key in keys:
            expected, skips = oracle_linear_lookup(tree, key)
            before = tree.filter_skips
            assert tree._lookup(key) == expected, key
            assert tree.filter_skips - before == skips, key

    def test_matches_linear_scan_on_directed_runs(self):
        _platform, tree = make_lsm()
        # Four L1 runs of even keys with gaps between them, so probes fall
        # below the first run, above the last, in the gaps, on every run's
        # first and last key, and on absent (odd) keys inside a run.
        tree._l1 = [
            SSTable([(f"k{i:03d}", None if i % 10 == 4 else b"l1-%d" % i)
                     for i in range(lo, lo + 20, 2)])
            for lo in (10, 40, 70, 100)]
        tree._l0 = [  # oldest first; both straddle L1 runs and gaps
            SSTable([(f"k{i:03d}", b"old-%d" % i) for i in range(0, 130, 7)]),
            SSTable([(f"k{i:03d}", None if i % 3 == 0 else b"new-%d" % i)
                     for i in range(5, 130, 11)]),
        ]
        tree._active.insert("k044", b"mem")
        tree._active.insert("k072", None)
        keys = [f"k{i:03d}" for i in range(0, 135)] + ["", "a", "k", "k0285", "z"]
        self.assert_lookups_match(tree, keys)
        assert tree.filter_skips > 0
        # No L0 at all: the L1 run is the only table a lookup can touch.
        tree._l0 = []
        self.assert_lookups_match(tree, keys)
        # A single run, and no runs.
        tree._l1 = tree._l1[:1]
        self.assert_lookups_match(tree, keys)
        tree._l1 = []
        self.assert_lookups_match(tree, keys)

    def test_matches_linear_scan_on_a_driven_tree(self):
        platform, tree = make_lsm(memtable_bytes=512)
        engine = platform.engine

        def scenario():
            for i in range(600):
                slot = (i * 7) % 150
                if i % 13 == 12:
                    yield from tree.delete(f"key{slot:04d}")
                else:
                    yield from tree.put(f"key{slot:04d}", b"%04d" % i + bytes(56))

        engine.run_process(scenario())
        assert len(tree._l1) >= 3 and tree._l0
        present = [f"key{i:04d}" for i in range(150)]
        absent = [key + "x" for key in present] + ["a", "key", "zzz"]
        self.assert_lookups_match(tree, present + absent)

    def test_filters_are_built_only_for_tables_a_lookup_misses(self):
        _platform, tree = make_lsm()
        tree._l1 = [SSTable([(f"k{i:03d}", b"l1") for i in range(lo, lo + 20, 2)])
                    for lo in (0, 20, 40)]

        def built():
            return [table for table in tree._l0 + tree._l1
                    if table._filter is not None]

        assert tree._lookup("k022") == (True, b"l1")
        assert built() == []  # a hit builds no filter
        assert tree._lookup("k023") == (False, None)
        assert built() == [tree._l1[1]]  # a miss, its own table's only
        tree._l0 = [SSTable([("k050", b"l0")]), SSTable([("k051", b"l0")])]
        assert tree._lookup("k004") == (True, b"l1")
        assert built() == tree._l0 + [tree._l1[1]]  # L0 missed, L1 hit


class TestConcurrentWriters:
    """8 closed-loop writers x 500 puts of 200 B striding 400 keys (write
    ``n`` goes to key ``n % 400``, so each key has one writer and its
    acknowledged values are totally ordered)."""

    WRITERS = 8
    PUTS = 500
    KEYS = 400
    # Sized so flushes land while compactions are writing their outputs.
    TREE = dict(memtable_bytes=2048, l0_compaction_trigger=2)

    def start_writers(self, engine, tree, started, acked):
        def writer(index):
            for put in range(self.PUTS):
                number = put * self.WRITERS + index
                key = f"k{number % self.KEYS:05d}"
                value = b"%08d" % number + bytes(192)
                started[key] = value
                yield from tree.put(key, value)
                acked[key] = value

        return [engine.process(writer(index)) for index in range(self.WRITERS)]

    @staticmethod
    def read_all(engine, tree, keys):
        def scenario():
            values = {}
            for key in keys:
                values[key] = yield from tree.get(key)
            return values

        return engine.run_process(scenario())

    def test_flush_during_compaction_write_loses_nothing(self):
        platform = Platform(seed=3)
        engine = platform.engine
        tree = dual_path_lsm(platform, RngStreams(3), **self.TREE)
        compact = tree._compact
        flushes_during_compaction = [0]

        def checked_compact():
            flushes = tree.flush_count
            yield from compact()
            flushes_during_compaction[0] += tree.flush_count - flushes
            for left, right in zip(tree._l1, tree._l1[1:]):
                assert left.max_key < right.min_key

        tree._compact = checked_compact
        started, acked = {}, {}
        engine.run(until=engine.all_of(
            self.start_writers(engine, tree, started, acked)))
        engine.run()
        # The window this test is about was actually hit: tables were
        # flushed into L0 while a compaction was writing its outputs.
        assert flushes_during_compaction[0] > 0
        assert tree.compaction_count > 10
        assert len(acked) == self.KEYS
        live = self.read_all(engine, tree, sorted(acked))
        assert not [key for key in live if live[key] != acked[key]]

    def cut_and_recover(self, after):
        """Write for ``after`` simulated seconds, cut power, reopen, and
        compare every key sent.  Returns the tree as it was at the cut,
        the acknowledged values, and the keys that came back wrong."""
        platform = Platform(seed=3)
        engine = platform.engine
        tree = dual_path_lsm(platform, RngStreams(3), **self.TREE)
        started, acked = {}, {}
        self.start_writers(engine, tree, started, acked)
        CrashHarness(platform).crash_at(after)
        fresh = dual_path_lsm(platform, RngStreams(4), start_wal=False,
                              **self.TREE)
        engine.run_process(fresh.recover())
        recovered = self.read_all(engine, fresh, sorted(started))
        # A key's writer may have had one more put logged but not yet
        # acknowledged when the power failed; either value is correct.
        wrong = [key for key, value in recovered.items()
                 if value not in (acked.get(key), started[key])]
        return tree, acked, wrong

    def test_power_loss_mid_run_recovers_every_acked_write(self):
        # 1 ms in: all eight writers mid-flight, past a dozen rotations.
        tree, acked, wrong = self.cut_and_recover(1e-3)
        assert tree.flush_count > 10 and len(acked) == self.KEYS
        assert not wrong

    def test_power_cut_sweep_recovers_every_acked_write(self):
        """A cut every 50 us over the first 2 ms: each key holds its last
        acknowledged value or a later sent one, wherever the cut falls
        relative to a rotation, a flush or a manifest write."""
        wrong = {}
        for step in range(1, 41):
            _tree, _acked, keys = self.cut_and_recover(step * 50e-6)
            if keys:
                wrong[step * 50] = keys
        assert not wrong, f"stale keys by cut (us): {wrong}"

    def test_manifest_truncating_past_an_unapplied_record_is_caught(self):
        platform = Platform(seed=3)
        tree = dual_path_lsm(platform, RngStreams(3), **self.TREE)
        tree._wal_start = 4096
        tree._unapplied.add(1024)
        with simsan.activated():
            with pytest.raises(simsan.SanitizerError, match="lsm.wal-truncation"):
                tree._manifest()
