"""Die-parallel LSM compaction: the merge, batched SST I/O,
sanitizer-clean compaction, and the shared stalled-write fallback batch.

The merge tests pin ``merge_tables`` against a naive newest-wins
reference and against the bloom-filter-guided merge it replaced (kept
here as an oracle); the storage tests check the single-fsync barrier
contract of ``write_tables``; the FTL tests drive twin engines (batched
submit vs per-page ``write``) through a foreground-GC stall storm and
require exact simulated-time equality.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer as simsan
from repro.db.lsm import DeviceTableStorage, LSMTree, MemoryTableStorage, SSTable
from repro.db.lsm.bloom import BloomFilter
from repro.db.lsm.sst import merge_tables
from repro.db.lsm.storage import StorageError
from repro.ftl import PageMapFTL
from repro.nand import FlashArray, NandGeometry, NandTiming
from repro.sim import Engine, RngStreams
from repro.sim.units import USEC
from repro.ssd import ULL_SSD
from repro.wal import BlockWAL
from tests.helpers import Platform, small_ba_params

FAST_NAND = NandTiming("fast", 1 * USEC, 2 * USEC, 10 * USEC,
                       jitter_fraction=0.0, endurance_cycles=10**9)


def reference_merge(tables, drop_tombstones):
    """Oldest-to-newest dict merge: the obviously-correct semantics."""
    merged = {}
    for table in reversed(tables):  # tables are newest first
        merged.update(table.items())
    if drop_tombstones:
        merged = {k: v for k, v in merged.items() if v is not None}
    return merged


def oracle_filter_guided_merge(tables, drop_tombstones):
    """The bloom-guided ``merge_tables`` body this tree ran before the
    dict merge: an entry from an older run probes the newer runs' filters
    and only checks the merged set on a filter hit."""
    merged = {}
    filters = []  # filters of the (newer) tables already merged
    hash_key = BloomFilter.hash_key
    last = len(tables) - 1
    for index, table in enumerate(tables):  # newest first
        if not filters:
            merged.update(zip(table._keys, table._values))
        else:
            for key, value in zip(table._keys, table._values):
                h1, h2 = hash_key(key)
                for newer in filters:
                    if newer.might_contain_hashed(h1, h2):
                        # A newer run may hold this key: exact check.
                        if key not in merged:
                            merged[key] = value
                        break
                else:
                    merged[key] = value
        if index < last:  # the oldest run's filter is never probed
            filters.append(table.filter)
    if drop_tombstones:
        merged = {k: v for k, v in merged.items() if v is not None}
    if not merged:
        return None
    return SSTable.from_sorted(sorted(merged.items()))


def random_stack(seed, ntables=5, keyspace=60, per_table=25):
    rng = random.Random(seed)
    tables = []
    for _ in range(ntables):
        keys = sorted(rng.sample(range(keyspace), per_table))
        entries = [
            (f"k{key:04d}",
             None if rng.random() < 0.2 else bytes([key]) * rng.randint(1, 8))
            for key in keys
        ]
        tables.append(SSTable(entries))
    return tables  # newest first by convention


class TestBloomGuidedMerge:
    """``merge_tables`` against the newest-wins reference and against the
    bloom-guided merge it replaced."""

    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_merge(self, seed, drop):
        tables = random_stack(seed)
        expected = reference_merge(tables, drop)
        merged = merge_tables(tables, drop_tombstones=drop)
        if not expected:
            assert merged is None
        else:
            assert dict(merged.items()) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(  # 1-8 tables, newest first; None is a tombstone
        st.dictionaries(st.integers(min_value=0, max_value=40),
                        st.one_of(st.none(), st.binary(max_size=6)),
                        min_size=1, max_size=25),
        min_size=1, max_size=8),
        st.booleans(), st.booleans())
    def test_matches_both_oracles(self, stack, disjoint, drop):
        # ``disjoint`` gives every table its own key prefix (nothing
        # shadows anything); otherwise keys are shared across tables.
        tables = [
            SSTable(sorted((f"{index if disjoint else 0}k{key:03d}", value)
                           for key, value in entries.items()))
            for index, entries in enumerate(stack)]
        merged = merge_tables(tables, drop_tombstones=drop)
        expected = sorted(reference_merge(tables, drop).items())
        oracle = oracle_filter_guided_merge(tables, drop)
        if not expected:  # everything merged away
            assert merged is None and oracle is None
        else:
            assert merged.items() == expected == oracle.items()

    def test_hashed_probe_matches_unhashed(self):
        keys = [f"key{i}" for i in range(50)]
        bloom = BloomFilter(keys[:25])
        for key in keys:
            h1, h2 = BloomFilter.hash_key(key)
            assert bloom.might_contain_hashed(h1, h2) == bloom.might_contain(key)

    def test_from_sorted_equivalent_to_constructor(self):
        entries = [("a", b"1"), ("b", None), ("c", b"3")]
        assert SSTable.from_sorted(entries).encode() == SSTable(entries).encode()
        with pytest.raises(ValueError, match="at least one"):
            SSTable.from_sorted([])


def make_device_storage():
    platform = Platform(ba_params=small_ba_params(64))
    device = platform.add_block_ssd(ULL_SSD)
    return platform, device, DeviceTableStorage(platform.engine, device)


class TestBatchedTableStorage:
    def test_write_tables_single_fsync_and_roundtrip(self):
        platform, device, storage = make_device_storage()
        engine = platform.engine
        fsyncs = []
        real_fsync = device.fsync
        device.fsync = lambda: (fsyncs.append(1), real_fsync())[1]
        blobs = [(7, b"table-seven" * 40), (3, b"table-three" * 90),
                 (11, b"table-eleven" * 10)]
        engine.run_process(storage.write_tables(blobs))
        assert len(fsyncs) == 1  # one barrier for the whole batch
        assert sorted(storage.table_ids()) == [3, 7, 11]
        # read_tables returns blobs in request order (page-padded, like
        # read_table always has).
        out = engine.run_process(storage.read_tables([11, 7, 3]))
        for got, (_fid, want) in zip(out, [blobs[2], blobs[0], blobs[1]]):
            assert got[:len(want)] == want
            assert got[len(want):] == bytes(len(got) - len(want))

    def test_write_tables_is_time_concurrent(self):
        # Batched writes overlap across the device: the batch must finish
        # faster than the same tables written-and-fsynced one at a time.
        blob = bytes(range(256)) * 64  # 16 KiB -> several pages each
        platform_a, _dev_a, storage_a = make_device_storage()
        platform_a.engine.run_process(
            storage_a.write_tables([(i, blob) for i in range(6)]))
        batched_time = platform_a.engine.now

        platform_b, _dev_b, storage_b = make_device_storage()

        def sequential():
            for i in range(6):
                yield platform_b.engine.process(storage_b.write_table(i, blob))

        platform_b.engine.run_process(sequential())
        assert batched_time < platform_b.engine.now

    def test_read_tables_empty_and_unknown(self):
        platform, _device, storage = make_device_storage()
        assert platform.engine.run_process(storage.read_tables([])) == []
        with pytest.raises(StorageError):
            platform.engine.run_process(storage.read_tables([99]))

    def test_memory_storage_batch_roundtrip(self):
        platform = Platform(ba_params=small_ba_params(64))
        storage = MemoryTableStorage(platform.engine)
        platform.engine.run_process(
            storage.write_tables([(1, b"one"), (2, b"two")]))
        assert platform.engine.run_process(storage.read_tables([2, 1])) == \
            [b"two", b"one"]


def make_device_lsm(memtable_bytes=1024):
    platform = Platform(ba_params=small_ba_params(64))
    log_device = platform.add_block_ssd(ULL_SSD)
    wal = BlockWAL(platform.engine, log_device, platform.cpu, area_pages=4096)
    data_device = platform.add_block_ssd(ULL_SSD, seed=13)
    storage = DeviceTableStorage(platform.engine, data_device)
    tree = LSMTree(platform.engine, wal, storage,
                   memtable_bytes=memtable_bytes, rng=RngStreams(3))
    return platform, tree


class TestCompactionCorrectness:
    def drive(self, platform, tree, ops=520, keyspace=96):
        engine = platform.engine
        expected = {}

        def scenario():
            for i in range(ops):
                slot = i % keyspace
                key = f"k{slot:04d}"
                if slot % 16 == 15 and i >= keyspace:
                    expected.pop(key, None)
                    yield engine.process(tree.delete(key))
                else:
                    value = bytes([i & 0xFF]) * 48
                    expected[key] = value
                    yield engine.process(tree.put(key, value))

        engine.run_process(scenario())
        return expected

    def test_compaction_is_sanitizer_clean(self):
        with simsan.activated() as state:
            platform, tree = make_device_lsm()
            expected = self.drive(platform, tree)
            assert tree.compaction_count >= 1
            assert tree.compaction_bytes > 0
            assert tree.compaction_seconds > 0.0
            engine = platform.engine
            for key, value in expected.items():
                assert engine.run_process(tree.get(key)) == value
            assert engine.run_process(tree.get("k0015")) is None
            assert state.checks > 0
            assert state.violations == 0

    def test_compaction_timing_is_deterministic(self):
        def run():
            # File ids land in the manifest, whose byte length shapes
            # write timing — pin the global counter per run, like the
            # compaction bench leg does.
            SSTable._COUNTER = 0
            platform, tree = make_device_lsm()
            self.drive(platform, tree)
            return (platform.engine.now, tree.compaction_count,
                    tree.compaction_seconds)

        assert run() == run()

    def test_recover_after_compaction_round_trips(self):
        platform, tree = make_device_lsm()
        expected = self.drive(platform, tree)
        engine = platform.engine
        twin = LSMTree(engine, tree.wal, tree.storage,
                       memtable_bytes=2048, rng=RngStreams(3))
        engine.run_process(twin.recover())
        for key, value in expected.items():
            assert engine.run_process(twin.get(key)) == value


def make_ftl(seed=3):
    engine = Engine()
    geometry = NandGeometry(channels=1, dies_per_channel=1, blocks_per_die=8,
                            pages_per_block=4, page_size=64)
    flash = FlashArray(engine, geometry, FAST_NAND, RngStreams(seed))
    return engine, PageMapFTL(engine, flash, overprovision=0.25)


def payload(i):
    return bytes([i % 251]) * 8


class TestStalledWriteFallbackBatch:
    ROUNDS = 30
    BURST = 8

    def drive_per_page(self):
        engine, ftl = make_ftl()
        times = []

        def scenario():
            op = 0
            for _ in range(self.ROUNDS):
                procs = []
                for _ in range(self.BURST):
                    procs.append(engine.process(ftl.write(op % 6, payload(op))))
                    op += 1
                yield engine.all_of(procs)
                times.append(engine.now)

        engine.run_process(scenario())
        return engine, ftl, times

    def drive_submit(self):
        engine, ftl = make_ftl()
        times = []
        fallback_batches = set()

        def scenario():
            batch = ftl.flash.program_batch()
            op = 0
            for _ in range(self.ROUNDS):
                waits = []
                for _ in range(self.BURST):
                    done = engine.event()
                    proc = ftl.write_submit(
                        op % 6, payload(op), batch,
                        on_done=lambda _t, ev=done: ev._succeed_processed())
                    waits.append(proc if proc is not None else done)
                    if ftl._fallback_batch is not None:
                        fallback_batches.add(id(ftl._fallback_batch))
                    op += 1
                yield engine.all_of(waits)
                times.append(engine.now)
            yield from batch.drain()

        engine.run_process(scenario())
        return engine, ftl, times, fallback_batches

    def test_stall_storm_matches_per_page_write_times(self):
        engine_a, ftl_a, times_a = self.drive_per_page()
        engine_b, ftl_b, times_b, batches = self.drive_submit()
        # The storm genuinely stalls (burst arrival under the low
        # watermark), and both paths see the same stall count.
        assert ftl_a.stats.foreground_gc_stalls > 0
        assert ftl_a.stats.foreground_gc_stalls == ftl_b.stats.foreground_gc_stalls
        assert times_a == times_b  # exact simulated-time equality
        assert engine_a.now == engine_b.now
        ftl_b.check_consistency()

    def test_fallback_batch_is_shared_across_stalls(self):
        _engine, ftl, _times, batches = self.drive_submit()
        assert ftl.stats.foreground_gc_stalls > 1
        assert len(batches) == 1  # one primed batch served every stall

    def test_reboot_drops_fallback_batch(self):
        engine, ftl, _times, _batches = self.drive_submit()
        assert ftl._fallback_batch is not None
        engine.purge()
        ftl.reboot()
        assert ftl._fallback_batch is None
