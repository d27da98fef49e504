#!/usr/bin/env python3
"""What does the LSM engine's own data plane cost the simulator?

    python scripts/lsm_cost.py [--repeats 5] [--smoke]
    (~3 s; ``--smoke`` < 2 s, on a 2-core box)

None of this work carries a simulated cost — the model charges a flat
``READ_CPU``/``WRITE_CPU`` per operation and the device time of SSTable
I/O — so it shows only on the wall clock.  At the shape ``lsm-dual``
runs (4 x 128-key L0 tables over 16 x 250-key L1 runs of a 4 000-key
space, 1 KiB values into a 128 KiB memtable) it prints

* wall ns per input key of one compaction merge (``merge_tables`` over
  fresh tables each pass, as every real compaction sees them),
* wall ns per key of one bloom filter build,
* wall us per point lookup (``LSMTree._lookup``) that hits in L1 and
  that misses everywhere, with 3 L0 tables and 16 L1 runs, filters warm,
* wall ns per memtable insert, filling fresh memtables of the tree's
  own type until full (overwrites included), and wall us per flush
  (``_flush_immutable`` of a full memtable into DRAM table storage:
  the sorted items to an SSTable, its image and the copy)
  (``perf_counter`` brackets; best of ``--repeats`` passes), and

exact counts, taken on separate passes so the wrappers that count them
are not inside a timed region:

* filter probes, key digests and filters built in one merge, and how
  many of its inputs had a filter built for it,
* the most digests and probes any one of those lookups makes (and of
  lookups below and above every table's range),
* filter probes and filters built while the YCSB-A load phase writes,
  then filter probes per operation, filters built, distinct tables
  probed and distinct tables a GET missed (reached, and did not hold
  the key, whatever its filter said) on a fixed-seed 2 000-op YCSB-A
  run over a device-backed tree (BA-WAL on the byte path, SSTables on
  the block path of the same 2B-SSD),
* Python opcodes per operation of that run phase, every layer included
  (``_meter.opcodes``: exact and repeatable, but a call into C counts
  as one opcode however much it does).

Rows on this tree: 0 / 0 / 0 / 0 for the merge, 1 digest and 4 probes
for a lookup, 0 and 0 for the load, then 0.464 probes per op and 22
filters built for 22 tables probed and 22 missed (54 flushes, 13
compactions), and 2 708.5 opcodes per op.  Before a table built its
filter only on a missed lookup (and before the memtable was a dict
beside a sorted key list), the same run made 0.710 probes per op, built
114 filters for the 114 tables probed (22 missed) and ran 3 889.4
opcodes per op; a memtable insert took ~3 us of wall there and ~0.7 us
here.

Read-only use of ``src/``: everything is observed from outside, so the
same script runs on any commit (docs/performance.md, "LSM data plane",
has the before/after).  The counts have ceilings: a merge probes and
digests nothing and builds no filter, a lookup digests its key at most
once and probes at most every L0 table plus one L1 run, the load phase
probes and builds nothing, and the YCSB run (at least ``YCSB_FLUSHES``
flushes and ``YCSB_COMPACTIONS`` compactions) makes some probes but no
more than ``YCSB_PROBES_PER_OP`` per op, builds no more filters than
there are tables a GET missed (nor than tables a lookup probed), and
runs no more than ``YCSB_OPCODES_PER_OP`` opcodes per op (CPython 3.11).
Lowering a ceiling after a real cut is the point; raising one needs the
reason in the commit that does it.  The script exits non-zero when one
is broken; ``--smoke`` is the counts alone (< 2 s), which tier-1 runs
(``tests/test_meters.py``).  Copy it into a parent checkout with
``scripts/_meter.py`` for a before/after.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from _meter import best_of, exit_status, opcodes, wrapped  # noqa: E402  (scripts/_meter.py)
from repro.db.lsm import (  # noqa: E402
    DeviceTableStorage,
    LSMTree,
    MemoryTableStorage,
    SSTable,
)
from repro.db.lsm.bloom import BloomFilter  # noqa: E402
from repro.db.lsm.sst import merge_tables  # noqa: E402
from repro.platform import Platform  # noqa: E402
from repro.sim import Engine  # noqa: E402
from repro.wal.ba_wal import BaWAL  # noqa: E402
from repro.workloads.ycsb import YcsbConfig, YcsbOp, YcsbWorkload  # noqa: E402

KEYSPACE = 4000
L1_RUNS, L1_KEYS = 16, 250
L0_TABLES, L0_KEYS = 4, 128
LOOKUP_L0 = 3
VALUE = bytes(64)
MEMTABLE_BYTES, MEMTABLE_VALUE = 128 * 1024, bytes(1024)  # lsm-dual's
MEMTABLES = 40  # filled and flushed per timed pass

YCSB_OPS = 2000
YCSB_RECORDS = 1000
YCSB_VALUE_BYTES = 256
YCSB_MEMTABLE_BYTES = 8 * 1024
AREA_PAGES = 4096
# Measured 0.4635 since a table builds its filter on its first missed
# lookup instead of its first probe; 0.710 on the tree that introduced
# this script and 27.476 on its parent, whose compaction merge probed
# filters per key (one lsm-dual round: 26.8 -> 1.78).
YCSB_PROBES_PER_OP = 0.4635
# Python opcodes per op of the same run phase (CPython 3.11), all layers.
YCSB_OPCODES_PER_OP = 2708.5235
YCSB_FLUSHES, YCSB_COMPACTIONS = 40, 10  # the run must reach both


def key_name(index: int) -> str:
    return f"user{index:08d}"


def lsm_dual_tables(rng: random.Random, l0_tables: int = L0_TABLES):
    """Fresh ``(l0 oldest first, l1 sorted)`` tables at the lsm-dual shape."""
    l1 = [SSTable.from_sorted([(key_name(index), VALUE)
                               for index in range(run * L1_KEYS,
                                                  (run + 1) * L1_KEYS)])
          for run in range(L1_RUNS)]
    l0 = [SSTable.from_sorted([(key_name(index), VALUE) for index in
                               sorted(rng.sample(range(KEYSPACE), L0_KEYS))])
          for _ in range(l0_tables)]
    return l0, l1


@contextmanager
def counted():
    """Count ``BloomFilter`` digests, probes and builds made inside."""
    counts = {"digests": 0, "probes": 0, "built": 0, "probed": set()}

    def bump(name):
        counts[name] += 1

    def probe(self, _h1, _h2):
        counts["probes"] += 1
        counts["probed"].add(self)

    with (wrapped(BloomFilter, "hash_key", lambda _key: bump("digests")),
          wrapped(BloomFilter, "might_contain_hashed", probe),
          wrapped(BloomFilter, "__init__", lambda *_a, **_k: bump("built"))):
        yield counts


def device_tree(memtable_bytes: int):
    platform = Platform(seed=1)
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=AREA_PAGES)
    engine.run_process(wal.start())
    storage = DeviceTableStorage(engine, platform.device, base_lpn=AREA_PAGES)
    return platform, LSMTree(engine, wal, storage, memtable_bytes=memtable_bytes,
                             rng=platform.rng.fork("lsm"))


def lookup_tree():
    """A tree holding 3 L0 tables over the 16 L1 runs, filters built, and
    the keys to probe: present in L1 only / absent but inside a run."""
    _platform, tree = device_tree(128 * 1024)
    tree._l0, tree._l1 = lsm_dual_tables(random.Random(7), LOOKUP_L0)
    for table in tree._l0 + tree._l1:
        table.filter  # noqa: B018  (build now, outside any measurement)
    in_l0 = {key for table in tree._l0 for key, _value in table.items()}
    rng = random.Random(11)
    hits = [key for key in map(key_name, rng.sample(range(KEYSPACE), 1000))
            if key not in in_l0]
    misses = [key_name(index) + "x" for index in
              rng.sample(range(KEYSPACE), 1000)]
    return tree, hits, misses


# -- timings -----------------------------------------------------------------------


def time_merge() -> float:
    l0, l1 = lsm_dual_tables(random.Random(3))
    inputs = list(reversed(l0)) + l1  # newest first
    start = perf_counter()
    merged = merge_tables(inputs, drop_tombstones=True)
    elapsed = perf_counter() - start
    assert len(merged) == KEYSPACE
    return elapsed / (L0_TABLES * L0_KEYS + L1_RUNS * L1_KEYS) * 1e9


def time_filter_build() -> float:
    keys = [key_name(index) for index in range(L1_KEYS)]
    start = perf_counter()
    for _ in range(16):
        BloomFilter(keys)
    return (perf_counter() - start) / (16 * L1_KEYS) * 1e9


def flush_tree() -> LSMTree:
    """A tree that only flushes: DRAM table storage, no compaction, and
    no log (a flush only moves the log's low water mark)."""
    engine = Engine()
    return LSMTree(engine, SimpleNamespace(low_water_lsn=0),
                   MemoryTableStorage(engine), memtable_bytes=MEMTABLE_BYTES,
                   l0_compaction_trigger=1 << 30)


def memtable_writes(rng: random.Random) -> list:
    """The keys one memtable takes before it is full: lsm-dual's 1 KiB
    values over its 4 000-key space, overwrites included."""
    keys, size = [], 0
    while size < MEMTABLE_BYTES:
        keys.append(key_name(rng.randrange(KEYSPACE)))
        size += len(keys[-1]) + len(MEMTABLE_VALUE)
    return keys


def fill(memtable, keys):
    for key in keys:
        memtable.insert(key, MEMTABLE_VALUE)
    return memtable


def time_memtable_insert(tree, batches) -> float:
    fresh = type(tree._active)  # this tree's memtable, whichever it is
    start = perf_counter()
    for keys in batches:
        fill(fresh(), keys)
    return (perf_counter() - start) / sum(map(len, batches)) * 1e9


def time_memtable_flush(tree, batches) -> float:
    """Wall ns of ``_flush_immutable`` per full memtable: its sorted
    items to an SSTable, the table's image and the DRAM copy."""
    fresh = type(tree._active)
    memtables = [fill(fresh(), keys) for keys in batches]
    engine = tree.engine
    tree._l0 = []
    start = perf_counter()
    for memtable in memtables:
        tree._immutable = memtable
        engine.run_process(tree._flush_immutable())
    return (perf_counter() - start) / len(memtables) * 1e9


def time_lookups(tree, keys, found: bool) -> float:
    lookup = tree._lookup
    start = perf_counter()
    for key in keys:
        lookup(key)
    elapsed = perf_counter() - start
    assert all(lookup(key)[0] is found for key in keys[:50])
    return elapsed / len(keys) * 1e6


# -- counts ------------------------------------------------------------------------


def count_merge() -> dict:
    l0, l1 = lsm_dual_tables(random.Random(3))
    inputs = list(reversed(l0)) + l1
    with counted() as counts:
        merge_tables(inputs, drop_tombstones=True)
    return {"probes": counts["probes"], "digests": counts["digests"],
            "built": counts["built"],
            "filters_built": sum(t._filter is not None for t in inputs)}


def count_lookups() -> dict:
    tree, hits, misses = lookup_tree()
    worst = {"digests": 0, "probes": 0}
    for key in hits + misses + ["a", "zzz"]:
        with counted() as counts:
            tree._lookup(key)
        for name in worst:
            worst[name] = max(worst[name], counts[name])
    return {**worst, "probe_ceiling": len(tree._l0) + 1}


def ycsb_run():
    """A fixed-seed YCSB-A run over a device-backed tree: the tree, its
    engine, the load and run requests, and the process that issues them."""
    SSTable._COUNTER = 0  # file ids shape manifest bytes, hence timing
    platform, tree = device_tree(YCSB_MEMTABLE_BYTES)
    workload = YcsbWorkload(
        YcsbConfig.workload_a(payload_bytes=YCSB_VALUE_BYTES,
                              record_count=YCSB_RECORDS), random.Random(1))
    load = list(workload.load_requests())
    run = [workload.next_request() for _ in range(YCSB_OPS)]

    def drive(requests):
        for request in requests:
            if request.op is YcsbOp.READ:
                yield from tree.get(request.key)
            else:
                yield from tree.put(request.key, request.value)

    return platform.engine, tree, load, run, drive


def tables_missed(tree, key) -> list:
    """The tables a lookup of ``key`` reaches and does not find it in:
    every L0 table newest first, then the L1 run whose range holds the
    key, up to the first that holds it — whatever the filters say."""
    if any(memtable is not None and key in memtable
           for memtable in (tree._active, tree._immutable)):
        return []
    missed = []
    for table in list(reversed(tree._l0)) + [
            run for run in tree._l1 if run.min_key <= key <= run.max_key]:
        if table.get(key)[0]:
            break
        missed.append(table)
    return missed


def count_ycsb() -> dict:
    engine, tree, load, run, drive = ycsb_run()
    missed: set = set()
    with counted() as counts:
        engine.run_process(drive(load))
        engine.run()
        loaded = {"load_probes": counts["probes"], "load_built": counts["built"]}
        counts.update(probes=0, digests=0)  # per op of the run phase only
        with wrapped(tree, "_lookup",
                     lambda key: missed.update(tables_missed(tree, key))):
            engine.run_process(drive(run))
            engine.run()
    return {"probes_per_op": counts["probes"] / YCSB_OPS,
            "filters_built": counts["built"],
            "tables_probed": len(counts["probed"]),
            "tables_missed": len(missed),
            "flushes": tree.flush_count, "compactions": tree.compaction_count,
            **loaded}


def count_ycsb_opcodes() -> float:
    """Python opcodes per operation of the same run phase, nothing wrapped."""
    engine, _tree, load, run, drive = ycsb_run()
    engine.run_process(drive(load))
    engine.run()

    def phase():
        engine.run_process(drive(run))
        engine.run()

    return opcodes(phase)[1] / YCSB_OPS


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock cost and bloom-filter work of the LSM "
                    "engine's merge, filter build, point lookup and "
                    "memtable.")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes per row, best kept (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="counts and their ceilings only (< 2 s)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if not args.smoke:
        tree, hits, misses = lookup_tree()
        print(f"lsm-dual shape: {L0_TABLES} x {L0_KEYS}-key L0 over "
              f"{L1_RUNS} x {L1_KEYS}-key L1; best of {args.repeats}:")
        print(f"  merge          {best_of(args.repeats, time_merge):8.1f} "
              "ns per input key")
        print(f"  filter build   {best_of(args.repeats, time_filter_build):8.1f} "
              "ns per key")
        hit = best_of(args.repeats, lambda: time_lookups(tree, hits, True))
        miss = best_of(args.repeats, lambda: time_lookups(tree, misses, False))
        print(f"  lookup, L1 hit {hit:8.2f} us   ({LOOKUP_L0} L0 + "
              f"{L1_RUNS} L1 runs, filters warm)")
        print(f"  lookup, miss   {miss:8.2f} us")
        flushes = flush_tree()
        batches = [memtable_writes(random.Random(seed))
                   for seed in range(MEMTABLES)]
        insert = best_of(args.repeats,
                         lambda: time_memtable_insert(flushes, batches))
        flush = best_of(args.repeats,
                        lambda: time_memtable_flush(flushes, batches))
        print(f"  memtable insert {insert:7.1f} ns   ({MEMTABLE_BYTES // 1024} "
              f"KiB memtable, {len(MEMTABLE_VALUE)} B values, "
              f"{KEYSPACE}-key space)")
        print(f"  memtable flush {flush / 1e3:8.1f} us   (sorted items to "
              "SSTable, its image, the DRAM copy)")

    merge, lookups, ycsb = count_merge(), count_lookups(), count_ycsb()
    ycsb_opcodes = count_ycsb_opcodes()
    print(f"one merge:  {merge['probes']} filter probes, {merge['digests']} "
          f"key digests, {merge['built']} filters built, "
          f"{merge['filters_built']} inputs with a filter")
    print(f"one lookup: at most {lookups['digests']} digest(s) and "
          f"{lookups['probes']} probes (ceiling {lookups['probe_ceiling']})")
    print(f"YCSB-A load: {ycsb['load_probes']} filter probes, "
          f"{ycsb['load_built']} filters built")
    print(f"YCSB-A, {YCSB_OPS} ops: {ycsb['probes_per_op']:.3f} probes per op "
          f"(ceiling {YCSB_PROBES_PER_OP}), {ycsb['filters_built']} filters "
          f"built for {ycsb['tables_probed']} tables probed and "
          f"{ycsb['tables_missed']} a GET missed ({ycsb['flushes']} flushes, "
          f"{ycsb['compactions']} compactions)")
    print(f"same run: {ycsb_opcodes:.1f} Python opcodes per op "
          f"(ceiling {YCSB_OPCODES_PER_OP})")

    broken = []
    if (merge["probes"] or merge["digests"] or merge["built"]
            or merge["filters_built"]):
        broken.append("a merge touched bloom filters")
    if (lookups["digests"] > 1
            or lookups["probes"] > lookups["probe_ceiling"]):
        broken.append("a lookup digested its key twice or probed more than "
                      "L0 plus one L1 run")
    if ycsb["load_probes"] or ycsb["load_built"]:
        broken.append("the YCSB-A load phase probed or built a filter")
    if not 0 < ycsb["probes_per_op"] <= YCSB_PROBES_PER_OP:
        broken.append("YCSB-A probes per op outside (0, ceiling]")
    if ycsb["filters_built"] > ycsb["tables_probed"]:
        broken.append("a filter was built for a table no lookup probed")
    if ycsb["filters_built"] > ycsb["tables_missed"]:
        broken.append("a filter was built for a table no GET missed")
    if ycsb_opcodes > YCSB_OPCODES_PER_OP:
        broken.append("YCSB-A opcodes per op above the ceiling")
    if (ycsb["flushes"] < YCSB_FLUSHES
            or ycsb["compactions"] < YCSB_COMPACTIONS):
        broken.append(f"the YCSB-A run made fewer than {YCSB_FLUSHES} "
                      f"flushes or {YCSB_COMPACTIONS} compactions")
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
