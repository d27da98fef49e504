#!/usr/bin/env python3
"""What does the LSM engine's own data plane cost the simulator?

    python scripts/lsm_cost.py [--repeats 5] [--smoke]

None of this work carries a simulated cost — the model charges a flat
``READ_CPU``/``WRITE_CPU`` per operation and the device time of SSTable
I/O — so it shows only on the wall clock.  At the shape ``lsm-dual``
runs (4 x 128-key L0 tables over 16 x 250-key L1 runs of a 4 000-key
space) it prints

* wall ns per input key of one compaction merge (``merge_tables`` over
  fresh tables each pass, as every real compaction sees them),
* wall ns per key of one bloom filter build,
* wall us per point lookup (``LSMTree._lookup``) that hits in L1 and
  that misses everywhere, with 3 L0 tables and 16 L1 runs, filters warm
  (``perf_counter`` brackets; best of ``--repeats`` passes), and

three exact counts, taken on separate passes so the wrappers that count
them are not inside a timed region:

* filter probes and key digests one merge makes, and how many of its
  inputs had a filter built for it,
* the most digests and probes any one of those lookups makes,
* filter probes per operation, filters built and distinct tables probed
  on a fixed-seed 2 000-op YCSB-A run over a device-backed tree (BA-WAL
  on the byte path, SSTables on the block path of the same 2B-SSD).

Read-only use of ``src/``: everything is observed from outside, so the
same script runs on any commit (docs/performance.md, "LSM data plane",
has the before/after).  The counts have ceilings: a merge probes and
digests nothing and builds no filter, a lookup digests its key at most
once and probes at most every L0 table plus one L1 run, and the YCSB run
stays under ``YCSB_PROBES_PER_OP`` with no filter built for a table no
lookup reached.  The script exits non-zero when one is broken;
``--smoke`` is the counts alone (< 1 s), which ``scripts/check.sh`` and
CI run.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from _meter import best_of, exit_status, wrapped  # noqa: E402  (scripts/_meter.py)
from repro.db.lsm import DeviceTableStorage, LSMTree, SSTable  # noqa: E402
from repro.db.lsm.bloom import BloomFilter  # noqa: E402
from repro.db.lsm.sst import merge_tables  # noqa: E402
from repro.platform import Platform  # noqa: E402
from repro.wal.ba_wal import BaWAL  # noqa: E402
from repro.workloads.ycsb import YcsbConfig, YcsbOp, YcsbWorkload  # noqa: E402

KEYSPACE = 4000
L1_RUNS, L1_KEYS = 16, 250
L0_TABLES, L0_KEYS = 4, 128
LOOKUP_L0 = 3
VALUE = bytes(64)

YCSB_OPS = 2000
YCSB_RECORDS = 1000
YCSB_VALUE_BYTES = 256
YCSB_MEMTABLE_BYTES = 8 * 1024
AREA_PAGES = 4096
# Measured 0.710 on the tree that introduced this script and 27.476 on its
# parent, whose compaction merge probed filters per key (one lsm-dual
# round: 26.8 -> 1.78).  tests/test_lsm_budget.py pins the same run.
YCSB_PROBES_PER_OP = 0.75


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
            "filters_built": sum(t._filter is not None for t in inputs)}


def count_lookups() -> dict:
    tree, hits, misses = lookup_tree()
    worst = {"digests": 0, "probes": 0}
    for key in hits + misses:
        with counted() as counts:
            tree._lookup(key)
        for name in worst:
            worst[name] = max(worst[name], counts[name])
    return {**worst, "probe_ceiling": len(tree._l0) + 1}


def count_ycsb() -> dict:
    SSTable._COUNTER = 0  # file ids shape manifest bytes, hence timing
    platform, tree = device_tree(YCSB_MEMTABLE_BYTES)
    engine = platform.engine
    workload = YcsbWorkload(
        YcsbConfig.workload_a(payload_bytes=YCSB_VALUE_BYTES,
                              record_count=YCSB_RECORDS), random.Random(1))

    def drive(requests):
        for request in requests:
            if request.op is YcsbOp.READ:
                yield from tree.get(request.key)
            else:
                yield from tree.put(request.key, request.value)

    with counted() as counts:
        engine.run_process(drive(workload.load_requests()))
        engine.run()
        counts.update(probes=0, digests=0)  # per op of the run phase only
        engine.run_process(
            drive([workload.next_request() for _ in range(YCSB_OPS)]))
        engine.run()
    return {"probes_per_op": counts["probes"] / YCSB_OPS,
            "filters_built": counts["built"],
            "tables_probed": len(counts["probed"]),
            "flushes": tree.flush_count, "compactions": tree.compaction_count}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock cost and bloom-filter work of the LSM "
                    "engine's merge, filter build and point lookup.")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes per row, best kept (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="counts and their ceilings only (< 1 s)")
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

    merge, lookups, ycsb = count_merge(), count_lookups(), count_ycsb()
    print(f"one merge:  {merge['probes']} filter probes, {merge['digests']} "
          f"key digests, {merge['filters_built']} input filters built")
    print(f"one lookup: at most {lookups['digests']} digest(s) and "
          f"{lookups['probes']} probes (ceiling {lookups['probe_ceiling']})")
    print(f"YCSB-A, {YCSB_OPS} ops: {ycsb['probes_per_op']:.3f} probes per op "
          f"(ceiling {YCSB_PROBES_PER_OP}), {ycsb['filters_built']} filters "
          f"built for {ycsb['tables_probed']} tables probed "
          f"({ycsb['flushes']} flushes, {ycsb['compactions']} compactions)")

    broken = []
    if merge["probes"] or merge["digests"] or merge["filters_built"]:
        broken.append("a merge touched bloom filters")
    if (lookups["digests"] > 1
            or lookups["probes"] > lookups["probe_ceiling"]):
        broken.append("a lookup digested its key twice or probed more than "
                      "L0 plus one L1 run")
    if ycsb["probes_per_op"] > YCSB_PROBES_PER_OP:
        broken.append("YCSB-A probes per op over its ceiling")
    if ycsb["filters_built"] > ycsb["tables_probed"]:
        broken.append("a filter was built for a table no lookup probed")
    if not ycsb["compactions"]:
        broken.append("the YCSB-A run never compacted")
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
