"""Bloom-filter work of the LSM data plane, pinned as exact counts.

Nothing the engine does with a bloom filter carries a simulated cost, so
the model cannot see it and only the wall clock pays.  What it may cost
is therefore fixed here as counts that repeat exactly — key digests
(``BloomFilter.hash_key``), filter probes (``might_contain_hashed``) and
filters built (``__init__``), taken by wrapping the three from outside —
so a per-key filter loop that creeps back into compaction fails tier-1
instead of waiting for the benchmark (``scripts/lsm_cost.py`` prints the
same counts with the wall-clock cost beside them):

* a compaction merge touches no filter at all;
* a point lookup digests its key at most once and probes at most every
  L0 table plus the one L1 run whose range holds the key;
* over a fixed-seed YCSB-A run, probes per operation stay under a
  ceiling measured on this tree (the filter-guided merge before it:
  27.476), and a filter is only ever built for a table a GET reached.

The ceiling is a budget: lowering it after a real cut is the point,
raising it needs the reason in the commit that does it.
"""

import random

import pytest

from repro.db.lsm import SSTable
from repro.db.lsm.bloom import BloomFilter
from repro.db.lsm.sst import merge_tables
from repro.workloads.ycsb import YcsbConfig, YcsbOp, YcsbWorkload
from tests.helpers import Platform, dual_path_lsm
from tests.test_lsm_compaction import random_stack

pytestmark = pytest.mark.oracle

YCSB_OPS = 2000
YCSB_PROBES_PER_OP = 0.75  # measured: 0.710


@pytest.fixture
def counts(monkeypatch):
    """Digests, probes and builds of every ``BloomFilter`` from here on."""
    tally = {"digests": 0, "probes": 0, "built": 0, "probed": set()}
    hash_key = BloomFilter.hash_key
    probe = BloomFilter.might_contain_hashed
    init = BloomFilter.__init__

    def counting_hash_key(key):
        tally["digests"] += 1
        return hash_key(key)

    def counting_probe(self, h1, h2):
        tally["probes"] += 1
        tally["probed"].add(self)
        return probe(self, h1, h2)

    def counting_init(self, *args, **kwargs):
        tally["built"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(BloomFilter, "hash_key", staticmethod(counting_hash_key))
    monkeypatch.setattr(BloomFilter, "might_contain_hashed", counting_probe)
    monkeypatch.setattr(BloomFilter, "__init__", counting_init)
    return tally


def device_tree(memtable_bytes):
    platform = Platform(seed=1)
    return platform, dual_path_lsm(platform, platform.rng.fork("lsm"),
                                   memtable_bytes=memtable_bytes)


def test_merge_touches_no_filter(counts):
    tables = random_stack(seed=5)  # five tables sharing keys, tombstones
    merged = merge_tables(tables, drop_tombstones=True)
    assert merged is not None
    assert counts["probes"] == 0 and counts["digests"] == 0
    assert counts["built"] == 0
    assert all(table._filter is None for table in tables)


def test_get_digests_once_and_probes_l0_plus_one_run(counts):
    platform, tree = device_tree(memtable_bytes=1024)
    engine = platform.engine

    def load():
        for i in range(400):
            yield from tree.put(f"key{(i * 7) % 120:04d}", bytes(60))

    engine.run_process(load())
    engine.run()
    assert tree._l0 and len(tree._l1) >= 3
    for table in tree._l0 + tree._l1:
        table.filter  # build now: a build digests every key of its table
    keys = [f"key{i:04d}" for i in range(120)]
    for key in keys + [key + "x" for key in keys] + ["a", "zzz"]:
        counts.update(digests=0, probes=0)
        engine.run_process(tree.get(key))
        assert counts["digests"] <= 1, key
        assert counts["probes"] <= len(tree._l0) + 1, key


def test_ycsb_a_probes_per_op_within_budget(counts):
    SSTable._COUNTER = 0  # file ids shape manifest bytes, hence timing
    platform, tree = device_tree(memtable_bytes=8 * 1024)
    engine = platform.engine
    workload = YcsbWorkload(
        YcsbConfig.workload_a(payload_bytes=256, record_count=1000),
        random.Random(1))

    def drive(requests):
        for request in requests:
            if request.op is YcsbOp.READ:
                yield from tree.get(request.key)
            else:
                yield from tree.put(request.key, request.value)

    engine.run_process(drive(workload.load_requests()))
    engine.run()
    assert counts["probes"] == 0 and counts["built"] == 0  # nothing read yet
    engine.run_process(drive([workload.next_request() for _ in range(YCSB_OPS)]))
    engine.run()
    assert tree.compaction_count >= 10 and tree.flush_count >= 40
    probes_per_op = counts["probes"] / YCSB_OPS
    assert 0 < probes_per_op <= YCSB_PROBES_PER_OP, (
        f"{probes_per_op:.3f} filter probes per op, budget {YCSB_PROBES_PER_OP} "
        "— is compaction probing filters again? (scripts/lsm_cost.py)")
    assert counts["built"] <= len(counts["probed"]), (
        f"{counts['built']} filters built but only {len(counts['probed'])} "
        "tables ever probed by a GET")
