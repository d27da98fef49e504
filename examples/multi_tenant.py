"""Multi-tenant logging: three engines share one 2B-SSD's BA-buffer.

The mapping table holds eight entries (Table I), so one device can serve
several latency-critical logs at once: here a SQL engine, an LSM store,
and a Redis-like cache each get two entries and a slice of the 8 MiB
BA-buffer.  A power failure mid-run takes all three down; each recovers
its own acknowledged state independently.

Run:  python examples/multi_tenant.py
"""

from repro.core import CrashHarness
from repro.db.lsm import LSMTree, MemoryTableStorage
from repro.db.memkv import MemKV
from repro.db.relational import RelationalEngine
from repro.platform import Platform
from repro.sim.units import MiB, USEC
from repro.wal import BaWAL

SEGMENT = 1 * MiB
AREA_PAGES = 4096


def make_wal(platform, index, double_buffer=True):
    wal = BaWAL(
        platform.engine, platform.api,
        start_lpn=20_000 + index * AREA_PAGES,
        area_pages=AREA_PAGES,
        segment_bytes=SEGMENT,
        double_buffer=double_buffer,
        entry_ids=(2 * index, 2 * index + 1),
        buffer_base=index * 2 * SEGMENT,
    )
    platform.engine.run_process(wal.start())
    return wal


def main() -> None:
    platform = Platform(seed=33)
    engine = platform.engine

    sql = RelationalEngine(engine, make_wal(platform, 0))
    sql.create_table("orders")
    lsm = LSMTree(engine, make_wal(platform, 1),
                  MemoryTableStorage(engine), memtable_bytes=256 * 1024,
                  rng=platform.rng.fork("lsm"))
    cache = MemKV(engine, make_wal(platform, 2, double_buffer=False))

    print(f"mapping table: {len(platform.device.mapping_table)} entries pinned "
          f"for 3 tenants")

    def sql_tenant():
        for i in range(150):
            txn = sql.begin()
            yield from sql.insert(txn, "orders", i, {"total": i * 10})
            yield from sql.commit(txn)

    def lsm_tenant():
        for i in range(150):
            yield from lsm.put(f"event{i:04d}", b"payload-%04d" % i)

    def cache_tenant():
        for i in range(150):
            yield from cache.set(f"session{i % 20}", b"%04d" % i)

    def workload():
        yield engine.all_of([
            engine.process(sql_tenant()),
            engine.process(lsm_tenant()),
            engine.process(cache_tenant()),
        ])

    harness = CrashHarness(platform)
    outcome = harness.crash_at(1200 * USEC, workload())
    print(f"power failed at t={outcome.crash_time * 1e6:.0f} us "
          f"(workload finished: {outcome.workload_finished}); "
          f"emergency dump ok={outcome.report.device_dumps['2B-SSD']}")

    sql2 = RelationalEngine(engine, make_wal_like(platform, 0))
    sql2.create_table("orders")
    replayed_sql = engine.run_process(sql2.recover())
    lsm2 = LSMTree(engine, make_wal_like(platform, 1), lsm.storage,
                   memtable_bytes=256 * 1024, rng=platform.rng.fork("l2"))
    replayed_lsm = engine.run_process(lsm2.recover())
    cache2 = MemKV(engine, make_wal_like(platform, 2, double_buffer=False))
    replayed_kv = engine.run_process(cache2.recover())

    print(f"recovered: SQL {sql2.row_count('orders')} rows "
          f"({replayed_sql} ops replayed), "
          f"LSM {replayed_lsm} ops replayed, "
          f"cache {len(cache2)} keys ({replayed_kv} commands)")
    assert sql2.row_count("orders") > 0
    assert len(cache2) > 0
    print("multi-tenant example OK: each tenant recovered independently")


def make_wal_like(platform, index, double_buffer=True):
    """A fresh (non-started) WAL over the same log area, for recovery."""
    return BaWAL(
        platform.engine, platform.api,
        start_lpn=20_000 + index * AREA_PAGES,
        area_pages=AREA_PAGES,
        segment_bytes=SEGMENT,
        double_buffer=double_buffer,
        entry_ids=(2 * index, 2 * index + 1),
        buffer_base=index * 2 * SEGMENT,
    )


if __name__ == "__main__":
    main()
