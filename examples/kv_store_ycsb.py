"""A Redis-like cache with a durable AOF on 2B-SSD, under YCSB.

Shows the single-threaded store running YCSB workload A with its
append-only file living directly in the BA-buffer (the paper's Redis
port, §IV-B: no double buffering, to preserve the single-threaded
design), then crashes it and replays the AOF to get the dataset back.

Run:  python examples/kv_store_ycsb.py
"""

from repro.bench.drivers import run_ycsb_on_memkv
from repro.db.memkv import MemKV
from repro.platform import Platform
from repro.wal import BaWAL
from repro.workloads import YcsbConfig, YcsbWorkload


def main() -> None:
    platform = Platform(seed=11)
    engine = platform.engine
    aof = BaWAL(engine, platform.api, area_pages=32768, double_buffer=False)
    engine.run_process(aof.start())
    store = MemKV(engine, aof)
    workload = YcsbWorkload(
        YcsbConfig.workload_a(payload_bytes=256, record_count=500),
        platform.rng.fork("ycsb").stream("ops"),
    )

    result = run_ycsb_on_memkv(engine, store, workload, total_ops=1500, clients=4)
    print(f"YCSB-A on the Redis-like store with a BA-buffer AOF:")
    print(f"  throughput:        {result.throughput:,.0f} ops/s (simulated)")
    print(f"  mean commit wait:  {result.mean_commit_latency * 1e6:.2f} us/op")
    print(f"  dataset size:      {len(store)} keys")
    live_state = store.snapshot()

    print("pulling the power mid-run...")
    report, restored = platform.power.power_cycle()
    print(f"  emergency dump ok={report.device_dumps['2B-SSD']}, "
          f"restored={restored['2B-SSD']}")

    recovered = MemKV(engine, aof)

    def recovery():
        count = yield from recovered.recover()
        return count

    replayed = engine.run_process(recovery())
    print(f"  AOF replay: {replayed} commands -> {len(recovered)} keys")
    assert recovered.snapshot() == live_state, "recovered state must match"
    print("kv-store example OK: every acknowledged write survived the crash")


if __name__ == "__main__":
    main()
