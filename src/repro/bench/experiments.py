"""One function per paper artifact: Table I and Figures 7-10.

Each function assembles fresh platforms, runs the measurement in simulated
time, and returns plain dictionaries (series name -> {x: y}) that the
``benchmarks/`` entry points format and assert on.
"""

from __future__ import annotations

from typing import Iterator

from repro.bench.drivers import (
    RunResult,
    run_linkbench_on_relational,
    run_ycsb_on_lsm,
    run_ycsb_on_memkv,
)
from repro.db.lsm import DeviceTableStorage, LSMTree, MemoryTableStorage
from repro.db.memkv import MemKV
from repro.db.relational import RelationalEngine
from repro.host.memory import ByteRegion
from repro.platform import Platform
from repro.sim.units import KiB, MiB
from repro.ssd import DC_SSD, ULL_SSD
from repro.wal import BaWAL, BlockWAL, CommitMode, PmWAL
from repro.workloads import LinkbenchConfig, LinkbenchWorkload, YcsbConfig, YcsbWorkload
from repro.workloads.fio import latency_sweep

PAGE = 4096

READ_SIZES = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
WRITE_SIZES = READ_SIZES
BW_SIZES = [4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB, 8 * MiB, 16 * MiB]


# -- Table I -----------------------------------------------------------------------

def run_table1() -> dict:
    """The 2B-SSD specification as instantiated by this reproduction."""
    platform = Platform(seed=1)
    params = platform.device.ba_params
    profile = platform.device.profile
    return {
        "Host interface": "PCIe Gen.3 x4 (3.2 GB/s effective)",
        "Protocol": "NVMe 1.2 (simulated command set)",
        "Capacity": f"{profile.geometry.capacity_bytes // MiB} MiB (scaled-down array)",
        "SSD architecture": (
            f"{profile.geometry.channels} channels x "
            f"{profile.geometry.dies_per_channel} ways"
        ),
        "Storage medium": profile.nand_timing.name,
        "Capacitance": f"{params.capacitance_farads * 1e6:.0f} uF total",
        "BA-buffer size": f"{params.buffer_bytes // MiB} MiB",
        "Max. entries of BA-buffer": params.max_entries,
        "Emergency window": f"{params.emergency_window_seconds * 1e3:.1f} ms",
        "Emergency budget": f"{params.emergency_budget_bytes // MiB} MiB",
    }


# -- Fig. 7: latency ------------------------------------------------------------------

def run_fig7(iterations: int = 4) -> dict:
    """Read and write latency vs request size for every access path.

    Besides the per-size means (``"read"``/``"write"``), every series'
    individual samples land in a :class:`repro.obs.LatencyHistogram`;
    the ``"read_dist"``/``"write_dist"`` keys carry each series' summary
    (mean, p50/p90/p95/p99/p999, max across the whole size sweep).
    """
    from repro.obs import LatencyHistogram

    read_series: dict[str, dict[int, float]] = {}
    write_series: dict[str, dict[int, float]] = {}
    read_hist: dict[str, LatencyHistogram] = {}
    write_hist: dict[str, LatencyHistogram] = {}

    def sweep(series, hists, name, engine, make_op, sizes) -> None:
        hists[name] = LatencyHistogram()
        series[name] = latency_sweep(engine, make_op, sizes, iterations,
                                     histogram=hists[name])

    for profile in (DC_SSD, ULL_SSD):
        platform = Platform(seed=2)
        device = platform.add_block_ssd(profile)
        sweep(read_series, read_hist, f"{profile.name} block read",
              platform.engine, lambda size, _i: device.read(0, size), READ_SIZES)
        platform = Platform(seed=3)
        device = platform.add_block_ssd(profile)
        sweep(write_series, write_hist, f"{profile.name} block write",
              platform.engine, lambda size, _i: device.write(0, bytes(size)),
              WRITE_SIZES)

    # MMIO read and read-DMA on the 2B-SSD byte path.
    platform = Platform(seed=4)
    engine, api = platform.engine, platform.api

    def setup() -> Iterator:
        yield from platform.device.write(0, bytes(PAGE))
        entry = yield from api.ba_pin(0, 0, 0, PAGE)
        return entry

    entry = engine.run_process(setup())
    sweep(read_series, read_hist, "2B-SSD MMIO read", engine,
          lambda size, _i: api.mmio_read(entry, 0, size), READ_SIZES)
    host_buffer = ByteRegion("dma-dst", PAGE)
    sweep(read_series, read_hist, "2B-SSD read DMA", engine,
          lambda size, _i: api.ba_read_dma(0, host_buffer, 0, size), READ_SIZES)

    # MMIO write (plain and persistent) to the BA-buffer.
    platform = Platform(seed=5)
    engine, cpu, region = platform.engine, platform.cpu, platform.device.ba_dram
    sweep(write_series, write_hist, "2B-SSD MMIO write", engine,
          lambda size, _i: cpu.mmio_write(region, 0, bytes(size)), WRITE_SIZES)
    sweep(write_series, write_hist, "2B-SSD persistent MMIO", engine,
          lambda size, _i: cpu.persistent_mmio_write(region, 0, bytes(size)),
          WRITE_SIZES)
    return {
        "read": read_series,
        "write": write_series,
        "read_dist": {name: h.summary() for name, h in read_hist.items()},
        "write_dist": {name: h.summary() for name, h in write_hist.items()},
    }


# -- Traced workload (the ``repro trace`` subcommand) ---------------------------------

def run_trace_workload(ops: int = 2000, seed: int = 40,
                       payload_bytes: int = 128, clients: int = 4) -> dict:
    """A small YCSB-A run on the Redis-like store over BA-WAL, traced.

    Tracing is enabled for the run's duration with a private tracer, so
    every instrumented layer (host CPU, PCIe link, NVMe, BA core, FTL,
    NAND, WAL) contributes span histograms and counters.  Returns the
    ``platform``, the ``tracer``, and the workload's ``result`` — the
    ``repro trace`` subcommand and the exporter round-trip test build on
    this.
    """
    from repro.obs.tracing import Tracer, activated

    platform = Platform(seed=seed)
    tracer = Tracer()
    with activated(tracer):
        wal = BaWAL(platform.engine, platform.api, area_pages=32768)
        platform.engine.run_process(wal.start())
        store = MemKV(platform.engine, wal)
        workload = YcsbWorkload(
            YcsbConfig.workload_a(payload_bytes=payload_bytes, record_count=400),
            platform.rng.fork("trace-ycsb").stream("ops"),
        )
        result = run_ycsb_on_memkv(platform.engine, store, workload, ops,
                                   clients=clients)
    return {"platform": platform, "tracer": tracer, "result": result}


# -- Fig. 8: bandwidth ------------------------------------------------------------------

def run_fig8(iterations: int = 2) -> dict:
    """Streaming bandwidth vs request size: block paths and 2B internal."""
    read_series: dict[str, dict[int, float]] = {}
    write_series: dict[str, dict[int, float]] = {}

    for profile in (DC_SSD, ULL_SSD):
        platform = Platform(seed=6)
        device = platform.add_block_ssd(profile)
        engine = platform.engine

        def run_block() -> Iterator:
            reads: dict[int, float] = {}
            writes: dict[int, float] = {}
            for size in BW_SIZES:
                start = engine.now
                for _ in range(iterations):
                    yield from device.read(0, size)
                reads[size] = size / ((engine.now - start) / iterations)
                start = engine.now
                for _ in range(iterations):
                    yield from device.write(0, bytes(size))
                writes[size] = size / ((engine.now - start) / iterations)
                # Drain the write cache outside the timed region so each
                # size measures interface bandwidth, not cache backlog.
                yield from device.drain()
            return reads, writes

        reads, writes = engine.run_process(run_block())
        read_series[f"{profile.name} block"] = reads
        write_series[f"{profile.name} block"] = writes

    internal_read, internal_write = _fig8_internal(iterations)
    read_series["2B-SSD internal (BA_PIN)"] = internal_read
    write_series["2B-SSD internal (BA_FLUSH)"] = internal_write
    return {"read": read_series, "write": write_series}


def _fig8_internal(iterations: int) -> tuple[dict[int, float], dict[int, float]]:
    platform = Platform(seed=7)
    engine, api, device = platform.engine, platform.api, platform.device
    buffer_bytes = device.ba_params.buffer_bytes
    pin_bw: dict[int, float] = {}
    flush_bw: dict[int, float] = {}

    def populate() -> Iterator:
        # Real NAND pages behind every LBA the sweep pins.
        total = max(BW_SIZES)
        chunk = 4 * MiB
        for offset in range(0, total, chunk):
            yield from device.write(offset // PAGE, bytes(chunk))
        yield from device.drain()
        return None

    engine.run(until=engine.process(populate(), name="fig8-populate"))

    def sweep() -> Iterator:
        for size in BW_SIZES:
            pin_time = 0.0
            flush_time = 0.0
            for _ in range(iterations):
                offset = 0
                while offset < size:
                    chunk = min(size - offset, buffer_bytes)
                    start = engine.now
                    yield from api.ba_pin(0, 0, offset // PAGE, chunk)
                    pin_time += engine.now - start
                    start = engine.now
                    yield from api.ba_flush(0)
                    flush_time += engine.now - start
                    offset += chunk
            pin_bw[size] = size / (pin_time / iterations)
            flush_bw[size] = size / (flush_time / iterations)
        return None

    engine.run(until=engine.process(sweep(), name="fig8-internal"))
    return pin_bw, flush_bw


# -- Fig. 9: application throughput --------------------------------------------------------

FIG9_CONFIGS = ("DC-SSD", "ULL-SSD", "2B-SSD", "ASYNC")


def _make_wal(platform: Platform, config: str, area_pages: int = 32768):
    """The log-device configurations compared in Fig. 9."""
    if config == "DC-SSD":
        device = platform.add_block_ssd(DC_SSD, name="log")
        return BlockWAL(platform.engine, device, platform.cpu,
                        mode=CommitMode.SYNCHRONOUS, area_pages=area_pages)
    if config == "ULL-SSD":
        device = platform.add_block_ssd(ULL_SSD, name="log")
        return BlockWAL(platform.engine, device, platform.cpu,
                        mode=CommitMode.SYNCHRONOUS, area_pages=area_pages)
    if config == "2B-SSD":
        wal = BaWAL(platform.engine, platform.api, area_pages=area_pages)
        platform.engine.run_process(wal.start())
        return wal
    if config == "ASYNC":
        device = platform.add_block_ssd(ULL_SSD, name="log")
        return BlockWAL(platform.engine, device, platform.cpu,
                        mode=CommitMode.ASYNCHRONOUS, area_pages=area_pages)
    raise ValueError(f"unknown Fig. 9 configuration {config!r}")


def run_fig9_postgres(txns: int = 2000, clients: int = 8,
                      seed: int = 10,
                      node_count: int = 800) -> dict[str, RunResult]:
    """Fig. 9 left panel: PostgreSQL-like engine under LinkBench."""
    results: dict[str, RunResult] = {}
    for config in FIG9_CONFIGS:
        platform = Platform(seed=seed)
        wal = _make_wal(platform, config)
        db = RelationalEngine(platform.engine, wal)
        workload = LinkbenchWorkload(
            LinkbenchConfig(node_count=node_count),
            platform.rng.fork(f"linkbench-{config}").stream("ops"),
        )
        results[config] = run_linkbench_on_relational(
            platform.engine, db, workload, txns, clients=clients,
        )
    return results


def run_fig9_rocksdb(payloads: tuple[int, ...] = (128, 1024, 4096),
                     ops: int = 1500, clients: int = 4,
                     seed: int = 11) -> dict[int, dict[str, RunResult]]:
    """Fig. 9 middle panel: RocksDB-like LSM under YCSB-A, payload sweep."""
    results: dict[int, dict[str, RunResult]] = {}
    for payload in payloads:
        results[payload] = {}
        for config in FIG9_CONFIGS:
            platform = Platform(seed=seed)
            wal = _make_wal(platform, config)
            tree = LSMTree(platform.engine, wal, MemoryTableStorage(platform.engine),
                           memtable_bytes=2 * MiB, rng=platform.rng.fork("lsm"))
            workload = YcsbWorkload(
                YcsbConfig.workload_a(payload_bytes=payload, record_count=800),
                platform.rng.fork(f"ycsb-{config}-{payload}").stream("ops"),
            )
            results[payload][config] = run_ycsb_on_lsm(
                platform.engine, tree, workload, ops, clients=clients,
            )
    return results


def run_fig9_redis(payloads: tuple[int, ...] = (128, 1024, 4096),
                   ops: int = 1200, clients: int = 4,
                   seed: int = 12) -> dict[int, dict[str, RunResult]]:
    """Fig. 9 right panel: Redis-like store under YCSB-A, payload sweep.

    The BA-WAL port keeps Redis single-threaded, so its BaWAL runs without
    double buffering (§IV-B).
    """
    results: dict[int, dict[str, RunResult]] = {}
    for payload in payloads:
        results[payload] = {}
        for config in FIG9_CONFIGS:
            platform = Platform(seed=seed)
            if config == "2B-SSD":
                wal = BaWAL(platform.engine, platform.api, area_pages=32768,
                            double_buffer=False)
                platform.engine.run_process(wal.start())
            else:
                wal = _make_wal(platform, config)
            store = MemKV(platform.engine, wal)
            workload = YcsbWorkload(
                YcsbConfig.workload_a(payload_bytes=payload, record_count=600),
                platform.rng.fork(f"ycsb-redis-{config}-{payload}").stream("ops"),
            )
            results[payload][config] = run_ycsb_on_memkv(
                platform.engine, store, workload, ops, clients=clients,
            )
    return results


# -- Compaction throughput: the die-parallel SST write path ------------------------------------

def run_compaction_throughput(ops: int = 1400, keys: int = 220,
                              value_bytes: int = 96, seed: int = 21,
                              memtable_bytes: int = 8192) -> dict:
    """Sustained overwrite churn on an LSM whose tables live on a block SSD.

    Unlike the Fig. 9 configurations (user data in DRAM), this run puts
    SSTables on the device through :class:`DeviceTableStorage`, so every
    compaction's output run is written through the batched, die-parallel
    storage path and sealed by a single flush barrier.  The reported
    throughput is compacted SST bytes per simulated second spent inside
    compaction — a deterministic simulated metric, stable across machines
    and worker counts, which the wallclock harness ratchets.
    """
    from repro.db.lsm.sst import SSTable

    # SSTable file ids come from a process-global counter, and the ids
    # land in the manifest JSON — whose byte length shapes device write
    # timing.  Pin the counter for the run (and restore it after) so the
    # leg's output is identical no matter what ran earlier in this
    # process; each tree/storage pair only needs ids unique to itself.
    saved_counter = SSTable._COUNTER
    SSTable._COUNTER = 0
    try:
        return _run_compaction_throughput(ops, keys, value_bytes, seed,
                                          memtable_bytes)
    finally:
        SSTable._COUNTER = max(saved_counter, SSTable._COUNTER)


def _run_compaction_throughput(ops: int, keys: int, value_bytes: int,
                               seed: int, memtable_bytes: int) -> dict:
    platform = Platform(seed=seed)
    log_device = platform.add_block_ssd(ULL_SSD, name="log")
    wal = BlockWAL(platform.engine, log_device, platform.cpu, area_pages=4096)
    data_device = platform.add_block_ssd(ULL_SSD, name="data")
    storage = DeviceTableStorage(platform.engine, data_device)
    tree = LSMTree(platform.engine, wal, storage,
                   memtable_bytes=memtable_bytes, rng=platform.rng.fork("lsm"))
    engine = platform.engine
    payload = bytes(value_bytes)

    def drive() -> Iterator:
        for i in range(ops):
            slot = i % keys
            if slot % 16 == 15 and i >= keys:
                # Periodic deletes keep tombstone dropping on the merge path.
                yield from tree.delete(f"key{slot:05d}")
            else:
                yield from tree.put(f"key{slot:05d}", payload)
        return None

    engine.run(until=engine.process(drive(), name="compaction-churn"))
    engine.run()
    seconds = tree.compaction_seconds
    return {
        "operations": ops,
        "flushes": tree.flush_count,
        "compactions": tree.compaction_count,
        "compaction_bytes": tree.compaction_bytes,
        "compaction_seconds": round(seconds, 9),
        "mb_per_sec": round(tree.compaction_bytes / seconds / 1e6, 3)
                      if seconds else 0.0,
        "l0_tables": len(tree._l0),
        "l1_tables": len(tree._l1),
        "simulated_seconds": round(engine.now, 9),
    }


# -- Fig. 10: heterogeneous memory vs hybrid store ---------------------------------------------

FIG10_CONFIGS = ("2B-SSD (baseline)", "PM + DC-SSD", "PM + ULL-SSD", "ASYNC")


def run_fig10(txns: int = 2000, clients: int = 8, seed: int = 13,
              node_count: int = 800) -> dict[str, RunResult]:
    """PostgreSQL/LinkBench on PM-buffered WAL vs BA-WAL vs async commit."""
    results: dict[str, RunResult] = {}
    for config in FIG10_CONFIGS:
        platform = Platform(seed=seed)
        if config == "2B-SSD (baseline)":
            wal = BaWAL(platform.engine, platform.api, area_pages=32768)
            platform.engine.run_process(wal.start())
        elif config == "PM + DC-SSD":
            device = platform.add_block_ssd(DC_SSD, name="log")
            wal = PmWAL(platform.engine, device, platform.cpu,
                        pm_bytes=8 * MiB, area_pages=32768)
        elif config == "PM + ULL-SSD":
            device = platform.add_block_ssd(ULL_SSD, name="log")
            wal = PmWAL(platform.engine, device, platform.cpu,
                        pm_bytes=8 * MiB, area_pages=32768)
        else:
            device = platform.add_block_ssd(ULL_SSD, name="log")
            wal = BlockWAL(platform.engine, device, platform.cpu,
                           mode=CommitMode.ASYNCHRONOUS, area_pages=32768)
        db = RelationalEngine(platform.engine, wal)
        workload = LinkbenchWorkload(
            LinkbenchConfig(node_count=node_count),
            platform.rng.fork(f"linkbench-{config}").stream("ops"),
        )
        results[config] = run_linkbench_on_relational(
            platform.engine, db, workload, txns, clients=clients,
        )
    return results
