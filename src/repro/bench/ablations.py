"""Ablation studies for the design choices the paper calls out.

Each function isolates one mechanism (write combining, the read DMA
engine, double buffering, the BA-buffer size, BA-WAL's write-amplification
advantage) and measures the system with it enabled vs disabled/swept —
quantifying claims the paper makes qualitatively in §III and §VI.
"""

from __future__ import annotations

from typing import Iterator

from repro.core import BaParams
from repro.host.memory import ByteRegion
from repro.platform import Platform
from repro.sim.units import MiB, NSEC
from repro.ssd import ULL_SSD
from repro.wal import BaWAL, BlockWAL
from repro.workloads.fio import latency_sweep

PAGE = 4096

# Cost to issue one uncombined 8-byte store to UC-mapped device memory
# (no WC staging, one TLP per store).
UNCOMBINED_STORE_COST = 60 * NSEC


def run_write_combining_ablation(
    sizes: tuple[int, ...] = (64, 256, 1024, 4096), iterations: int = 4,
) -> dict:
    """MMIO write latency and TLP count with and without write combining.

    §III-A1: the BAR manager reserves BAR1 for WC usage because combining
    64-byte bursts 'leads to a significant reduction of memory accesses'.
    """
    platform = Platform(seed=20)
    engine, cpu, link = platform.engine, platform.cpu, platform.link
    region = platform.device.ba_dram

    combined: dict[int, float] = {}
    combined_tlps: dict[int, int] = {}
    for size in sizes:
        before = link.posted_writes_issued
        combined[size] = latency_sweep(
            engine, lambda s, _i: cpu.mmio_write(region, 0, bytes(s)),
            [size], iterations,
        )[size]
        combined_tlps[size] = (link.posted_writes_issued - before) // iterations

    def uncombined_write(size: int, _iteration: int) -> Iterator:
        for offset in range(0, size, 8):
            chunk = min(8, size - offset)
            link.posted_write(chunk,
                              deposit=lambda o=offset, n=chunk: region.write(o, bytes(n)))
            yield engine.timeout(UNCOMBINED_STORE_COST)
        yield from link.non_posted_read(0)  # drain ordering
        return None

    uncombined: dict[int, float] = {}
    uncombined_tlps: dict[int, int] = {}
    for size in sizes:
        before = link.posted_writes_issued
        uncombined[size] = latency_sweep(engine, uncombined_write,
                                         [size], iterations)[size]
        uncombined_tlps[size] = (link.posted_writes_issued - before) // iterations

    return {
        "latency": {"write combining": combined, "uncombined (UC)": uncombined},
        "tlps": {"write combining": combined_tlps, "uncombined (UC)": uncombined_tlps},
    }


def run_read_dma_ablation(
    sizes: tuple[int, ...] = (128, 256, 512, 1024, 1536, 2048, 3072, 4096),
    iterations: int = 4,
) -> dict:
    """MMIO read vs read-DMA latency sweep; locates the crossover the
    paper puts at ~2 KiB (§III-A3)."""
    platform = Platform(seed=21)
    engine, api = platform.engine, platform.api

    def setup() -> Iterator:
        yield from platform.device.write(0, bytes(PAGE))
        return (yield from api.ba_pin(0, 0, 0, PAGE))

    entry = engine.run_process(setup())
    host_buffer = ByteRegion("dma-dst", PAGE)
    mmio = latency_sweep(engine, lambda s, _i: api.mmio_read(entry, 0, s),
                         list(sizes), iterations)
    dma = latency_sweep(engine, lambda s, _i: api.ba_read_dma(0, host_buffer, 0, s),
                        list(sizes), iterations)
    crossover = next((size for size in sizes if dma[size] < mmio[size]), None)
    return {"latency": {"MMIO read": mmio, "read DMA": dma}, "crossover": crossover}


def _sustained_ba_wal_bytes_per_sec(
    double_buffer: bool, buffer_bytes: int, records: int = 1200,
    record_bytes: int = 4096, commit_interval: int = 16, seed: int = 22,
) -> tuple[float, int]:
    """Sustained BA-WAL logging throughput; returns (bytes/s, stalls).

    Group-committing every ``commit_interval`` records keeps the append
    rate above the internal flush bandwidth, so the flush path (and hence
    buffering) is what's being measured.
    """
    params = BaParams(buffer_bytes=buffer_bytes)
    platform = Platform(ba_params=params, seed=seed)
    engine = platform.engine
    area_pages = 64 * (buffer_bytes // PAGE)  # plenty of segments
    wal = BaWAL(engine, platform.api, area_pages=area_pages,
                double_buffer=double_buffer)
    engine.run_process(wal.start())

    def producer() -> Iterator:
        payload = bytes(record_bytes - 64)
        for index in range(records):
            lsn = yield from wal.append(payload)
            if index % commit_interval == commit_interval - 1:
                yield from wal.commit(lsn)
        yield from wal.commit(wal.tail_lsn)
        return None

    start = engine.now
    engine.run(until=engine.process(producer(), name="ba-wal-producer"))
    elapsed = engine.now - start
    return wal.stats.bytes_appended / elapsed, wal.stats.flush_stalls


def run_double_buffering_ablation(records: int = 1200) -> dict:
    """BA-WAL logging throughput with vs without double buffering (§IV-B)."""
    with_db, stalls_db = _sustained_ba_wal_bytes_per_sec(True, 8 * MiB, records)
    without_db, stalls_single = _sustained_ba_wal_bytes_per_sec(False, 8 * MiB, records)
    return {
        "throughput": {"double buffering": with_db, "single buffer": without_db},
        "stalls": {"double buffering": stalls_db, "single buffer": stalls_single},
    }


def run_ba_buffer_size_ablation(
    sizes_mib: tuple[int, ...] = (1, 2, 4, 8, 16), records: int = 1200,
) -> dict:
    """Sustained logging throughput vs BA-buffer size.

    §VI: 'the maximum internal bandwidth ... is achieved when the NVRAM
    size is about 8 MB.  Larger NVRAM capacity ... but we do not expect
    better performance.'
    """
    throughput: dict[int, float] = {}
    for size_mib in sizes_mib:
        bytes_per_sec, _stalls = _sustained_ba_wal_bytes_per_sec(
            True, size_mib * MiB, records,
        )
        throughput[size_mib * MiB] = bytes_per_sec
    return {"throughput": {"BA-WAL logging": throughput}}


def run_pmr_ablation(segment_mib: int = 4, iterations: int = 3) -> dict:
    """2B-SSD internal datapath vs an NVMe PMR-style device (§VII).

    A Persistent Memory Region exposes byte-addressable NVRAM like the
    BA-buffer, but has *no* internal mapping/transfer path to NAND: to
    persist a filled log segment permanently the host must read the
    region out (read DMA) and write it back through the whole block I/O
    stack.  2B-SSD's BA_FLUSH moves the same bytes device-internally.
    """
    from repro.sim.units import MiB

    segment = segment_mib * MiB
    platform = Platform(seed=27)
    engine, api, device = platform.engine, platform.api, platform.device

    def twob_drain() -> Iterator:
        total = 0.0
        for _ in range(iterations):
            yield from api.ba_pin(0, 0, 0, segment)
            start = engine.now
            yield from api.ba_flush(0)
            total += engine.now - start
        return total / iterations

    twob_time = engine.run_process(twob_drain())

    host_buffer = ByteRegion("pmr-staging", segment)

    def pmr_drain() -> Iterator:
        total = 0.0
        for _ in range(iterations):
            yield from api.ba_pin(0, 0, 0, segment)
            start = engine.now
            # PMR path: DMA the region to host DRAM, then block-write it.
            yield from api.ba_read_dma(0, host_buffer, 0, segment)
            yield from device.write(segment // PAGE * 2, host_buffer.read(0, segment))
            yield from device.fsync()
            total += engine.now - start
            yield from api.ba_flush(0)  # unpin (untimed region reuse)
        return total / iterations

    pmr_time = engine.run_process(pmr_drain())
    return {
        "drain_seconds": {"2B-SSD BA_FLUSH": twob_time,
                          "PMR (host-mediated)": pmr_time},
        "segment_bytes": segment,
    }


def run_tail_latency_ablation(commits: int = 1500,
                              record_bytes: int = 100) -> dict:
    """Commit-latency distributions: conventional sync WAL vs BA-WAL.

    §IV-A: absorbing small frequent writes in the BA-buffer 'optimizes
    ... tail latencies' — the conventional path's tail grows whenever a
    commit lands behind NAND-program-induced device jitter or a segment
    flush, while BA commits stay flat.

    Percentiles come from the observability layer's bucketed histograms
    (:class:`repro.obs.LatencyHistogram`), the same machinery
    ``repro trace`` reports.
    """
    from repro.obs import LatencyHistogram

    def run(wal_factory, platform) -> dict:
        engine = platform.engine
        wal = wal_factory()
        recorder = LatencyHistogram()

        def producer() -> Iterator:
            for _ in range(commits):
                start = engine.now
                yield from wal.append_and_commit(bytes(record_bytes))
                recorder.record(engine.now - start)
            return None

        engine.run(until=engine.process(producer(), name="tail-producer"))
        return recorder.summary()

    import dataclasses

    platform_block = Platform(seed=25)
    # Real devices jitter; give the conventional path a +-15% command-
    # latency spread so its tail is visible (the calibrated default
    # profiles are jitter-free to keep Fig. 7 exact).
    jittery = dataclasses.replace(ULL_SSD, latency_jitter=0.15)
    device = platform_block.add_block_ssd(jittery, name="tail-log")
    block = run(
        lambda: BlockWAL(platform_block.engine, device, platform_block.cpu,
                         area_pages=16384),
        platform_block,
    )

    platform_ba = Platform(seed=26)
    def make_ba():
        wal = BaWAL(platform_ba.engine, platform_ba.api, area_pages=16384)
        platform_ba.engine.run_process(wal.start())
        return wal

    ba = run(make_ba, platform_ba)
    return {"conventional WAL": block, "BA-WAL": ba}


def run_waf_ablation(commits: int = 800, record_bytes: int = 100) -> dict:
    """NAND page programs per committed log record: conventional WAL's
    repeated partial-page rewrites vs BA-WAL's one program per page (§IV-A).
    """
    # Conventional: every commit rewrites the current 4 KiB log page.
    platform = Platform(seed=23)
    device = platform.add_block_ssd(ULL_SSD, name="waf-log")
    engine = platform.engine
    block_wal = BlockWAL(engine, device, platform.cpu, area_pages=16384)

    def block_run() -> Iterator:
        for _ in range(commits):
            yield from block_wal.append_and_commit(bytes(record_bytes))
        yield from device.drain()
        return None

    engine.run(until=engine.process(block_run(), name="waf-block"))
    block_programs = device.flash.stats.page_programs

    # BA-WAL: pages reach NAND once per BA_FLUSH of a filled segment.
    params = BaParams(buffer_bytes=64 * 1024)  # small buffer: force flushes
    platform = Platform(ba_params=params, seed=24)
    engine = platform.engine
    ba_wal = BaWAL(engine, platform.api, area_pages=16384)
    engine.run_process(ba_wal.start())

    def ba_run() -> Iterator:
        for _ in range(commits):
            yield from ba_wal.append_and_commit(bytes(record_bytes))
        return None

    engine.run(until=engine.process(ba_run(), name="waf-ba"))
    ba_programs = platform.device.flash.stats.page_programs

    logged_bytes = commits * record_bytes
    return {
        "nand_page_programs": {"conventional WAL": block_programs,
                               "BA-WAL": max(ba_programs, 1)},
        "programs_per_commit": {
            "conventional WAL": block_programs / commits,
            "BA-WAL": ba_programs / commits,
        },
        "page_rewrites": block_wal.stats.page_rewrites,
        "logged_bytes": logged_bytes,
    }
