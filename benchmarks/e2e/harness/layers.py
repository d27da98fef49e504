"""The per-layer ledger: counters, simulated spans, host self time, probes.

A layer is a package under ``src/repro/``.  Three sources, all read from
outside the program:

* **counters** — the stats surfaces the system already has
  (``server.stats()``, ``collect_stats``, ``WalStats``, ``tree.*``),
  divided by the round's ops or user bytes;
* **spans** — the simulated-clock histograms ``tracing.activated()``
  fills during the traced pass;
* **self time** — ``cProfile`` ``tottime`` of the profiled pass, bucketed
  by the file each frame lives in.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Callable, Optional

PAGE = 4096
SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "..",
                                    "..", "src", "repro"))
HERE = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))

#: Layers that get a ``<layer>.self_us_per_op`` row of their own; any
#: other file under src/repro/ lands in ``other``.
LEDGER_LAYERS = ("gateway", "cluster", "wal", "core", "host", "pcie", "ssd",
                 "ftl", "nand", "db", "sim", "obs")

#: per-layer metric -> (span name prefix, percentile).  A prefix folds
#: every histogram under it (``wal.ba.append`` + ``wal.ba.append_batch``).
SPANS = {
    "gateway.frame_parse_p50_us": ("gateway.frame.parse", 50.0),
    "gateway.queue_wait_p50_us": ("gateway.queue.wait", 50.0),
    "gateway.queue_wait_p99_us": ("gateway.queue.wait", 99.0),
    "gateway.reply_write_p50_us": ("gateway.reply.write", 50.0),
    "gateway.wal_append_p50_us": ("gateway.wal.append", 50.0),
    "gateway.wal_quorum_p50_us": ("gateway.wal.quorum", 50.0),
    "gateway.wal_quorum_p99_us": ("gateway.wal.quorum", 99.0),
    "cluster.append_batch_p50_us": ("cluster.append", 50.0),
    "cluster.quorum_wait_p50_us": ("cluster.quorum_wait", 50.0),
    "cluster.quorum_wait_p99_us": ("cluster.quorum_wait", 99.0),
    "cluster.net_send_p50_us": ("cluster.net.send", 50.0),
    "wal.ba_append_p50_us": ("wal.ba.append", 50.0),
    "wal.ba_commit_p50_us": ("wal.ba.commit", 50.0),
    "wal.ba_commit_p99_us": ("wal.ba.commit", 99.0),
    "core.ba_sync_p50_us": ("core.api.ba_sync", 50.0),
    "core.ba_flush_p50_us": ("core.api.ba_flush", 50.0),
    "core.ba_pin_p50_us": ("core.api.ba_pin", 50.0),
    "host.wc_store_p50_us": ("host.cpu.wc_store", 50.0),
    "host.wc_flush_p50_us": ("host.cpu.wc_flush", 50.0),
    "host.write_verify_read_p50_us": ("host.cpu.write_verify_read", 50.0),
    "pcie.posted_flight_p50_us": ("pcie.link.posted_write_flight", 50.0),
    "ssd.nvme_submit_p50_us": ("ssd.nvme.submit", 50.0),
    "ftl.write_p50_us": ("ftl.pagemap.write", 50.0),
    "nand.program_p50_us": ("nand.array.program", 50.0),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- counters ---------------------------------------------------------------

def gateway_counters(stats: dict, wal_stats: list, ops: int,
                     user_bytes: int) -> dict:
    """From ``GatewayServer.stats()`` and every stream leg's ``WalStats``."""
    group = stats.get("group_commit", {})
    kops = ops / 1000.0
    return {
        "gateway.queue_stalls_per_kop": _ratio(stats["queue_stalls"], kops),
        "gateway.socket_stalls_per_kop": _ratio(stats["socket_stalls"], kops),
        "gateway.commit_batch_mean": _ratio(group.get("commands", 0),
                                            group.get("barriers", 0)),
        "gateway.commit_barriers_per_kop": _ratio(group.get("barriers", 0),
                                                  kops),
        "gateway.admit_stalls_per_kop": _ratio(group.get("admit_stalls", 0),
                                               kops),
        **wal_counters(wal_stats, user_bytes),
    }


def wal_counters(wal_stats: list, user_bytes: int) -> dict:
    return {
        "wal.bytes_per_user_byte": _ratio(
            sum(stats.bytes_appended for stats in wal_stats), user_bytes),
        "wal.flush_stalls": sum(stats.flush_stalls for stats in wal_stats),
    }


def cluster_counters(interconnect: dict, ops: int, user_bytes: int) -> dict:
    return {
        "cluster.net_messages_per_op": _ratio(interconnect["messages"], ops),
        "cluster.net_bytes_per_user_byte": _ratio(interconnect["bytes_sent"],
                                                  user_bytes),
    }


def device_counters(hosts: list, pcies: list, devices: list, ops: int,
                    user_bytes: int) -> dict:
    """From ``collect_stats`` sections, summed over nodes and devices."""
    kops = ops / 1000.0
    user_pages = user_bytes / PAGE

    def total(section: str, name: str) -> float:
        return sum(device.get(section, {}).get(name, 0) for device in devices)

    host_pages = total("ftl", "host_pages_written")
    return {
        "core.ba_flushes": total("ba_buffer", "flushes"),
        "core.pages_flushed_per_user_page": _ratio(
            total("ba_buffer", "pages_flushed"), user_pages),
        "core.lba_checks_per_kop": _ratio(total("lba_checker", "checks"),
                                          kops),
        "host.wc_lines_per_op": _ratio(
            sum(host["wc_buffer"]["lines_staged"] for host in hosts), ops),
        "host.wc_evictions_per_kop": _ratio(
            sum(host["wc_buffer"]["lines_evicted"] for host in hosts), kops),
        "pcie.posted_writes_per_op": _ratio(
            sum(pcie["posted_writes"] for pcie in pcies), ops),
        "pcie.read_tlps_per_op": _ratio(
            sum(pcie["read_tlps"] for pcie in pcies), ops),
        "ssd.block_writes_per_kop": _ratio(total("block_io", "writes"), kops),
        "ssd.block_bytes_per_user_byte": _ratio(
            total("block_io", "bytes_written"), user_bytes),
        "ssd.flushes_per_kop": _ratio(total("block_io", "flushes"), kops),
        "ftl.host_pages_written": host_pages,
        "ftl.waf": _ratio(host_pages + total("ftl", "gc_pages_written"),
                          host_pages) or 1.0,
        "ftl.gc_runs": total("ftl", "gc_runs"),
        "ftl.foreground_gc_stalls": total("ftl", "foreground_gc_stalls"),
        "nand.page_programs_per_user_page": _ratio(
            total("nand", "page_programs"), user_pages),
        "nand.page_reads_per_kop": _ratio(total("nand", "page_reads"), kops),
        "nand.block_erases": total("nand", "block_erases"),
    }


# -- spans ------------------------------------------------------------------

def span_metrics(tracer, user_bytes: int) -> dict:
    """Simulated-clock span percentiles (us) from the traced pass."""
    metrics = {}
    for name, (prefix, pct) in SPANS.items():
        try:
            snapshot = tracer.merged_snapshot(prefix)
        except KeyError:
            metrics[name] = 0.0  # the workload never enters this span
        else:
            metrics[name] = snapshot.percentile(pct) * 1e6
    metrics["pcie.posted_bytes_per_user_byte"] = _ratio(
        tracer.counters.get("pcie.link.posted_bytes", 0), user_bytes)
    return metrics


# -- host self time ---------------------------------------------------------

def layer_of(filename: str) -> str:
    """The ledger row a profiled frame's file belongs to."""
    path = os.path.realpath(filename) if os.path.isabs(filename) else filename
    if path.startswith(SRC + os.sep):
        head = path[len(SRC) + 1:].split(os.sep)[0]
        return head if head in LEDGER_LAYERS else "other"
    if path.startswith(HERE + os.sep):
        return "harness"
    return "stdlib"  # builtins ("~"), struct, hashlib, heapq, ...


def profile_ledger(run: Callable[[], int]) -> dict:
    """Run ``run()`` (returns its op count) under cProfile and split
    ``tottime`` by layer.  Every frame lands in exactly one row, so the
    rows sum to the profiled total; the assertion keeps it that way."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        ops = run()
    finally:
        profiler.disable()
    rows = dict.fromkeys((*LEDGER_LAYERS, "stdlib", "harness", "other"), 0.0)
    stats = pstats.Stats(profiler)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) in \
            stats.stats.items():
        rows[layer_of(filename)] += tottime
    total = stats.total_tt
    if abs(sum(rows.values()) - total) > 0.01 * total:
        raise AssertionError("ledger rows do not sum to the profiled total")
    metrics = {f"{layer}.self_us_per_op": seconds * 1e6 / ops
               for layer, seconds in rows.items()}
    metrics["sim.self_share"] = _ratio(rows["sim"], total)
    return metrics


# -- probes -----------------------------------------------------------------

def _per_call_ns(call: Callable[[], object], budget_s: float = 0.2) -> float:
    """Median wall ns per call over batches filling ``budget_s``."""
    batch = 2000
    samples = []
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(samples) < 3:
        start = time.perf_counter_ns()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter_ns() - start) / batch)
    samples.sort()
    return samples[len(samples) // 2]


def _commit_probe_us(make_wal: Callable, iterations: int = 64) -> float:
    """Mean simulated us of a QD1 append+commit of 256 B."""
    from repro.platform import Platform

    platform = Platform(seed=7)
    engine = platform.engine
    wal = make_wal(platform)
    payload = bytes(256)

    def drive():
        for _ in range(iterations):
            yield engine.process(wal.append_and_commit(payload))

    engine.run()
    start = engine.now
    engine.run_process(drive())
    return (engine.now - start) / iterations * 1e6


def _ba_wal(platform):
    from repro.wal.ba_wal import BaWAL

    wal = BaWAL(platform.engine, platform.api)
    platform.engine.run_process(wal.start())
    return wal


def _block_wal(platform):
    from repro.ssd import ULL_SSD
    from repro.wal.base import CommitMode
    from repro.wal.block_wal import BlockWAL

    return BlockWAL(platform.engine, platform.add_block_ssd(ULL_SSD),
                    platform.cpu, mode=CommitMode.SYNCHRONOUS)


def probes() -> dict:
    """Each layer alone (FMMU's habit): direct calls, under 0.5 s each."""
    from repro.bench.experiments import run_fig7
    from repro.bench.wallclock import microbench_once
    from repro.db.memkv.commands import Command
    from repro.gateway.protocol import (FrameDecoder, decode_request,
                                        encode_request)

    value = bytes(64)
    frame = encode_request(Command.SET, "k00042", value)

    def decode() -> None:
        for body in FrameDecoder().feed(frame):
            decode_request(body)

    microbench_once(8, 50)  # warm the kernel's code paths
    iterations, seconds = microbench_once()
    fig7 = run_fig7(iterations=2)
    return {
        "gateway.proto_encode_ns_per_frame": _per_call_ns(
            lambda: encode_request(Command.SET, "k00042", value)),
        "gateway.proto_decode_ns_per_frame": _per_call_ns(decode),
        "wal.ba_commit_probe_us": _commit_probe_us(_ba_wal),
        "wal.block_commit_probe_us": _commit_probe_us(_block_wal),
        "sim.kernel_events_per_s": iterations / seconds,
        # Paper: 16.6x and 2.6x (PAPER.md, Fig. 7); a speed-up that moves
        # these moved the calibrated model.
        "accuracy.mmio_vs_block_write_x": (
            fig7["write"]["ULL-SSD block write"][4096]
            / fig7["write"]["2B-SSD MMIO write"][8]),
        "accuracy.read_dma_vs_mmio_4k_x": (
            fig7["read"]["2B-SSD MMIO read"][4096]
            / fig7["read"]["2B-SSD read DMA"][4096]),
    }


def traced(run: Callable[[], dict]) -> tuple[dict, object, float]:
    """Run one round under ``tracing.activated()``; returns (round
    result, tracer, wall seconds)."""
    from repro.obs import tracing

    with tracing.activated() as tracer:
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
    return result, tracer, wall


def differing(plain: dict, other: dict) -> Optional[str]:
    """The first simulated or exact metric on which two passes of one
    round disagree."""
    for name, value in plain.items():
        if other[name] != value:
            return f"{name}: {value!r} != {other[name]!r}"
    return None
