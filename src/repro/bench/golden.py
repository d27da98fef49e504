"""Golden determinism workloads: fixed seed -> bit-identical platform stats.

The simulation-kernel fast paths and the batched NAND operations are pure
wall-clock optimizations: they must not change *simulated* behaviour at
all.  Each scenario here drives a fixed-seed workload across the layers
those optimizations touch (event kernel, resources, BA pin/flush, the
write-cache destage path, garbage collection) and returns the full
:func:`repro.observability.collect_stats` report serialized as canonical
JSON.  ``tests/golden/*.json`` holds the output captured before the
optimizations landed; ``tests/test_golden_determinism.py`` re-runs every
scenario and compares byte-for-byte.

Adding a scenario: write a function returning a JSON-serializable dict,
register it in :data:`SCENARIOS`, and regenerate the goldens with::

    PYTHONPATH=src python -m repro.bench.golden [--update]
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Callable, Iterator

from repro.sim.units import KiB


GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[3] / "tests" / "golden"

PAGE = 4096


def canonical_json(payload: dict) -> str:
    """Stable serialization: sorted keys, explicit float repr via json."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# -- scenarios ---------------------------------------------------------------


def scenario_ba_datapath() -> dict:
    """BA_PIN / BA_SYNC / BA_FLUSH over a populated device (seed 101).

    Exercises the firmware-core pacing, the batched NAND read/program
    fan-out behind pin and flush, the write-cache destage workers, and
    the LBA checker — everything the BA-path batching touches.
    """
    from repro.observability import collect_stats
    from repro.platform import Platform

    platform = Platform(seed=101)
    engine, api, device = platform.engine, platform.api, platform.device

    def drive() -> Iterator:
        # Populate 2 MiB through the block path (destage workers engaged).
        for lpn in range(0, 512, 8):
            yield from device.write(lpn, bytes([lpn & 0xFF]) * (8 * PAGE))
        yield from device.drain()
        # Pin/dirty/sync/flush entries of assorted sizes, including a
        # never-written range (the unmapped fast path) and a re-pin.
        sweeps = [(0, 1), (8, 4), (16, 16), (64, 64), (300, 32), (4000, 8), (16, 16)]
        for eid, (lba, npages) in enumerate(sweeps):
            entry = yield from api.ba_pin(eid, 0, lba, npages * PAGE)
            yield from api.mmio_write(entry, 0, bytes(256))
            yield from api.ba_sync(eid)
            yield from api.ba_flush(eid)
        yield from device.drain()
        return None

    engine.run(until=engine.process(drive(), name="golden-ba"))
    engine.run()
    return collect_stats(platform)


def scenario_ycsb_bawal() -> dict:
    """YCSB-A on the Redis-like store over BA-WAL (seed 202).

    The end-to-end system path: WAL pinning/recycling log segments via
    the byte API while client processes contend on kernel resources.
    """
    from repro.bench.drivers import run_ycsb_on_memkv
    from repro.db.memkv import MemKV
    from repro.observability import collect_stats
    from repro.platform import Platform
    from repro.wal import BaWAL
    from repro.workloads import YcsbConfig, YcsbWorkload

    platform = Platform(seed=202)
    wal = BaWAL(platform.engine, platform.api, area_pages=4096)
    platform.engine.run_process(wal.start())
    store = MemKV(platform.engine, wal)
    workload = YcsbWorkload(
        YcsbConfig.workload_a(payload_bytes=192, record_count=300),
        platform.rng.fork("golden-ycsb").stream("ops"),
    )
    result = run_ycsb_on_memkv(platform.engine, store, workload, 600, clients=4)
    report = collect_stats(platform)
    report["workload"] = {
        "operations": result.operations,
        "elapsed_seconds": result.elapsed_seconds,
    }
    return report


def scenario_block_gc() -> dict:
    """Sustained overwrites on a small block SSD until GC churns (seed 303).

    A shrunken geometry keeps the run fast while forcing foreground and
    background garbage collection, block erases, and wear accumulation —
    the FTL paths whose victim selection and allocation order must not
    shift under the optimizations.
    """
    from repro.observability import collect_stats
    from repro.platform import Platform
    from repro.ssd import ULL_SSD
    from repro.nand.geometry import NandGeometry

    profile = dataclasses.replace(
        ULL_SSD,
        name="GC-MINI",
        geometry=NandGeometry(channels=2, dies_per_channel=2,
                              blocks_per_die=8, pages_per_block=16),
        cache_bytes=64 * KiB,
        destage_workers=8,
    )
    platform = Platform(seed=303)
    device = platform.add_block_ssd(profile)
    engine = platform.engine
    span = device.logical_pages // 2

    def drive() -> Iterator:
        for round_no in range(6):
            for lpn in range(0, span, 4):
                payload = bytes([round_no]) * (4 * PAGE)
                yield from device.write(lpn, payload)
            yield from device.drain()
        # Read a stripe back so read-path timing lands in the stats too.
        for lpn in range(0, span, 16):
            yield from device.read(lpn, 4 * PAGE)
        return None

    engine.run(until=engine.process(drive(), name="golden-gc"))
    engine.run()
    return collect_stats(platform)


def scenario_cluster_replicated() -> dict:
    """Replicated logging on a 3-device pool, RF=2 (seed 404).

    Exercises the cluster layer end to end on one shared kernel: the
    placement ring, per-node BA budgeting *including* block-WAL fallback
    (six streams put >4 legs on at least one of the three nodes), the
    interconnect, quorum commits, and the merged multi-platform stats
    report.  A shrunken BA-buffer (64 KiB -> 8 KiB segments) forces
    half-switch flushes and segment recycling mid-stream.
    """
    from repro.cluster import DevicePool, run_replicated_logging
    from repro.core import BaParams
    from repro.sim.units import KiB
    from repro.wal.record import RECORD_HEADER_BYTES

    pool = DevicePool(devices=3, seed=404,
                      ba_params=BaParams(buffer_bytes=64 * KiB),
                      area_pages=16)
    result = run_replicated_logging(
        pool,
        streams=6,
        clients_per_stream=2,
        records_per_client=12,
        payload_bytes=1024 - RECORD_HEADER_BYTES,
        replicas=2,
    )
    report = pool.collect_stats()
    report["workload"] = {
        "records_acked": result.records_acked,
        "ba_legs": result.ba_legs,
        "block_legs": result.block_legs,
        "elapsed_seconds": result.sim_seconds,
    }
    report["streams"] = {
        name: {
            "primary": stream.primary.node.name,
            "replicas": [leg.node.name for leg in stream.replica_legs],
            "quorum": stream.quorum,
            "durable_lsn": stream.durable_lsn,
            "tail_lsn": stream.tail_lsn,
        }
        for name, stream in sorted(pool.streams.items())
    }
    return report


def scenario_nemesis_campaign() -> dict:
    """The canonical 3-node nemesis campaign (seed 4242).

    A replica power loss followed by a primary-side partition on a
    3-device pool: exercises the crash purge, failover promotion, the
    pipeline/WAL respawn path, and the streaming analyzer end to end.
    The whole campaign verdict is the fixture, so any drift in crash
    semantics, event counts, or analyzer bookkeeping shows up
    byte-for-byte.
    """
    from repro.nemesis.campaign import run_campaign
    from repro.nemesis.legs import CAMPAIGNS

    return run_campaign(CAMPAIGNS["golden-3node"])


def scenario_gateway_serving() -> dict:
    """The serving front door on a 3-node pool, 64 clients (seed 909).

    Pipelined mixed commands multiplexed onto per-node shard queues with
    WAL-first quorum commits, plus a mid-run backpressure episode: tiny
    64-byte socket buffers and two slowloris readers fill the reply
    pipes, stall the connection writers, exhaust the pipelining windows,
    and push back through the shard queues to every sender — the whole
    flow-control chain, byte-for-byte.  Every group-commit cap is 1 (one
    lane, one command per barrier, one frame per socket write): the
    per-command cadence.  The fixture folds in the merged pool stats,
    every gateway span histogram, and the serving counters.
    """
    from repro.cluster import DevicePool
    from repro.gateway import GatewayConfig, run_serving
    from repro.obs import tracing

    with tracing.activated() as tracer:
        pool = DevicePool(devices=3, seed=909)
        result = run_serving(
            pool, GatewayConfig(pipeline_depth=8, queue_depth=8,
                                socket_buffer_bytes=64, writer_lanes=1,
                                commit_batch_commands=1,
                                reply_flush_frames=1),
            clients=64, commands_per_client=12,
            slow_clients=2, slow_recv_delay=2e-4)
        report = pool.collect_stats(tracer=tracer)
    report["serving"] = result.to_dict()
    return report


def scenario_gateway_group_commit() -> dict:
    """The group-commit serving pipeline on a 3-node pool (seed 909).

    Same mixed load as ``gateway_serving`` at the default caps: four
    key-striped lanes per shard, batched appends and
    replication, one quorum barrier per commit window, scatter-gather
    reply flushing.  The fixture locks the whole pipeline's simulated
    behaviour — batch shapes, admit stalls, barrier counts, and every
    span histogram — byte-for-byte.
    """
    from repro.cluster import DevicePool
    from repro.gateway import GatewayConfig, run_serving
    from repro.obs import tracing

    with tracing.activated() as tracer:
        pool = DevicePool(devices=3, seed=909)
        result = run_serving(
            pool, GatewayConfig(pipeline_depth=8, queue_depth=8,
                                socket_buffer_bytes=64),
            clients=64, commands_per_client=12,
            slow_clients=2, slow_recv_delay=2e-4)
        report = pool.collect_stats(tracer=tracer)
    report["serving"] = result.to_dict()
    return report


SCENARIOS: dict[str, Callable[[], dict]] = {
    "ba_datapath": scenario_ba_datapath,
    "ycsb_bawal": scenario_ycsb_bawal,
    "block_gc": scenario_block_gc,
    "cluster_replicated": scenario_cluster_replicated,
    "nemesis_campaign": scenario_nemesis_campaign,
    "gateway_serving": scenario_gateway_serving,
    "gateway_group_commit": scenario_gateway_group_commit,
}


def run_scenario(name: str) -> str:
    """Run one scenario and return its canonical-JSON report."""
    return canonical_json(SCENARIOS[name]())


def main(argv: list[str] | None = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="rewrite tests/golden/*.json with fresh output")
    parser.add_argument("names", nargs="*", default=list(SCENARIOS),
                        help="scenarios to run (default: all)")
    args = parser.parse_args(argv)
    from repro.analysis import sanitizer as simsan

    simsan.enable_from_env()  # REPRO_SANITIZE=1: same bytes, invariants checked
    status = 0
    for name in args.names or list(SCENARIOS):
        text = run_scenario(name)
        path = GOLDEN_DIR / f"{name}.json"
        if args.update:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path}")
        else:
            expected = path.read_text() if path.exists() else None
            match = "MATCH" if text == expected else "MISMATCH"
            if text != expected:
                status = 1
            print(f"{name}: {match}")
    return status


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
