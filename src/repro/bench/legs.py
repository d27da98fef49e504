"""Leg adapters: every benchmark/ablation/cluster driver as runner legs.

Each adapter wraps one driver from :mod:`repro.bench.experiments`,
:mod:`repro.bench.ablations`, :mod:`repro.bench.golden`, or
:mod:`repro.cluster` behind the :class:`~repro.bench.runner.Leg`
contract: module-level (so dotted paths resolve in pool workers),
JSON-safe return values (``RunResult`` objects are flattened), and every
random draw seeded through explicit kwargs.

The BA warm sweep at the bottom is the snapshot-reuse showcase: one
expensive shared warm-up (block-populating the device and settling the
BA path) forked into many cheap measurement legs.  Its legs return the
full ``collect_stats`` report, so "reuse on" vs "reuse off" being
byte-identical doubles as the snapshot-faithfulness proof.

``full_matrix()`` / ``ablation_sweep()`` / ``golden_matrix()`` are the
canned matrices the wallclock harness, the ``repro perf`` runner
section, and the CI determinism gate consume.
"""

from __future__ import annotations

import dataclasses
import json

from repro.bench.runner import Leg, WarmSpec, leg

PAGE = 4096

_HERE = "repro.bench.legs"


def _jsonify(value):
    """Flatten driver output to JSON-safe data (RunResult -> dict, keys -> str)."""
    from repro.bench.drivers import RunResult

    if isinstance(value, RunResult):
        return {
            "operations": value.operations,
            "elapsed_seconds": value.elapsed_seconds,
            "commit_latency_total": value.commit_latency_total,
            "throughput": value.throughput,
            "mean_commit_latency": value.mean_commit_latency,
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonify(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


# -- figure and table drivers ------------------------------------------------


def table1_leg() -> dict:
    from repro.bench.experiments import run_table1

    return _jsonify(run_table1())


def fig7_leg(iterations: int = 2) -> dict:
    from repro.bench.experiments import run_fig7

    return _jsonify(run_fig7(iterations=iterations))


def fig8_leg(iterations: int = 1) -> dict:
    from repro.bench.experiments import run_fig8

    return _jsonify(run_fig8(iterations=iterations))


def fig9_postgres_leg(txns: int = 400, clients: int = 4, seed: int = 10,
                      node_count: int = 800) -> dict:
    from repro.bench.experiments import run_fig9_postgres

    return _jsonify(run_fig9_postgres(txns=txns, clients=clients, seed=seed,
                                      node_count=node_count))


def fig9_rocksdb_leg(payloads: tuple = (128,), ops: int = 300,
                     clients: int = 4, seed: int = 11) -> dict:
    from repro.bench.experiments import run_fig9_rocksdb

    return _jsonify(run_fig9_rocksdb(payloads=tuple(payloads), ops=ops,
                                     clients=clients, seed=seed))


def fig9_redis_leg(payloads: tuple = (128,), ops: int = 300,
                   clients: int = 4, seed: int = 12) -> dict:
    from repro.bench.experiments import run_fig9_redis

    return _jsonify(run_fig9_redis(payloads=tuple(payloads), ops=ops,
                                   clients=clients, seed=seed))


def fig10_leg(txns: int = 400, clients: int = 4, seed: int = 13,
              node_count: int = 800) -> dict:
    from repro.bench.experiments import run_fig10

    return _jsonify(run_fig10(txns=txns, clients=clients, seed=seed,
                              node_count=node_count))


def compaction_leg(ops: int = 1400, keys: int = 220, seed: int = 21) -> dict:
    from repro.bench.experiments import run_compaction_throughput

    return _jsonify(run_compaction_throughput(ops=ops, keys=keys, seed=seed))


# -- ablations ---------------------------------------------------------------


def wc_ablation_leg() -> dict:
    from repro.bench.ablations import run_write_combining_ablation

    return _jsonify(run_write_combining_ablation())


def read_dma_ablation_leg() -> dict:
    from repro.bench.ablations import run_read_dma_ablation

    return _jsonify(run_read_dma_ablation())


def double_buffering_leg(records: int = 600) -> dict:
    from repro.bench.ablations import run_double_buffering_ablation

    return _jsonify(run_double_buffering_ablation(records=records))


def tail_latency_leg(commits: int = 500, record_bytes: int = 100) -> dict:
    from repro.bench.ablations import run_tail_latency_ablation

    return _jsonify(run_tail_latency_ablation(commits=commits,
                                              record_bytes=record_bytes))


def waf_ablation_leg(commits: int = 400, record_bytes: int = 100) -> dict:
    from repro.bench.ablations import run_waf_ablation

    return _jsonify(run_waf_ablation(commits=commits, record_bytes=record_bytes))


# -- cluster and goldens -----------------------------------------------------


def cluster_leg(devices: int = 2, seed: int = 17) -> dict:
    from repro.bench.wallclock import CLUSTER_LOAD
    from repro.cluster import DevicePool, run_replicated_logging

    load = dict(CLUSTER_LOAD)
    load.pop("seed")
    pool = DevicePool(devices=devices, seed=seed)
    result = run_replicated_logging(pool, **load)
    return {
        "records_per_sec": round(result.records_per_sec, 1),
        "ba_legs": result.ba_legs,
        "block_legs": result.block_legs,
        "simulated_seconds": result.sim_seconds,
    }


def golden_leg(name: str) -> dict:
    from repro.bench.golden import run_scenario

    return json.loads(run_scenario(name))


# -- BA warm sweep: the snapshot-reuse workload ------------------------------


def build_sweep_platform(seed: int = 71, populate_pages: int = 1536,
                         overwrite_rounds: int = 0, read_rounds: int = 0):
    """Builder for the warm sweep (the other kwargs belong to warm)."""
    from repro.platform import Platform

    del populate_pages, overwrite_rounds, read_rounds  # consumed by warm
    return Platform(seed=seed)


def warm_sweep_platform(platform, seed: int = 71, populate_pages: int = 1536,
                        overwrite_rounds: int = 0,
                        read_rounds: int = 0) -> None:
    """Shared warm-up: block-populate the device and settle the BA path.

    ``overwrite_rounds`` re-writes the populated range to age the FTL
    (out-of-place writes, destage traffic, wear); ``read_rounds`` then
    sweeps the working set through the timed read path (die/channel
    arbitration, ECC sampling) — simulation work that makes the warm-up
    expensive *without* growing the snapshot, which is exactly the shape
    of warm-up the snapshot cache exists to amortize.  Ends at kernel
    quiescence with drained caches and an empty WC buffer — the
    ``Platform.snapshot`` preconditions.
    """
    del seed  # identifies the build; warm itself draws via the platform
    engine, api, device = platform.engine, platform.api, platform.device

    def drive():
        for round_no in range(1 + overwrite_rounds):
            for lpn in range(0, populate_pages, 8):
                payload = bytes([(lpn + round_no) & 0xFF]) * (8 * PAGE)
                yield from device.write(lpn, payload)
            yield from device.drain()
        for _round in range(read_rounds):
            for lpn in range(0, populate_pages, 8):
                yield from device.read(lpn, 8 * PAGE)
        entry = yield from api.ba_pin(0, 0, 0, 32 * PAGE)
        yield from api.mmio_write(entry, 0, b"\x5a" * 1024)
        yield from api.ba_sync(0)
        yield from api.ba_flush(0)
        yield from device.drain()
        return None

    engine.run(until=engine.process(drive(), name="sweep-warm"))
    engine.run()


def sweep_leg(platform, lba: int = 0, npages: int = 8, entry_id: int = 1,
              rounds: int = 3, write_bytes: int = 512) -> dict:
    """One sweep point: BA pin/dirty/sync/flush cycles at a given extent.

    Returns the leg parameters plus the *full* platform stats report:
    any divergence between a restored and a re-warmed platform — one
    event, one RNG draw, one counter — shows up here byte-for-byte.
    """
    from repro.observability import collect_stats

    engine, api = platform.engine, platform.api

    def drive():
        for _round in range(rounds):
            entry = yield from api.ba_pin(entry_id, 0, lba, npages * PAGE)
            yield from api.mmio_write(entry, 0, b"\xc3" * write_bytes)
            yield from api.ba_sync(entry_id)
            yield from api.ba_flush(entry_id)
        yield from platform.device.drain()
        return None

    engine.run(until=engine.process(drive(), name="sweep-leg"))
    engine.run()
    return {
        "lba": lba,
        "npages": npages,
        "rounds": rounds,
        "stats": collect_stats(platform),
    }


_SWEEP_WARM = WarmSpec(
    build=f"{_HERE}:build_sweep_platform",
    warm=f"{_HERE}:warm_sweep_platform",
    kwargs=(("overwrite_rounds", 1), ("populate_pages", 1536),
            ("read_rounds", 400), ("seed", 71)),
)

#: The BA extent sweep: one shared warm-up, twelve measurement points.
SWEEP_POINTS = ((0, 4), (32, 6), (64, 8), (96, 12), (128, 16), (192, 24),
                (256, 32), (384, 48), (512, 64), (768, 96), (1024, 128),
                (1200, 192))


def ablation_sweep(warm: WarmSpec = _SWEEP_WARM) -> list[Leg]:
    """The single-sweep matrix for the >=1.3x snapshot-reuse criterion."""
    return [
        leg(f"sweep:lba{lba}-n{npages}", f"{_HERE}:sweep_leg", warm=warm,
            lba=lba, npages=npages, entry_id=1)
        for lba, npages in SWEEP_POINTS
    ]


def full_matrix() -> list[Leg]:
    """The whole evaluation matrix: figures, ablations, cluster, sweep."""
    matrix = [
        leg("table1", f"{_HERE}:table1_leg"),
        leg("fig7", f"{_HERE}:fig7_leg", iterations=2),
        leg("fig9:postgres", f"{_HERE}:fig9_postgres_leg",
            txns=60, clients=2, seed=10, node_count=120),
        leg("fig9:rocksdb", f"{_HERE}:fig9_rocksdb_leg",
            payloads=(128,), ops=300, clients=4, seed=11),
        leg("fig9:redis", f"{_HERE}:fig9_redis_leg",
            payloads=(128,), ops=300, clients=4, seed=12),
        leg("fig10", f"{_HERE}:fig10_leg",
            txns=60, clients=2, seed=13, node_count=120),
        leg("ablation:wc", f"{_HERE}:wc_ablation_leg"),
        leg("ablation:read-dma", f"{_HERE}:read_dma_ablation_leg"),
        leg("ablation:double-buffering", f"{_HERE}:double_buffering_leg",
            records=300),
        leg("ablation:tail-latency", f"{_HERE}:tail_latency_leg",
            commits=500, record_bytes=100),
        leg("ablation:waf", f"{_HERE}:waf_ablation_leg",
            commits=400, record_bytes=100),
        leg("compaction", f"{_HERE}:compaction_leg", ops=1400, keys=220, seed=21),
        leg("cluster:2dev", f"{_HERE}:cluster_leg", devices=2, seed=17),
        leg("golden:ba_datapath", f"{_HERE}:golden_leg", name="ba_datapath"),
        leg("golden:block_gc", f"{_HERE}:golden_leg", name="block_gc"),
    ]
    matrix.extend(ablation_sweep())
    return matrix


def golden_matrix() -> list[Leg]:
    """The determinism-gate matrix: golden fixtures plus a small warm sweep.

    The sweep legs share a lighter warm-up than the perf matrix so the
    gate stays quick while still exercising snapshot capture, caching,
    and restore on both the reuse and no-reuse paths.
    """
    warm = WarmSpec(
        build=f"{_HERE}:build_sweep_platform",
        warm=f"{_HERE}:warm_sweep_platform",
        kwargs=(("populate_pages", 256), ("seed", 72)),
    )
    legs = [
        leg(f"golden:{name}", f"{_HERE}:golden_leg", name=name)
        for name in ("ba_datapath", "ycsb_bawal", "block_gc",
                     "cluster_replicated", "nemesis_campaign",
                     "gateway_serving")
    ]
    legs.extend(
        leg(f"sweep:lba{lba}-n{npages}", f"{_HERE}:sweep_leg", warm=warm,
            lba=lba, npages=npages, entry_id=1)
        for lba, npages in ((0, 4), (32, 16))
    )
    # The die-parallel compaction leg rides in the gate too (same
    # definition as the perf matrix), so CI proves its output identical
    # across worker counts on every push.
    legs.append(leg("compaction", f"{_HERE}:compaction_leg",
                    ops=1400, keys=220, seed=21))
    return legs
