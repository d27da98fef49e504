"""The run matrices: every benchmark/ablation/cluster driver as a runner leg.

Each leg names its driver directly by dotted path — a figure or
compaction driver in :mod:`repro.bench.experiments`, an ablation in
:mod:`repro.bench.ablations`, a ``scenario_<name>`` in
:mod:`repro.bench.golden`, or :func:`repro.bench.wallclock.cluster_point`
— and passes every argument, seeds included, as explicit kwargs.  The
runner flattens whatever the driver returns to JSON-safe data.

The BA warm sweep below is the snapshot-reuse showcase: one expensive
shared warm-up (block-populating the device and settling the BA path)
forked into many cheap measurement legs.  Its legs return the full
``collect_stats`` report, so "reuse on" vs "reuse off" being
byte-identical doubles as the snapshot-faithfulness proof.

``full_matrix()`` / ``ablation_sweep()`` / ``golden_matrix()`` are the
canned matrices the wallclock harness, the ``repro perf`` runner
section, and the CI determinism gate consume.
"""

from __future__ import annotations

from repro.bench.runner import Leg, WarmSpec, leg

PAGE = 4096

_HERE = "repro.bench.legs"
_EX = "repro.bench.experiments"
_AB = "repro.bench.ablations"
_GOLDEN = "repro.bench.golden"


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


#: The die-parallel compaction leg, shared by the perf and gate matrices.
_COMPACTION = leg("compaction", f"{_EX}:run_compaction_throughput",
                  ops=1400, keys=220, seed=21)


def _golden(name: str) -> Leg:
    """The leg that runs golden scenario ``name``."""
    return leg(f"golden:{name}", f"{_GOLDEN}:scenario_{name}")


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
        leg("table1", f"{_EX}:run_table1"),
        leg("fig7", f"{_EX}:run_fig7", iterations=2),
        leg("fig9:postgres", f"{_EX}:run_fig9_postgres",
            txns=60, clients=2, seed=10, node_count=120),
        leg("fig9:rocksdb", f"{_EX}:run_fig9_rocksdb",
            payloads=(128,), ops=300, clients=4, seed=11),
        leg("fig9:redis", f"{_EX}:run_fig9_redis",
            payloads=(128,), ops=300, clients=4, seed=12),
        leg("fig10", f"{_EX}:run_fig10",
            txns=60, clients=2, seed=13, node_count=120),
        leg("ablation:wc", f"{_AB}:run_write_combining_ablation"),
        leg("ablation:read-dma", f"{_AB}:run_read_dma_ablation"),
        leg("ablation:double-buffering",
            f"{_AB}:run_double_buffering_ablation", records=300),
        leg("ablation:tail-latency", f"{_AB}:run_tail_latency_ablation",
            commits=500, record_bytes=100),
        leg("ablation:waf", f"{_AB}:run_waf_ablation",
            commits=400, record_bytes=100),
        _COMPACTION,
        leg("cluster:2dev", "repro.bench.wallclock:cluster_point",
            devices=2, seed=17),
        _golden("ba_datapath"),
        _golden("block_gc"),
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
    legs = [_golden(name) for name in (
        "ba_datapath", "ycsb_bawal", "block_gc", "cluster_replicated",
        "nemesis_campaign", "gateway_serving")]
    legs.extend(
        leg(f"sweep:lba{lba}-n{npages}", f"{_HERE}:sweep_leg", warm=warm,
            lba=lba, npages=npages, entry_id=1)
        for lba, npages in ((0, 4), (32, 16))
    )
    # The die-parallel compaction leg rides in the gate too (same
    # definition as the perf matrix), so CI proves its output identical
    # across worker counts on every push.
    legs.append(_COMPACTION)
    return legs
