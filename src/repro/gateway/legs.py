"""The saturation bench: gateway serving legs on the run-matrix executor.

One shared warm-up (a short serving burst on a 3-device pool, streams
closed, caches drained) is captured once via ``DevicePool.snapshot()``
and forked into every sweep point, so the clients x pipeline-depth
saturation curve pays for pool construction exactly once per run.  Each
leg returns the serving result plus histogram-sourced p50/p999 for every
pipeline stage — the numbers the ``gateway`` section of
``BENCH_wallclock.json`` reports and gates on.
"""

from __future__ import annotations

from repro.bench.runner import Leg, WarmSpec, leg

_HERE = "repro.gateway.legs"

#: Every simulated-latency stage the server and the client fleet span.
GATEWAY_STAGES = (
    "gateway.conn.accept",
    "gateway.frame.parse",
    "gateway.queue.wait",
    "gateway.wal.append",
    "gateway.wal.quorum",
    "gateway.reply.write",
    "gateway.client.rtt",
)

#: The saturation sweep: (clients, pipeline_depth, commands_per_client).
#: Commands scale down as the fleet grows so every point runs a
#: comparable total command count; the 2048-client point is the
#: acceptance criterion's >= 2,000 concurrent connections.
SATURATION_SWEEP = (
    (4, 1, 16),
    (16, 4, 16),
    (64, 1, 16),
    (64, 8, 16),
    (256, 8, 8),
    (512, 8, 8),
    (1024, 16, 4),
    (2048, 16, 4),
)


def build_gateway_pool(seed: int = 909, devices: int = 3):
    from repro.cluster import DevicePool

    return DevicePool(devices=devices, seed=seed)


def warm_gateway_pool(pool, seed: int = 909, devices: int = 3) -> None:
    """Warm a pool to a snapshot-able state: one short serving burst
    (shard streams opened, WAL segments cycled, caches touched), then
    streams closed, devices drained, kernel quiescent."""
    from repro.gateway import GatewayConfig, run_serving

    run_serving(pool, GatewayConfig(pipeline_depth=4, queue_depth=8),
                clients=8, commands_per_client=4)
    for name in list(pool.streams):
        pool.engine.run_process(pool.close_stream(name))
    for node in pool.nodes.values():
        pool.engine.run_process(node.platform.device.drain())
    pool.engine.run()


def stage_latencies(tracer) -> dict:
    """Histogram-sourced p50/p999 (simulated seconds) per pipeline stage."""
    stages = {}
    for name in GATEWAY_STAGES:
        histogram = tracer.histograms.get(name)
        if histogram is None or not len(histogram):
            continue
        stages[name] = {
            "count": len(histogram),
            "p50": histogram.percentile(50),
            "p999": histogram.percentile(99.9),
        }
    return stages


def serving_leg(pool, clients: int = 64, commands: int = 8,
                **config) -> dict:
    """One saturation point: serve the full fleet, report throughput and
    per-stage latency percentiles (all simulated time — deterministic).
    ``config`` holds :class:`GatewayConfig` fields, e.g. the cap-1
    ablation's ``writer_lanes=1, commit_batch_commands=1,
    reply_flush_frames=1``."""
    from repro.gateway import GatewayConfig, run_serving
    from repro.obs import tracing

    gateway_config = GatewayConfig(**config)
    with tracing.activated() as tracer:
        result = run_serving(pool, gateway_config, clients=clients,
                             commands_per_client=commands)
    payload = result.to_dict()
    payload["pipeline_depth"] = gateway_config.pipeline_depth
    payload["stages"] = stage_latencies(tracer)
    return payload


_GATEWAY_WARM = WarmSpec(
    build=f"{_HERE}:build_gateway_pool",
    warm=f"{_HERE}:warm_gateway_pool",
    kwargs=(("devices", 3), ("seed", 909)),
)


def gateway_matrix(sweep=SATURATION_SWEEP) -> list[Leg]:
    """The clients x pipeline-depth saturation sweep as runner legs,
    plus one per-command ablation point (every group-commit cap at 1, at
    the old plateau's load) so the coalescer's win stays measured."""
    legs = [
        leg(f"gateway:c{clients}xd{depth}", f"{_HERE}:serving_leg",
            warm=_GATEWAY_WARM, clients=clients, commands=commands,
            pipeline_depth=depth)
        for clients, depth, commands in sweep
    ]
    legs.append(
        leg("gateway:c512xd8-percmd", f"{_HERE}:serving_leg",
            warm=_GATEWAY_WARM, clients=512, commands=8,
            pipeline_depth=8, writer_lanes=1, commit_batch_commands=1,
            reply_flush_frames=1))
    return legs
