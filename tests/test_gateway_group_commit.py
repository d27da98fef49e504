"""Group-commit gateway tests: coalescing wins over the cap-1
(per-command) cadence, crash-during-group-commit durability sweeps,
degrade under batching, and scatter-gather reply flushing."""

import pytest

from repro.cluster import ClusterCrashHarness, DevicePool, FailoverManager
from repro.core import MappingTableFullError
from repro.gateway import (
    GatewayConfig,
    GatewayError,
    GatewayLoad,
    GatewayServer,
    SimPipe,
    decode_gateway_record,
    run_serving,
)
from repro.nemesis.analyzer import StreamingAnalyzer
from repro.obs import tracing
from repro.sim import Engine


def _pool(devices=3, seed=777):
    return DevicePool(devices=devices, seed=seed)


# -- scatter-gather reply flushing --------------------------------------------


def test_simpipe_send_accepts_frame_lists():
    """A list of frames is one send: one buffer append, one reader wake."""
    engine = Engine()
    pipe = SimPipe(engine, capacity=16)
    done = pipe.send([b"abc", b"def", b"gh"])
    assert done._processed
    assert pipe.recv(16)._value == b"abcdefgh"
    # A list that overflows the buffer parks the writer exactly once.
    parked = pipe.send([b"x" * 8, b"y" * 12])
    assert not parked._processed
    assert pipe.stalls == 1
    assert pipe.recv(32)._value == b"x" * 8 + b"y" * 8  # capacity's worth
    assert parked._processed  # space freed; the joined tail drains
    assert pipe.recv(16)._value == b"y" * 4


# -- coalescing wins ----------------------------------------------------------


def test_group_commit_coalesces_barriers_under_load():
    result = run_serving(_pool(seed=44), clients=48, commands_per_client=12)
    group = result.server_stats["group_commit"]
    assert result.replies == result.commands == 48 * 12
    assert group["max_batch"] > 1  # real coalescing happened
    assert group["barriers"] < group["commands"]  # fewer barriers than writes
    assert group["commands"] > 0


def test_group_commit_beats_percommand_wall_clock():
    """Same fleet, same commands: the default caps finish the run in
    less simulated time than the cap-1 (per-command) ablation."""
    grouped = run_serving(_pool(seed=57), clients=32, commands_per_client=12)
    percmd = run_serving(_pool(seed=57),
                         GatewayConfig(writer_lanes=1,
                                       commit_batch_commands=1,
                                       reply_flush_frames=1),
                         clients=32, commands_per_client=12)
    assert grouped.replies == percmd.replies
    assert grouped.sim_seconds < percmd.sim_seconds
    assert grouped.throughput >= 1.5 * percmd.throughput


def test_2048_connections_hold_throughput_and_tail():
    """2 048 concurrent connections are all answered, and coalescing
    holds both halves of its trade at that load: throughput at least
    1.5x the per-command plateau (~172k cmd/s) and a client RTT p999
    under 20 ms (simulated time, so exact)."""
    with tracing.activated() as tracer:
        result = run_serving(_pool(seed=909),
                             GatewayConfig(pipeline_depth=16),
                             clients=2048, commands_per_client=4)
    assert result.replies == result.commands == 2048 * 4
    assert result.throughput >= 260_000
    assert tracer.histograms["gateway.client.rtt"].percentile(99.9) <= 0.020


def test_group_commit_is_deterministic():
    first = run_serving(_pool(seed=909), clients=24, commands_per_client=10)
    second = run_serving(_pool(seed=909), clients=24, commands_per_client=10)
    assert first.to_dict() == second.to_dict()


def test_batch_caps_are_validated():
    pool = _pool(devices=2)
    with pytest.raises(GatewayError):
        GatewayServer(pool, GatewayConfig(commit_batch_commands=0))
    with pytest.raises(GatewayError):
        GatewayServer(pool, GatewayConfig(writer_lanes=0))
    with pytest.raises(GatewayError):
        GatewayServer(pool, GatewayConfig(reply_flush_frames=0))
    with pytest.raises(GatewayError):
        GatewayServer(pool, GatewayConfig(commit_batch_bytes=0))


# -- crash during group commit ------------------------------------------------


def _crash_sweep_point(crash_at: float) -> None:
    """Crash a shard primary at ``crash_at`` while coalesced windows are
    in flight, fail over, recover, finish the load — then prove via the
    analyzer's recovery re-read that no batched ack over-promised: every
    acked command is present, untorn, and gapless on the surviving legs."""
    pool = _pool(devices=3, seed=2024)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig(
        shards=2, replicas=2, pipeline_depth=8, queue_depth=8))
    engine.run_process(server.start())
    load = GatewayLoad(server, value_bytes=96, payload_stamps=True)
    clients, commands = 8, 20
    for client_id in range(clients):
        engine.process(load.client(client_id, commands))
    engine.run(until=engine.timeout(crash_at))  # mid-window: acks in flight
    acked_before = sum(len(entries) for entries in load.acked.values())
    assert acked_before < clients * commands
    victim = server.shards[0].stream.primary.node.name
    harness = ClusterCrashHarness(pool)
    manager = FailoverManager(pool)
    harness.crash_node_now(victim)
    for shard in server.shards:
        stream = pool.streams[shard.stream_name]
        if any(not leg.node.up for leg in stream.legs()):
            engine.run_process(manager.fail_over(shard.stream_name))
    assert server.recover() == 2
    sessions = [
        engine.process(load.client(client_id, commands,
                                   start_seq=load.resume_seq(client_id)))
        for client_id in range(clients)
    ]
    engine.run(until=engine.all_of(sessions))
    engine.run()
    analyzer = StreamingAnalyzer()
    summary = analyzer.check_recovery(pool, load.acked,
                                      decode=decode_gateway_record)
    assert analyzer.ok(), [v.to_dict() for v in analyzer.violations]
    checked = [entry for entry in summary.values() if entry["checked"]]
    assert checked and all(entry["missing"] == 0 for entry in checked)
    assert sum(entry["acked"] for entry in checked) >= acked_before


@pytest.mark.parametrize("crash_at", [6e-5, 1e-4, 1.8e-4, 2.8e-4])
def test_power_loss_during_group_commit_never_overpromises(crash_at):
    """The sweep lands the crash at different points of the coalescer's
    window lifecycle: while a batch is being carved, while the covering
    quorum barrier is in flight, and between the barrier and the client
    acks.  In every case a batched ack must mean quorum-durable."""
    _crash_sweep_point(crash_at)


# -- degradation while batches are in flight ----------------------------------


def test_mapping_pressure_degrades_while_coalescing():
    """``MappingTableFullError`` out of a batched append: the shard
    quiesces its lanes and the coalescer, replays onto block legs, and
    the interrupted batch retries — no command lost, no double ack."""
    pool = _pool(devices=2, seed=83)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig(
        shards=1, replicas=2, pipeline_depth=8, queue_depth=8))
    engine.run_process(server.start())
    shard = server.shards[0]
    for index in range(3):  # exhaust the remaining byte-path budget
        engine.run_process(pool.open_stream(f"filler-{index}", replicas=2))
    real_append_batch = shard.stream.append_batch
    state = {"seen": 0}

    def flaky_append_batch(payloads):
        state["seen"] += 1
        if state["seen"] == 3 and len(payloads) > 1:
            raise MappingTableFullError("mapping table exhausted")
        return real_append_batch(payloads)

    shard.stream.append_batch = flaky_append_batch
    load = GatewayLoad(server, value_bytes=48)
    sessions = [engine.process(load.client(client_id, 12))
                for client_id in range(8)]
    engine.run(until=engine.all_of(sessions))
    engine.run()
    assert server.degrades == 1
    assert load.replies == load.commands
    stats = server.stats()
    assert any(kind == "block" for kind in stats["shard_kinds"][0])
    records = engine.run_process(server.shards[0].stream.recover())
    assert records  # pre-degrade writes survived the replay swap
