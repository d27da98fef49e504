"""A legal frame whose log record the shard cannot hold answers ``ERR toolarge``.

A frame body may be up to ``MAX_FRAME_BYTES`` (1 MiB), but a default
pool's shard logs into 1 MiB BA-WAL segments (8 MiB BA-buffer / 8
mapping entries), and a record never straddles two.  A ``SET`` of
``MAX_FRAME_BYTES - 16`` value bytes is a legal 1 048 568-byte frame
(its body is under the limit) and a 1 048 582-byte record.  ``BaWAL.append_batch`` raised ``ValueError``
for it, which killed the lane: the kernel went quiescent with none of the
connection's replies sent.  The gateway now judges every write against
its shard stream's ``max_record_bytes`` before applying it.
"""

import pytest

from repro.cluster import DevicePool
from repro.db.memkv.commands import Command, Reply, encode_value
from repro.gateway import (
    MAX_FRAME_BYTES,
    GatewayConfig,
    GatewayServer,
    decode_reply_frame,
    encode_request,
)
from repro.gateway.protocol import FrameDecoder
from repro.wal import BaWAL, BlockWAL, PmWAL
from tests.helpers import Platform

pytestmark = pytest.mark.oracle

MiB = 1 << 20
BIG = b"x" * (MAX_FRAME_BYTES - 16)


def serve(pool, requests):
    """Start a default gateway on ``pool``, send ``requests`` on one
    connection, and return the server and every reply received."""
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    replies = []

    def sender(conn):
        for frame in requests:
            yield conn.c2s.send(frame)

    def client():
        conn = yield from server.accept()
        engine.process(sender(conn))
        decoder = FrameDecoder()
        while len(replies) < len(requests):
            replies.extend(decode_reply_frame(body) for body in
                           decoder.feed((yield conn.s2c.recv(4096))))

    engine.process(client())
    engine.run()
    return server, replies


def big_then_small():
    return [encode_request(Command.SET, "k", BIG),
            encode_request(Command.GET, "k"),
            encode_request(Command.SET, "k", b"small"),
            encode_request(Command.GET, "k")]


def test_a_legal_frame_too_large_for_a_segment_answers_err_toolarge():
    requests = big_then_small()
    assert len(requests[0]) == 1_048_568  # a body of 1 048 564 bytes: legal
    server, replies = serve(DevicePool(devices=3, seed=1), requests)
    assert len(replies) == 4
    (err, message), *rest = replies
    assert err is Reply.ERR and message.startswith(b"toolarge: ")
    assert b"1048582-byte record" in message and b"1048576" in message
    assert rest == [(Reply.VALUE, encode_value(None)), (Reply.OK, b""),
                    (Reply.VALUE, encode_value(b"small"))]
    assert server.errors == 1
    shard = server.shard_for_key("k")
    assert shard.data == {"k": b"small"}
    # The refused write never reached the log: recovery rebuilds the
    # same state.
    for node in server.pool.nodes.values():
        node.platform.power.power_cycle()
    server.recover()
    assert shard.data == {"k": b"small"}


def test_a_shard_on_block_legs_follows_the_block_wal_rule():
    """Every BA entry pair of every node is taken before the gateway
    starts, so each shard lands on block-WAL legs (what a degrade swaps
    to): no record limit below the 8 MiB area, and the SET is served."""
    pool = DevicePool(devices=3, seed=1)
    nodes = list(pool.nodes)
    for index in range(pool.entry_pairs):
        pool.engine.run_process(pool.open_stream(
            f"hog-{index}", replicas=len(nodes), on_nodes=nodes))
    server, replies = serve(pool, big_then_small())
    shard = server.shard_for_key("k")
    assert {leg.kind for leg in shard.stream.legs()} == {"block"}
    assert shard.stream.max_record_bytes == pool.area_pages * 4096
    assert replies == [(Reply.OK, b""), (Reply.VALUE, encode_value(BIG)),
                       (Reply.OK, b""), (Reply.VALUE, encode_value(b"small"))]
    assert server.errors == 0


def test_each_backend_states_its_record_limit():
    platform = Platform(seed=3)
    engine, api = platform.engine, platform.api
    assert BaWAL(engine, api).max_record_bytes == api.params.buffer_bytes // 2
    assert BlockWAL(engine, platform.device, platform.cpu,
                    area_pages=64).max_record_bytes == 64 * 4096
    assert PmWAL(engine, platform.device, platform.cpu, pm_bytes=MiB,
                 area_pages=1024).max_record_bytes == MiB
    # A replicated stream takes the smallest of its legs' limits: node1's
    # entry pairs are gone, so its leg is a block leg beside a BA primary.
    pool = DevicePool(devices=2, seed=1)
    for index in range(pool.entry_pairs):
        pool.engine.run_process(pool.open_stream(
            f"hog-{index}", replicas=1, on_nodes=["node1"]))
    stream = pool.engine.run_process(pool.open_stream(
        "s", replicas=2, on_nodes=["node0", "node1"]))
    assert [leg.kind for leg in stream.legs()] == ["ba", "block"]
    assert [leg.wal.max_record_bytes for leg in stream.legs()] == \
        [MiB, pool.area_pages * 4096]
    assert stream.max_record_bytes == MiB
