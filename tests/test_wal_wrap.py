"""An acknowledged write survives a shard log that fills its area.

A gateway shard logs into a circular BA-WAL area (8 MiB on the default
pool) and nothing truncates it, so a shard that has logged about 7 MiB
reaches a segment recycle that would overwrite acknowledged records.
The log refuses that append (``LogFullError``), the gateway answers
``ERR readonly``, and every ``OK`` stays recoverable.

Shape of the reproducer: a default 3-node gateway, 8 connections x 1 400
SETs of unique keys with 3 KiB values — about 11.5 MB per shard, well
past the area.  Write, power-cycle every node, recover, compare every
key.  Before the refusal existed, all 11 200 SETs replied ``OK`` and
recovery rebuilt 6 468 of them.
"""

from collections import deque

import pytest

from repro.cluster import DevicePool
from repro.db.memkv.commands import Command, Reply
from repro.gateway import (
    GatewayConfig,
    GatewayServer,
    decode_reply_frame,
    encode_request,
)
from repro.gateway.protocol import FrameDecoder
from repro.wal import BaWAL, BlockWAL, LogFullError, PartialAppendError, PmWAL
from repro.wal.record import RECORD_HEADER_BYTES
from tests.helpers import Platform, small_ba_params

pytestmark = pytest.mark.oracle

CONNECTIONS = 8
SETS = 1400
VALUE = 3 * 1024


def value_for(key: str) -> bytes:
    return key.encode().ljust(VALUE, b".")


@pytest.fixture(scope="module")
def served():
    """Serve the load once; returns (pool, server, replies by key)."""
    pool = DevicePool(devices=3, seed=1)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    replies: dict[str, tuple] = {}

    def sender(conn, keys):
        for key in keys:
            yield conn.c2s.send(encode_request(Command.SET, key,
                                               value_for(key)))

    def client(client_id):
        conn = yield from server.accept()
        keys = [f"c{client_id}-k{index}" for index in range(SETS)]
        engine.process(sender(conn, keys))
        decoder, waiting = FrameDecoder(), deque(keys)
        while waiting:
            for body in decoder.feed((yield conn.s2c.recv(4096))):
                replies[waiting.popleft()] = decode_reply_frame(body)
        conn.close()

    engine.run(until=engine.all_of(
        [engine.process(client(index)) for index in range(CONNECTIONS)]))
    engine.run()
    return pool, server, replies


def test_every_reply_is_ok_or_readonly(served):
    _pool, server, replies = served
    assert len(replies) == CONNECTIONS * SETS
    kinds = {(reply, payload.split(b":")[0])
             for reply, payload in replies.values()}
    assert kinds == {(Reply.OK, b""), (Reply.ERR, b"readonly")}
    assert server.degrades == 0  # a full log is no mapping-table pressure


def test_every_acked_key_survives_power_loss_and_recovery(served):
    pool, server, replies = served
    acked = {key for key, (reply, _p) in replies.items() if reply is Reply.OK}
    live = {key: value for shard in server.shards
            for key, value in shard.data.items()}
    # Refused writes were un-applied: the live state is exactly the acks.
    assert live == {key: value_for(key) for key in acked}
    for node in pool.nodes.values():
        node.platform.power.power_cycle()
    assert server.recover() == len(server.shards)
    recovered = {key: value for shard in server.shards
                 for key, value in shard.data.items()}
    assert recovered == live
    # Each shard refused only once its log was close to the area.
    area = pool.area_pages * 4096
    for shard in server.shards:
        assert 0.75 * area < shard.stream.tail_lsn <= area


# -- one rule on every backend --------------------------------------------------


def _fill(engine, wal, record_bytes, count):
    """Append ``count`` records one at a time, committing each; returns
    the end LSNs that landed and the error that stopped the run."""
    ends = []

    def run():
        for _ in range(count):
            end = yield from wal.append(b"r" * (record_bytes - RECORD_HEADER_BYTES))
            yield from wal.commit(end)
            ends.append(end)

    try:
        engine.run_process(run())
    except LogFullError as exc:
        return ends, exc
    return ends, None


def _ba():
    platform = Platform(ba_params=small_ba_params(16), seed=3)
    wal = BaWAL(platform.engine, platform.api, area_pages=8)  # four 8 KiB slots
    platform.engine.run_process(wal.start())
    return platform, wal


def test_ba_wal_refuses_the_recycle_that_would_discard_low_water():
    platform, wal = _ba()
    ends, error = _fill(platform.engine, wal, 1024, 64)
    # Segments 0-2 fill; the switch into segment 3 would recycle a half
    # onto segment 4 — slot 0, which still holds segment 0.  Refused
    # before sealing: segment 2 stays the active half.
    assert isinstance(error, LogFullError) and len(ends) == 24
    assert wal.tail_lsn == wal.durable_lsn == 3 * 8192
    wal.low_water_lsn = 8192  # the consumer truncated segment 0
    more, error = _fill(platform.engine, wal, 1024, 64)
    # Segment 3 fills; segment 5 would discard segment 1.
    assert len(more) == 8 and isinstance(error, LogFullError)
    assert wal.tail_lsn == 4 * 8192


def test_ba_wal_partial_batch_keeps_the_landed_prefix():
    platform, wal = _ba()
    _fill(platform.engine, wal, 1024, 23)  # one record short of the refusal
    payloads = [b"p" * (1024 - RECORD_HEADER_BYTES)] * 6
    with pytest.raises(PartialAppendError) as excinfo:
        platform.engine.run_process(wal.append_batch(payloads))
    assert isinstance(excinfo.value.cause, LogFullError)
    assert excinfo.value.lsns == [3 * 8192]
    assert wal.tail_lsn == 3 * 8192


@pytest.mark.parametrize("backend", [BlockWAL, PmWAL])
def test_block_path_backends_refuse_past_low_water(backend):
    platform = Platform(seed=3)
    kwargs = {"pm_bytes": 16 * 1024} if backend is PmWAL else {}
    wal = backend(platform.engine, platform.device, platform.cpu,
                  area_pages=4, **kwargs)
    ends, error = _fill(platform.engine, wal, 1000, 40)
    # A 16 KiB area: the record that would end at 17 000 wraps over 0.
    assert isinstance(error, LogFullError) and ends[-1] == 16_000
    wal.low_water_lsn = 4000
    more, error = _fill(platform.engine, wal, 1000, 40)
    assert more[-1] == 20_000 and isinstance(error, LogFullError)
