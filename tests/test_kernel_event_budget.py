"""Kernel events per operation, pinned as a ceiling.

Kernel events are one part of the simulator's wall-clock cost, not a
proxy for it any more (docs/performance.md, "Events are no longer the
wall-clock proxy"), but they are the part that is exact: on a fixed
small scenario the kernel sequence delta of one operation repeats
exactly.  A ``yield engine.process(callee())`` that
creeps back onto the commit path costs two events per layer crossing —
this file makes that fail tier-1 instead of waiting for the benchmark.

Ceilings are the measured counts of the tree that delegates awaited
callees with ``yield from`` (the spawn-and-join tree before it: SET 93,
GET 13, BaWAL append+commit 22, LSM put 29) and continues in place past
an already-settled grant or get at nine sites (the tree that yielded
them: SET 41, GET 13, BaWAL append+commit 8, LSM put 9).  Each count
includes the two events ``run_process`` itself spends on the driving
process.
Lowering a ceiling after a real cut is the point; raising one needs the
reason in the commit that does it.
"""

import pytest

from repro.cluster import DevicePool
from repro.db.lsm import DeviceTableStorage, LSMTree
from repro.db.memkv.commands import Command
from repro.gateway import GatewayConfig, GatewayServer, encode_request
from repro.gateway.protocol import FrameDecoder
from repro.platform import Platform
from repro.sim import RngStreams
from repro.wal import BaWAL

pytestmark = pytest.mark.oracle

OPS = 6


def events_per_op(engine, ops):
    """Sequence delta of each op, run alone and drained to quiescence."""
    deltas = []
    for op in ops:
        before = engine._sequence
        engine.run_process(op)
        engine.run()
        deltas.append(engine._sequence - before)
    return deltas


def _gateway():
    pool = DevicePool(devices=3, seed=777)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    conn = engine.run_process(server.accept())
    decoder = FrameDecoder()

    def roundtrip(frame):
        conn.c2s.send(frame)
        while not list(decoder.feed((yield conn.s2c.recv(4096)))):
            pass

    return engine, roundtrip


def gateway_set():
    engine, roundtrip = _gateway()
    return events_per_op(engine, [
        roundtrip(encode_request(Command.SET, f"key{i}", bytes([i]) * 2048))
        for i in range(OPS)])


def gateway_get():
    engine, roundtrip = _gateway()
    engine.run_process(roundtrip(encode_request(Command.SET, "key0", b"v" * 2048)))
    engine.run()
    return events_per_op(engine, [
        roundtrip(encode_request(Command.GET, "key0")) for _ in range(OPS)])


def _ba_wal():
    platform = Platform(seed=5)
    wal = BaWAL(platform.engine, platform.api, area_pages=2048)
    platform.engine.run_process(wal.start())
    return platform, wal


def ba_wal_append_commit():
    platform, wal = _ba_wal()

    def durable_append(index):
        lsn = yield from wal.append(bytes([index]) * 256)
        yield from wal.commit(lsn)

    return events_per_op(platform.engine,
                         [durable_append(index) for index in range(OPS)])


def lsm_put():
    platform, wal = _ba_wal()
    storage = DeviceTableStorage(platform.engine, platform.device, base_lpn=2048)
    tree = LSMTree(platform.engine, wal, storage, rng=RngStreams(7))
    return events_per_op(platform.engine, [
        tree.put(f"k{index}", bytes([index]) * 256) for index in range(OPS)])


# Ceilings of the tree that continues in place past settled events.
CEILINGS = {
    "gateway_set": 35,           # replicated (RF 2) 2 KiB SET, default config
    "gateway_get": 12,           # no commit path: unchanged by delegation
    "ba_wal_append_commit": 6,
    "lsm_put": 7,
}


# The second parameter is the count of the tree that yielded settled
# events; it keeps each case's name stable while its ceiling moves.
@pytest.mark.parametrize("scenario,yielded", [
    (gateway_set, 41),
    (gateway_get, 13),
    (ba_wal_append_commit, 8),
    (lsm_put, 9),
])
def test_events_per_operation_within_budget(scenario, yielded):
    ceiling = CEILINGS[scenario.__name__]
    assert ceiling < yielded
    deltas = scenario()
    assert len(set(deltas)) == 1, f"count must repeat exactly, got {deltas}"
    assert deltas[0] <= ceiling, (
        f"{scenario.__name__}: {deltas[0]} kernel events per op, budget "
        f"{ceiling} — a spawn-and-join back on the hot path? "
        f"(scripts/kernel_events.py names the call sites)")


def ba_wal_start():
    platform = Platform(seed=5)
    wal = BaWAL(platform.engine, platform.api, area_pages=2048)
    return events_per_op(platform.engine, [wal.start()])[0]


def gateway_start():
    pool = DevicePool(devices=3, seed=777)
    server = GatewayServer(pool, GatewayConfig())
    return events_per_op(pool.engine, [server.start()])[0]


# Start-up ceilings: the measured counts of the tree that continues in
# place past settled events.
START_UP_CEILINGS = {
    # Two never-written 4 MiB pins: each is the ioctl, the core grant and
    # one wake at its last page (per-page pacing: 4 099).
    "ba_wal_start": 7,
    # Three shards x RF 2: six area trims and twelve such pins (6 181).
    "gateway_start": 61,
}


# The second parameter is the ceiling before that tightening; it keeps
# each case's name stable while its ceiling moves.
@pytest.mark.parametrize("scenario,loose", [
    (ba_wal_start, 8),
    (gateway_start, 64),
])
def test_start_up_within_budget(scenario, loose):
    ceiling = START_UP_CEILINGS[scenario.__name__]
    assert ceiling < loose
    events = scenario()
    assert events <= ceiling, (
        f"{scenario.__name__}: {events} kernel events, budget {ceiling} — "
        f"a never-written page costing a wake-up again?")
