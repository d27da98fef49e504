"""Delegated calls against the spawn-and-join kernel they replaced.

``x = yield from callee()`` costs no simulated time, exactly like
``x = yield engine.process(callee())`` did, so one operation in
isolation cannot move.  What *can* move is same-instant interleaving: a
spawned child's first segment waits behind whatever the kernel already
queued at that instant, a delegated one runs at once.  The fan-ins below
are built to be tie-heavy — many clients released at one instant onto
one insert lock, one quorum, one memtable, one group fsync — and their
per-operation completion timestamps and final counters were captured
into ``tests/fixtures/delegation_order.json`` on the commit *before* any
call site was converted (``python tests/test_delegation_order.py``
rewrites it; do that only on a tree whose goldens are trusted).

Exact float equality, plain and under the runtime sanitizer.  Kernel
sequence numbers are deliberately not recorded: those are meant to drop.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.cluster import DevicePool
from repro.cluster.driver import make_payload
from repro.core import BaParams
from repro.db.lsm import DeviceTableStorage, LSMTree, SSTable
from repro.platform import Platform
from repro.sim import RngStreams
from repro.sim.units import KiB
from repro.ssd import ULL_SSD
from repro.wal import BaWAL, BlockWAL, CommitMode

pytestmark = pytest.mark.oracle

FIXTURE = Path(__file__).parent / "fixtures" / "delegation_order.json"
SEED = 1234  # the sanitized_device fixture's platform seed


def _fan_in(engine, clients):
    """Release every client at one instant; run until all are done and
    the background work they left behind has drained."""
    def main():
        yield engine.all_of([engine.process(client) for client in clients])

    engine.run_process(main())
    engine.run()


def replicated_fanin(_platform=None):
    """8 same-instant writers, append + quorum commit, RF 2, crossing a
    segment switch on both legs."""
    pool = DevicePool(devices=3, seed=23,
                      ba_params=BaParams(buffer_bytes=64 * KiB), area_pages=64)
    engine = pool.engine
    stream = engine.run_process(pool.open_stream("wal0", replicas=2))
    done = [[] for _ in range(8)]

    def writer(index):
        for seq in range(6):
            payload = make_payload(stream.name, index, seq, 256)
            lsn = yield from stream.append(payload)
            appended = engine.now
            yield from stream.commit(lsn)
            done[index].append([lsn, appended, engine.now])

    _fan_in(engine, [writer(index) for index in range(8)])
    return {
        "done": done,
        "end": engine.now,
        "durable_lsn": stream.durable_lsn,
        "tail_lsn": stream.tail_lsn,
        "stream": asdict(stream.stats),
        "legs": [asdict(leg.wal.stats) for leg in stream.legs()],
        "net": asdict(pool.net.stats),
    }


def ba_wal_rollover(platform):
    """4 same-instant appenders on one BaWAL across two half rollovers."""
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=1024, segment_bytes=16 * KiB)
    engine.run_process(wal.start())
    done = [[] for _ in range(4)]

    def appender(index):
        lsn = 0
        for seq in range(10):
            lsn = yield from wal.append(bytes([index, seq]) * 500)
            done[index].append([lsn, engine.now])
        yield from wal.commit(lsn)
        done[index].append([wal.durable_lsn, engine.now])

    _fan_in(engine, [appender(index) for index in range(4)])
    return {"done": done, "end": engine.now, "tail_lsn": wal.tail_lsn,
            "durable_lsn": wal.durable_lsn, "wal": asdict(wal.stats)}


def lsm_closed_loop(platform):
    """4 closed-loop clients across memtable rotations and compactions,
    WAL on the byte path and SSTables on the block path of one device."""
    engine = platform.engine
    SSTable._COUNTER = 0  # file ids land in the manifest and shape its size
    wal = BaWAL(engine, platform.api, area_pages=2048)
    engine.run_process(wal.start())
    storage = DeviceTableStorage(engine, platform.device, base_lpn=2048)
    tree = LSMTree(engine, wal, storage, memtable_bytes=4 * KiB,
                   l0_compaction_trigger=2, rng=RngStreams(7))
    done = [[] for _ in range(4)]

    def client(index):
        for seq in range(40):
            key = f"k{(index * 7 + seq * 3) % 64:03d}"
            # The benchmark harness spawns its puts; keep one caller of
            # that shape in the oracle.
            yield engine.process(tree.put(key, bytes([index, seq]) * 100))
            done[index].append(engine.now)
            if seq % 4 == 3:
                yield from tree.get(key)
                done[index].append(engine.now)

    _fan_in(engine, [client(index) for index in range(4)])
    stats = tree.stats
    return {
        "done": done,
        "end": engine.now,
        "flushes": tree.flush_count,
        "compactions": tree.compaction_count,
        "write_stalls": tree.write_stalls,
        "compaction_seconds": tree.compaction_seconds,
        "operations": stats.operations,
        "total_latency": stats.total_latency,
        "commit_latency": stats.commit_latency,
        "wal": asdict(wal.stats),
    }


def block_wal_group_fsync(platform):
    """16 same-instant committers sharing BlockWAL's group fsync."""
    engine = platform.engine
    device = platform.add_block_ssd(ULL_SSD)
    wal = BlockWAL(engine, device, platform.cpu,
                   mode=CommitMode.SYNCHRONOUS, area_pages=1024)
    done = [[] for _ in range(16)]

    def client(index):
        for seq in range(3):
            lsn = yield from wal.append_and_commit(b"txn-%d-%d" % (index, seq))
            done[index].append([lsn, engine.now])

    _fan_in(engine, [client(index) for index in range(16)])
    return {"done": done, "end": engine.now, "durable_lsn": wal.durable_lsn,
            "wal": asdict(wal.stats), "device_writes": device.stats.writes}


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (replicated_fanin, ba_wal_rollover, lsm_closed_loop,
                     block_wal_group_fsync)
}


def _observe(name, platform):
    # Through JSON so tuples and lists compare alike; floats round-trip
    # exactly (repr is shortest-unique).
    return json.loads(json.dumps(SCENARIOS[name](platform)))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_timestamps_and_stats_match_the_spawning_kernel(name, recorded):
    assert _observe(name, Platform(seed=SEED)) == recorded[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_under_the_sanitizer(name, recorded, sanitized_device):
    assert _observe(name, sanitized_device) == recorded[name]
    assert sanitized_device.sanitizer_state.checks > 0


def test_scenarios_are_tie_heavy(recorded):
    """The oracle only bites if operations really do complete at shared
    instants and the background paths really do run."""
    assert recorded["replicated_fanin"]["legs"][0]["device_writes"] >= 1
    assert recorded["ba_wal_rollover"]["wal"]["device_writes"] >= 2
    assert recorded["lsm_closed_loop"]["flushes"] >= 4
    assert recorded["lsm_closed_loop"]["compactions"] >= 1
    assert recorded["block_wal_group_fsync"]["device_writes"] < 48
    ends = [row[-1][-1] for row in recorded["block_wal_group_fsync"]["done"]]
    assert len(set(ends)) < len(ends)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: _observe(name, Platform(seed=SEED)) for name in sorted(SCENARIOS)},
        indent=1) + "\n")
    print(f"wrote {FIXTURE}")
