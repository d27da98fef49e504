"""Quorum-replicated WAL semantics: acks, LSN divergence, quorum loss.

The commit contract: an acked LSN is durable on at least ``quorum`` legs.
Replica legs track their *own* LSNs (a block-path fallback leg lays
records out without segment padding, so its offsets diverge from a
byte-path primary's), and a commit that can no longer reach quorum must
fail loudly rather than hang.
"""

import pytest

from repro.cluster import DevicePool, QuorumLossError, ReplicatedBaWAL
from repro.cluster.driver import make_payload
from repro.core import BaParams
from repro.sim.units import KiB

SMALL_BA = BaParams(buffer_bytes=64 * KiB)


def small_pool(devices=3, **kwargs):
    kwargs.setdefault("ba_params", SMALL_BA)
    kwargs.setdefault("area_pages", 64)
    return DevicePool(devices=devices, seed=23, **kwargs)


def append_and_commit(pool, stream, count, payload_bytes=256):
    engine = pool.engine

    def run():
        lsn = 0
        for seq in range(count):
            payload = make_payload(stream.name, 0, seq, payload_bytes)
            lsn = yield engine.process(stream.append(payload))
            yield engine.process(stream.commit(lsn))
        return lsn

    return engine.run_process(run())


class TestQuorumCommit:
    def test_default_quorum_is_majority(self):
        pool = small_pool()
        stream = pool.engine.run_process(pool.open_stream("wal0", replicas=3))
        assert stream.quorum == 2

    def test_commit_advances_durable_lsn(self):
        pool = small_pool()
        stream = pool.engine.run_process(pool.open_stream("wal0", replicas=2))
        lsn = append_and_commit(pool, stream, 4)
        assert stream.durable_lsn == lsn
        assert stream.tail_lsn == lsn

    def test_recommit_of_durable_lsn_is_free(self):
        pool = small_pool()
        stream = pool.engine.run_process(pool.open_stream("wal0", replicas=2))
        lsn = append_and_commit(pool, stream, 2)
        before = pool.net.stats.control_messages
        pool.engine.run_process(stream.commit(lsn))
        assert pool.net.stats.control_messages == before

    def test_every_leg_holds_the_same_payload_sequence(self):
        pool = small_pool()
        stream = pool.engine.run_process(pool.open_stream("wal0", replicas=3))
        append_and_commit(pool, stream, 6)
        logs = []
        for leg in stream.legs():
            records = pool.engine.run_process(leg.wal.recover())
            logs.append([payload for _lsn, payload in records])
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[0]) == 6

    def test_quorum_out_of_range_rejected(self):
        pool = small_pool()
        with pytest.raises(ValueError, match="quorum"):
            pool.engine.run_process(
                pool.open_stream("wal0", replicas=2, quorum=3))


class _BrokenWal:
    """A replica WAL that still applies appends but whose device errors
    on every sync — the shape of a leg failing mid-commit."""

    def __init__(self, engine):
        self.engine = engine
        self.lsn = 0

    def append_batch(self, payloads):
        yield self.engine.timeout(1e-9)
        lsns = []
        for payload in payloads:
            self.lsn += len(payload)
            lsns.append(self.lsn)
        return lsns

    def commit(self, lsn):
        raise IOError("replica device gone")
        yield  # pragma: no cover - makes this a generator


class TestQuorumLoss:
    def test_commit_fails_once_quorum_unreachable(self):
        pool = small_pool()
        stream = pool.engine.run_process(pool.open_stream(
            "wal0", replicas=2, quorum=2))
        # Break the only replica: a 2-of-2 commit can no longer succeed.
        stream.replica_legs[0].wal = _BrokenWal(pool.engine)
        engine = pool.engine

        def run():
            lsn = yield engine.process(stream.append(b"x" * 64))
            yield engine.process(stream.commit(lsn))

        with pytest.raises(QuorumLossError, match="unreachable"):
            engine.run_process(run())

    def test_quorum_one_survives_a_broken_replica(self):
        pool = small_pool()
        stream = pool.engine.run_process(pool.open_stream(
            "wal0", replicas=2, quorum=1))
        stream.replica_legs[0].wal = _BrokenWal(pool.engine)
        lsn = append_and_commit(pool, stream, 1, payload_bytes=64)
        assert stream.durable_lsn == lsn


class TestLsnDivergence:
    def exhaust_and_open(self, pool):
        """Force the replica onto the block path by draining node1's pairs."""
        for i in range(4):
            pool.engine.run_process(pool.open_stream(
                f"filler{i}", replicas=1, on_nodes=["node1"]))
        return pool.engine.run_process(pool.open_stream(
            "wal0", replicas=2, on_nodes=["node0", "node1"]))

    def test_block_fallback_replica_diverges_but_acks(self):
        pool = small_pool(devices=2)
        stream = self.exhaust_and_open(pool)
        assert stream.primary.kind == "ba"
        assert stream.replica_legs[0].kind == "block"
        # Enough records to cross a segment boundary on the BA primary,
        # whose LSNs then include padding the block leg never emits.
        lsn = append_and_commit(pool, stream, 40)
        assert stream.durable_lsn == lsn
        assert stream.primary.wal.tail_lsn != stream.replica_legs[0].wal.tail_lsn

    def test_divergent_legs_recover_identical_payloads(self):
        pool = small_pool(devices=2)
        stream = self.exhaust_and_open(pool)
        append_and_commit(pool, stream, 40)
        primary = pool.engine.run_process(stream.primary.wal.recover())
        replica = pool.engine.run_process(stream.replica_legs[0].wal.recover())
        assert ([p for _l, p in primary] == [p for _l, p in replica])
        assert len(primary) == 40
