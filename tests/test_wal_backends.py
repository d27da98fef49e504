"""Integration tests for the three WAL backends: conventional block WAL
(sync + async), BA-WAL on the 2B-SSD, and PM-buffered WAL."""

import pytest

from repro.sim.units import USEC
from repro.ssd import DC_SSD, ULL_SSD
from repro.wal import BaWAL, BlockWAL, CommitMode, LogFullError, PmWAL
from tests.helpers import Platform, small_ba_params


def make_block_wal(mode=CommitMode.SYNCHRONOUS, profile=ULL_SSD):
    platform = Platform()
    device = platform.add_block_ssd(profile)
    wal = BlockWAL(platform.engine, device, platform.cpu, mode=mode, area_pages=1024)
    return platform, device, wal


def make_ba_wal(buffer_kib=64, double_buffer=True):
    platform = Platform(ba_params=small_ba_params(buffer_kib))
    wal = BaWAL(platform.engine, platform.api, area_pages=1024,
                double_buffer=double_buffer)
    platform.engine.run_process(wal.start())
    return platform, wal


class TestBlockWalSync:
    def test_append_commit_recover_roundtrip(self):
        platform, device, wal = make_block_wal()
        engine = platform.engine

        def scenario():
            for i in range(20):
                yield engine.process(wal.append_and_commit(b"record-%d" % i))
            return (yield engine.process(wal.recover()))

        records = engine.run_process(scenario())
        assert [p for _lsn, p in records] == [b"record-%d" % i for i in range(20)]

    def test_commit_blocks_until_durable(self):
        platform, device, wal = make_block_wal()
        engine = platform.engine

        def scenario():
            lsn = yield engine.process(wal.append(b"x" * 100))
            assert wal.durable_lsn < lsn
            yield engine.process(wal.commit(lsn))
            assert wal.durable_lsn >= lsn

        engine.run_process(scenario())

    def test_synchronous_commit_survives_crash(self):
        platform, device, wal = make_block_wal()
        engine = platform.engine

        def scenario():
            yield engine.process(wal.append_and_commit(b"acknowledged"))

        engine.run_process(scenario())
        platform.power.power_cycle()

        def recovery():
            return (yield engine.process(wal.recover()))

        records = engine.run_process(recovery())
        assert [p for _lsn, p in records] == [b"acknowledged"]

    def test_group_commit_batches_concurrent_commits(self):
        platform, device, wal = make_block_wal()
        engine = platform.engine

        def client(i):
            yield engine.process(wal.append_and_commit(b"txn-%d" % i))

        def scenario():
            procs = [engine.process(client(i)) for i in range(16)]
            yield engine.all_of(procs)

        engine.run_process(scenario())
        # 16 commits must share far fewer device writes than 16.
        assert wal.stats.commits == 16
        assert device.stats.writes < 16

    def test_page_rewrites_accumulate_for_small_records(self):
        platform, device, wal = make_block_wal()
        engine = platform.engine

        def scenario():
            for i in range(10):
                yield engine.process(wal.append_and_commit(b"tiny"))

        engine.run_process(scenario())
        # Ten small commits land in the same 4 KiB page: it is rewritten
        # repeatedly (the WAF burden of conventional WAL, §IV-A).
        assert wal.stats.page_rewrites >= 8

    def test_area_overflow_detected(self):
        platform, device, wal = make_block_wal()
        platform_engine = platform.engine
        wal.area_pages = 2  # shrink after construction for the test

        def scenario():
            for _ in range(10):
                yield platform_engine.process(wal.append(b"x" * 2000))

        with pytest.raises(LogFullError, match="log area full"):
            platform_engine.run_process(scenario())


class TestBlockWalAsync:
    def test_async_commit_returns_immediately(self):
        platform, device, wal = make_block_wal(mode=CommitMode.ASYNCHRONOUS)
        engine = platform.engine

        def scenario():
            lsn = yield engine.process(wal.append(b"fire and forget"))
            start = engine.now
            yield engine.process(wal.commit(lsn))
            return engine.now - start

        assert engine.run_process(scenario()) == 0.0

    def test_async_commit_can_lose_acknowledged_data(self):
        """The paper's risk window: a crash right after an async commit
        loses the transaction."""
        platform, device, wal = make_block_wal(mode=CommitMode.ASYNCHRONOUS)
        engine = platform.engine

        def scenario():
            lsn = yield engine.process(wal.append(b"at risk"))
            yield engine.process(wal.commit(lsn))

        engine.run_process(scenario())
        # Crash "immediately": the background writer may not have flushed.
        # Rebuild the flush state: commit acknowledged, durable horizon behind.
        assert wal.stats.commits == 1

    def test_async_eventually_durable(self):
        platform, device, wal = make_block_wal(mode=CommitMode.ASYNCHRONOUS)
        engine = platform.engine

        def scenario():
            lsn = yield engine.process(wal.append(b"eventually"))
            yield engine.process(wal.commit(lsn))
            return lsn

        lsn = engine.run_process(scenario())
        engine.run()  # let the background writer drain
        assert wal.durable_lsn >= lsn


class TestBaWal:
    def test_append_commit_recover_roundtrip(self):
        platform, wal = make_ba_wal()
        engine = platform.engine

        def scenario():
            for i in range(20):
                yield engine.process(wal.append_and_commit(b"ba-record-%d" % i))
            return (yield engine.process(wal.recover()))

        records = engine.run_process(scenario())
        assert [p for _l, p in records] == [b"ba-record-%d" % i for i in range(20)]

    def test_commit_is_sub_microsecond(self):
        platform, wal = make_ba_wal()
        engine = platform.engine

        def scenario():
            lsn = yield engine.process(wal.append(b"x" * 64))
            start = engine.now
            yield engine.process(wal.commit(lsn))
            return engine.now - start

        assert engine.run_process(scenario()) < 1.2 * USEC

    def test_committed_records_survive_power_cycle(self):
        platform, wal = make_ba_wal()
        engine = platform.engine

        def scenario():
            for i in range(5):
                yield engine.process(wal.append_and_commit(b"durable-%d" % i))

        engine.run_process(scenario())
        platform.power.power_cycle()
        fresh = BaWAL(engine, platform.api, area_pages=1024)

        def recovery():
            return (yield engine.process(fresh.recover()))

        records = engine.run_process(recovery())
        assert [p for _l, p in records] == [b"durable-%d" % i for i in range(5)]

    def test_uncommitted_record_lost_on_power_cycle(self):
        platform, wal = make_ba_wal()
        engine = platform.engine

        def scenario():
            yield engine.process(wal.append_and_commit(b"committed"))
            yield engine.process(wal.append(b"uncommitted"))  # no BA_SYNC

        engine.run_process(scenario())
        platform.power.power_cycle()
        fresh = BaWAL(engine, platform.api, area_pages=1024)

        def recovery():
            return (yield engine.process(fresh.recover()))

        records = engine.run_process(recovery())
        assert [p for _l, p in records] == [b"committed"]

    def test_segment_recycling_under_sustained_logging(self):
        """Logging far beyond one BA-buffer exercises the flush + re-pin
        (double buffering) path; every record must still recover."""
        platform, wal = make_ba_wal(buffer_kib=16)  # 8 KiB halves
        engine = platform.engine
        count = 200  # ~100 bytes/record -> several segment switches

        def scenario():
            for i in range(count):
                yield engine.process(wal.append_and_commit(b"r%04d" % i + b"." * 80))
            return (yield engine.process(wal.recover()))

        records = engine.run_process(scenario())
        payloads = [p for _l, p in records]
        assert len(payloads) == count
        assert payloads[0].startswith(b"r0000")
        assert payloads[-1].startswith(b"r%04d" % (count - 1))
        assert wal.stats.device_writes > 0  # BA_FLUSHes happened

    def test_single_buffer_mode_stalls_but_recovers(self):
        platform, wal = make_ba_wal(buffer_kib=16, double_buffer=False)
        engine = platform.engine
        count = 100

        def scenario():
            for i in range(count):
                yield engine.process(wal.append_and_commit(b"s%04d" % i + b"." * 80))
            return (yield engine.process(wal.recover()))

        records = engine.run_process(scenario())
        assert len(records) == count
        assert wal.stats.flush_stalls > 0

    def test_records_do_not_span_segments(self):
        platform, wal = make_ba_wal(buffer_kib=16)
        engine = platform.engine
        half = wal.segment_bytes

        def scenario():
            # Two records that almost fill a half, forcing a switch whose
            # padding the recovery scan must accept.
            yield engine.process(wal.append_and_commit(b"a" * (half - 100)))
            yield engine.process(wal.append_and_commit(b"b" * 200))
            return (yield engine.process(wal.recover()))

        records = engine.run_process(scenario())
        assert [p[:1] for _l, p in records] == [b"a", b"b"]
        # Second record starts exactly at the next segment boundary.
        assert records[1][0] == half

    def test_throughput_advantage_over_sync_block_wal(self):
        """The core claim: BA commits cost ~1 us, block sync commits ~15-22 us."""
        platform, ba_wal = make_ba_wal()
        engine = platform.engine

        def ba_run():
            start = engine.now
            for i in range(50):
                yield engine.process(ba_wal.append_and_commit(b"z" * 100))
            return engine.now - start

        ba_time = engine.run_process(ba_run())

        platform2, device2, block_wal = make_block_wal(profile=ULL_SSD)
        engine2 = platform2.engine

        def block_run():
            start = engine2.now
            for i in range(50):
                yield engine2.process(block_wal.append_and_commit(b"z" * 100))
            return engine2.now - start

        block_time = engine2.run_process(block_run())
        assert block_time / ba_time > 5


class TestPmWal:
    def make(self, profile=ULL_SSD, pm_kib=64):
        platform = Platform()
        device = platform.add_block_ssd(profile)
        wal = PmWAL(platform.engine, device, platform.cpu,
                    pm_bytes=pm_kib * 1024, area_pages=1024)
        return platform, device, wal

    def test_append_commit_recover_roundtrip(self):
        platform, device, wal = self.make()
        engine = platform.engine

        def scenario():
            for i in range(20):
                yield engine.process(wal.append_and_commit(b"pm-%d" % i))
            return (yield engine.process(wal.recover()))

        records = engine.run_process(scenario())
        assert [p for _l, p in records] == [b"pm-%d" % i for i in range(20)]

    def test_durable_at_append_time(self):
        platform, device, wal = self.make()
        engine = platform.engine

        def scenario():
            lsn = yield engine.process(wal.append(b"instant"))
            return lsn

        lsn = engine.run_process(scenario())
        assert wal.durable_lsn >= lsn

    def test_commit_is_cheap(self):
        platform, device, wal = self.make()
        engine = platform.engine

        def scenario():
            lsn = yield engine.process(wal.append(b"cheap commit"))
            start = engine.now
            yield engine.process(wal.commit(lsn))
            return engine.now - start

        assert engine.run_process(scenario()) < 0.5 * USEC

    def test_flusher_drains_to_device(self):
        platform, device, wal = self.make()
        engine = platform.engine

        def scenario():
            for i in range(100):
                yield engine.process(wal.append_and_commit(bytes(100)))

        engine.run_process(scenario())
        engine.run()
        assert wal.drained_lsn > 0
        assert device.stats.writes > 0

    def test_small_pm_buffer_stalls_appends(self):
        platform, device, wal = self.make(profile=DC_SSD, pm_kib=8)
        engine = platform.engine

        def scenario():
            for i in range(100):
                yield engine.process(wal.append(b"y" * 500))

        engine.run_process(scenario())
        assert wal.stats.flush_stalls > 0

    def test_recover_spans_device_and_pm(self):
        platform, device, wal = self.make(pm_kib=8)
        engine = platform.engine
        payloads = [b"record-%03d" % i + b"!" * 200 for i in range(120)]

        def scenario():
            for payload in payloads:
                yield engine.process(wal.append_and_commit(payload))
            return (yield engine.process(wal.recover()))

        records = engine.run_process(scenario())
        assert [p for _l, p in records] == payloads
        assert wal.drained_lsn > 0  # part of the log came from the device


class TestBaWalStitch:
    """Synthetic tests of the recovery stitcher: contiguous runs with
    segment-aligned padding jumps, wrap re-anchoring, and gap rejection."""

    def make_wal(self):
        platform = Platform(ba_params=small_ba_params(16))
        wal = BaWAL(platform.engine, platform.api, area_pages=1024,
                    segment_bytes=8 * 1024)
        return wal

    @staticmethod
    def stitch(wal, records, start_lsn):
        """What the fallback's chain hands over from sorted ``records``."""
        out = []
        wal._chain_sorted(records, start_lsn,
                          lambda lsn, payload: out.append((lsn, bytes(payload))))
        return out

    @staticmethod
    def records_from(lsn, payloads, seg):
        from repro.wal.record import RECORD_HEADER_BYTES
        out = []
        for payload in payloads:
            if lsn % seg + RECORD_HEADER_BYTES + len(payload) > seg:
                lsn = (lsn // seg + 1) * seg  # segment padding jump
            out.append((lsn, payload))
            lsn += RECORD_HEADER_BYTES + len(payload)
        return out

    def test_accepts_segment_padding_jumps(self):
        wal = self.make_wal()
        seg = wal.segment_bytes
        records = self.records_from(0, [bytes(3000)] * 6, seg)
        assert self.stitch(wal, records, 0) == records
        # There was at least one jump in this stream.
        lsns = [l for l, _ in records]
        assert any(l % seg == 0 for l in lsns[1:])

    def test_rejects_non_boundary_gap(self):
        wal = self.make_wal()
        records = self.records_from(0, [b"a" * 100] * 3, wal.segment_bytes)
        # Introduce a mid-segment gap after the first record.
        broken = [records[0], (records[1][0] + 64, records[1][1])]
        assert self.stitch(wal, broken, 0) == [records[0]]

    def test_reanchors_after_wrap(self):
        wal = self.make_wal()
        seg = wal.segment_bytes
        # Oldest surviving data starts at segment 40; nothing at LSN 0.
        records = self.records_from(40 * seg, [b"x" * 500] * 10, seg)
        assert self.stitch(wal, records, 0) == records

    def test_start_lsn_mid_segment(self):
        wal = self.make_wal()
        seg = wal.segment_bytes
        records = self.records_from(0, [b"y" * 200] * 10, seg)
        start = records[4][0]
        assert self.stitch(wal, records, start) == records[4:]
