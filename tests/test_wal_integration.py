"""Cross-layer WAL integration: shared BA-buffers and filesystem-backed logs."""

import pytest

from repro.fs import ExtentFileSystem, FileSystemError
from repro.sim.units import MiB
from repro.wal import BaWAL
from tests.helpers import Platform, small_ba_params

PAGE = 4096


class TestSharedBaBuffer:
    def test_three_logs_share_one_ba_buffer(self):
        """Three independent BA-WALs on one 2B-SSD, each with its own pair
        of mapping entries and buffer slice — exercising the 8-entry table
        the way a multi-tenant host would."""
        platform = Platform(ba_params=small_ba_params(96), seed=51)
        engine = platform.engine
        segment = 16 * 1024  # 16 KiB segments; 6 of them = 96 KiB buffer
        wals = []
        for index in range(3):
            wal = BaWAL(
                engine, platform.api,
                start_lpn=1000 + index * 4096,
                area_pages=4096,
                segment_bytes=segment,
                entry_ids=(2 * index, 2 * index + 1),
                buffer_base=index * 2 * segment,
            )
            engine.run_process(wal.start())
            wals.append(wal)

        def tenant(wal, tag):
            for i in range(60):
                payload = b"%s-%03d" % (tag, i) + b"." * 100
                yield engine.process(wal.append_and_commit(payload))

        def scenario():
            procs = [
                engine.process(tenant(wal, b"T%d" % index))
                for index, wal in enumerate(wals)
            ]
            yield engine.all_of(procs)

        engine.run_process(scenario())
        for index, wal in enumerate(wals):
            records = engine.run_process(wal.recover())
            payloads = [p for _l, p in records]
            assert len(payloads) == 60
            assert all(p.startswith(b"T%d-" % index) for p in payloads)

    def test_overlapping_buffer_slices_rejected_by_mapping_table(self):
        from repro.core import PinConflictError
        platform = Platform(ba_params=small_ba_params(64), seed=52)
        engine = platform.engine
        first = BaWAL(engine, platform.api, start_lpn=0, area_pages=1024,
                      segment_bytes=16 * 1024, entry_ids=(0, 1), buffer_base=0)
        engine.run_process(first.start())
        # Same buffer slice, different entries: the table must refuse.
        second = BaWAL(engine, platform.api, start_lpn=8192, area_pages=1024,
                       segment_bytes=16 * 1024, entry_ids=(2, 3), buffer_base=0)
        with pytest.raises(PinConflictError):
            engine.run_process(second.start())

    def test_duplicate_entry_ids_rejected(self):
        platform = Platform(ba_params=small_ba_params(64), seed=53)
        with pytest.raises(ValueError, match="distinct"):
            BaWAL(platform.engine, platform.api, entry_ids=(3, 3))


class TestFileBackedBaWal:
    def make_fs_platform(self):
        platform = Platform(seed=54)
        fs = ExtentFileSystem(platform.engine, platform.device)
        platform.engine.run_process(fs.format())
        return platform, fs

    def test_wal_over_preallocated_segment_file(self):
        platform, fs = self.make_fs_platform()
        engine = platform.engine

        def setup():
            log_file = yield engine.process(fs.create("pg_wal-000001"))
            yield engine.process(log_file.preallocate(16 * MiB))
            return log_file

        log_file = engine.run_process(setup())
        wal = BaWAL.over_file(engine, platform.api, log_file)
        engine.run_process(wal.start())

        def workload():
            for i in range(30):
                yield engine.process(wal.append_and_commit(b"xlog-%04d" % i))

        engine.run_process(workload())
        records = engine.run_process(wal.recover())
        assert [p for _l, p in records] == [b"xlog-%04d" % i for i in range(30)]
        # The log's LBAs are exactly the file's extent.
        lpn, _pages = log_file.extent_for(0)
        assert wal.start_lpn == lpn

    def test_empty_file_rejected(self):
        platform, fs = self.make_fs_platform()
        engine = platform.engine

        def setup():
            return (yield engine.process(fs.create("empty.wal")))

        log_file = engine.run_process(setup())
        with pytest.raises(FileSystemError, match="empty"):
            BaWAL.over_file(engine, platform.api, log_file)

    def test_fragmented_file_rejected(self):
        platform, fs = self.make_fs_platform()
        engine = platform.engine

        def setup():
            frag = yield engine.process(fs.create("frag.wal"))
            yield engine.process(frag.write(0, bytes(PAGE)))
            spacer = yield engine.process(fs.create("spacer"))
            yield engine.process(spacer.write(0, bytes(PAGE)))
            yield engine.process(frag.write(PAGE, bytes(PAGE)))
            return frag

        log_file = engine.run_process(setup())
        with pytest.raises(FileSystemError, match="fragmented"):
            BaWAL.over_file(engine, platform.api, log_file)


class TestLogAreaWrap:
    def test_ba_wal_area_wraps_and_recycles(self):
        """A log area smaller than the total log volume forces segment
        recycling with TRIM; recovery then returns only the most recent
        contiguous run of records."""
        platform = Platform(ba_params=small_ba_params(32), seed=55)
        engine = platform.engine
        # 16 KiB segments, area of 4 segments = 64 KiB; we log ~200 KiB.
        wal = BaWAL(engine, platform.api, start_lpn=0, area_pages=16,
                    segment_bytes=16 * 1024)
        engine.run_process(wal.start())
        count = 400

        def workload():
            for i in range(count):
                end = yield engine.process(
                    wal.append_and_commit(b"wrap%04d" % i + b"." * 480))
                # The consumer truncates each committed record, which is
                # what lets the area recycle.
                wal.low_water_lsn = end

        engine.run_process(workload())
        engine.run()  # quiesce: let in-flight segment recycling finish
        records = engine.run_process(wal.recover())
        payloads = [p for _l, p in records]
        # Older generations were overwritten; the survivors are the most
        # recent contiguous run ending at the last committed record.
        assert payloads, "recovery found nothing after wrap"
        assert payloads[-1].startswith(b"wrap%04d" % (count - 1))
        indexes = [int(p[4:8]) for p in payloads]
        assert indexes == list(range(indexes[0], count))
        # The area really wrapped (several generations of recycling).
        assert wal.stats.device_writes > 4
