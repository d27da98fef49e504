"""Unit and property tests for the mapping table and page-map FTL."""

import dataclasses
from typing import Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer as simsan
from repro.core import TwoBApiClient, TwoBSSD
from repro.ftl import FtlStats, MappingTable, PageMapFTL
from repro.ftl.pagemap import FtlCapacityError
from repro.host import HostCPU
from repro.nand import (
    EccConfig,
    FlashArray,
    NandGeometry,
    NandProtocolError,
    NandTiming,
    UncorrectableError,
)
from repro.nand.ecc import raw_bit_errors, retries_needed
from repro.obs import tracing
from repro.pcie import PcieLink
from repro.sim import Engine, RngStreams
from repro.sim.engine import Event
from repro.sim.units import USEC
from repro.ssd.profiles import TWOB_BASE
from tests.helpers import read_page, small_ba_params
from tests.test_nand_batch import OracleArray

FAST_NAND = NandTiming("fast", 1 * USEC, 2 * USEC, 10 * USEC,
                       jitter_fraction=0.0, endurance_cycles=10**9)


def make_ftl(channels=2, blocks_per_die=8, pages_per_block=8, page_size=64,
             overprovision=0.25):
    engine = Engine()
    geometry = NandGeometry(
        channels=channels, dies_per_channel=1, blocks_per_die=blocks_per_die,
        pages_per_block=pages_per_block, page_size=page_size,
    )
    flash = FlashArray(engine, geometry, FAST_NAND, RngStreams(3))
    return engine, PageMapFTL(engine, flash, overprovision=overprovision)


class TestMappingTable:
    def test_bind_and_lookup(self):
        table = MappingTable()
        assert table.bind(5, 100) is None
        assert table.lookup(5) == 100
        assert table.reverse_lookup(100) == 5

    def test_rebind_returns_stale_ppn(self):
        table = MappingTable()
        table.bind(5, 100)
        assert table.bind(5, 200) == 100
        assert table.lookup(5) == 200
        assert not table.is_live(100)

    def test_bind_to_live_page_rejected(self):
        table = MappingTable()
        table.bind(1, 100)
        with pytest.raises(ValueError, match="still live"):
            table.bind(2, 100)

    def test_unbind(self):
        table = MappingTable()
        table.bind(1, 100)
        assert table.unbind(1) == 100
        assert table.lookup(1) is None
        assert table.unbind(1) is None

    @given(st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=80))
    def test_inverse_invariant_under_random_ops(self, ops):
        table = MappingTable()
        next_ppn = 0
        for lpn, do_unbind in ops:
            if do_unbind:
                table.unbind(lpn)
            else:
                table.bind(lpn, next_ppn)
                next_ppn += 1
            table.check_consistency()


class TestPageMapFTL:
    def test_write_then_read_roundtrip(self):
        engine, ftl = make_ftl()

        def scenario():
            yield engine.process(ftl.write(3, b"hello"))
            return (yield engine.process(ftl.read(3)))

        data = engine.run_process(scenario())
        assert data[:5] == b"hello"

    def test_unwritten_reads_zero(self):
        engine, ftl = make_ftl()
        assert engine.run_process(ftl.read(0)) == bytes(64)

    def test_overwrite_returns_latest(self):
        engine, ftl = make_ftl()

        def scenario():
            for i in range(5):
                yield engine.process(ftl.write(7, bytes([i]) * 8))
            return (yield engine.process(ftl.read(7)))

        data = engine.run_process(scenario())
        assert data[:8] == bytes([4]) * 8

    def test_trim_unmaps(self):
        engine, ftl = make_ftl()

        def scenario():
            yield engine.process(ftl.write(2, b"live"))
            ftl.trim(2)
            return (yield engine.process(ftl.read(2)))

        assert engine.run_process(scenario()) == bytes(64)

    def test_out_of_range_lpn_rejected(self):
        engine, ftl = make_ftl()
        with pytest.raises(ValueError, match="out of range"):
            engine.run_process(ftl.write(ftl.logical_pages, b"x"))

    def test_gc_reclaims_space_under_overwrite_churn(self):
        engine, ftl = make_ftl(channels=1, blocks_per_die=8, pages_per_block=4)
        # 32 physical pages, 24 logical. Overwrite a small working set far
        # beyond physical capacity: GC must reclaim stale pages.
        def scenario():
            for i in range(200):
                lpn = i % 4
                yield engine.process(ftl.write(lpn, bytes([i % 251]) * 8))
            values = []
            for lpn in range(4):
                values.append((yield engine.process(ftl.read(lpn))))
            return values

        values = engine.run_process(scenario())
        for lpn, data in enumerate(values):
            expected = (196 + lpn) % 251
            assert data[:8] == bytes([expected]) * 8
        assert ftl.stats.blocks_erased > 0
        ftl.check_consistency()

    def test_waf_is_at_least_one(self):
        engine, ftl = make_ftl()

        def scenario():
            for i in range(20):
                yield engine.process(ftl.write(i % 3, b"data"))

        engine.run_process(scenario())
        assert ftl.stats.waf >= 1.0

    def test_gc_increases_waf(self):
        engine, ftl = make_ftl(channels=1, blocks_per_die=8, pages_per_block=4)

        def scenario():
            # Long-lived cold data interleaved with hot churn: victim blocks
            # then hold a mix of live and stale pages, forcing relocations.
            for lpn in range(16):
                yield engine.process(ftl.write(lpn, bytes([lpn]) * 4))
            for i in range(200):
                yield engine.process(ftl.write(16 + (i % 2), b"hot"))

        engine.run_process(scenario())
        assert ftl.stats.gc_pages_written > 0
        assert ftl.stats.waf > 1.0
        # Cold data must survive relocation.
        for lpn in range(16):
            assert ftl.peek(lpn)[:4] == bytes([lpn]) * 4

    def test_sequential_fill_has_unit_waf(self):
        engine, ftl = make_ftl(channels=2, blocks_per_die=8, pages_per_block=8)

        def scenario():
            for lpn in range(ftl.logical_pages // 2):
                yield engine.process(ftl.write(lpn, b"seq"))

        engine.run_process(scenario())
        assert ftl.stats.waf == pytest.approx(1.0)

    def test_concurrent_writers_distinct_lpns(self):
        engine, ftl = make_ftl()

        def writer(lpn):
            yield engine.process(ftl.write(lpn, bytes([lpn]) * 4))

        def scenario():
            procs = [engine.process(writer(lpn)) for lpn in range(10)]
            yield engine.all_of(procs)
            out = []
            for lpn in range(10):
                out.append((yield engine.process(ftl.read(lpn))))
            return out

        values = engine.run_process(scenario())
        for lpn, data in enumerate(values):
            assert data[:4] == bytes([lpn]) * 4
        ftl.check_consistency()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, 11), st.binary(min_size=1, max_size=16)),
                    min_size=1, max_size=120))
    def test_property_read_after_write(self, writes):
        """The FTL behaves like a dict of pages, under arbitrary churn."""
        engine, ftl = make_ftl(channels=2, blocks_per_die=6, pages_per_block=4)
        shadow = {}

        def scenario():
            for lpn, payload in writes:
                yield engine.process(ftl.write(lpn, payload))
                shadow[lpn] = payload + bytes(64 - len(payload))
            for lpn, expected in shadow.items():
                data = yield engine.process(ftl.read(lpn))
                assert data == expected

        engine.run_process(scenario())
        ftl.check_consistency()
        assert ftl.stats.waf >= 1.0


class TestGcVictims:
    def test_a_block_still_programming_is_no_victim(self):
        """Erasing a block whose last pages are still being programmed
        would destroy pages the map is about to point at.  Once a crash
        has killed those programs the block is stranded, and eligible."""
        engine, ftl = make_ftl(channels=1, blocks_per_die=8, pages_per_block=4)
        batch = ftl.flash.program_batch()
        for lpn in range(5):  # block 0 fully allocated, then block 1
            assert ftl.write_submit(lpn, bytes([lpn]) * 8, batch) is None
        assert ftl._full_blocks == [(0, 0, 0)]
        assert ftl._pick_victim() is None  # nothing programmed yet
        engine.run_process(batch.drain())
        assert ftl._pick_victim() == (4, (0, 0, 0))

        engine, ftl = make_ftl(channels=1, blocks_per_die=8, pages_per_block=4)
        batch = ftl.flash.program_batch()
        for lpn in range(5):
            ftl.write_submit(lpn, bytes([lpn]) * 8, batch)
        engine.run(until=engine.now + 1.5 * ftl.flash.timing.program_latency)
        ftl.flash.reboot()  # power is cut mid-batch
        engine.purge()
        ftl.reboot()
        assert ftl._stranded == {(0, 0, 0)}
        assert ftl._pick_victim() == (len(ftl.map), (0, 0, 0))
        ftl.check_consistency()


class TestFtlStats:
    def test_waf_without_writes(self):
        assert FtlStats().waf == 1.0


class TestWear:
    def test_wear_summary_reports_distribution(self):
        engine, ftl = make_ftl(channels=1, blocks_per_die=8, pages_per_block=4)

        def scenario():
            for i in range(400):
                yield engine.process(ftl.write(i % 4, bytes([i % 251]) * 8))

        engine.run_process(scenario())
        wear = ftl.flash.wear_summary()
        assert wear["total"] == ftl.stats.blocks_erased
        assert wear["max"] >= wear["mean"] >= wear["min"]
        assert wear["max"] > 0

    def test_wear_tiebreak_spreads_erases(self):
        # Under sustained uniform churn the wear-aware tiebreak keeps the
        # erase counts within a tight band across blocks.
        engine, ftl = make_ftl(channels=1, blocks_per_die=8, pages_per_block=4)

        def scenario():
            for i in range(800):
                yield engine.process(ftl.write(i % 6, bytes([i % 251]) * 8))

        engine.run_process(scenario())
        wear = ftl.flash.wear_summary()
        assert wear["max"] - wear["min"] <= max(4, 0.4 * wear["mean"])


class TestBackgroundGc:
    def test_background_gc_keeps_pool_high(self):
        engine, ftl = make_ftl(channels=1, blocks_per_die=16, pages_per_block=4)

        def scenario():
            for i in range(300):
                yield engine.process(ftl.write(i % 6, bytes([i % 251]) * 8))

        engine.run_process(scenario())
        engine.run()  # idle time: background GC finishes its sweep
        assert ftl.stats.background_gc_runs > 0
        assert ftl.total_free_blocks >= ftl._gc_high_watermark
        ftl.check_consistency()

    def test_background_gc_prevents_most_foreground_stalls(self):
        engine, ftl = make_ftl(channels=1, blocks_per_die=16, pages_per_block=4)

        def scenario():
            for i in range(400):
                yield engine.process(ftl.write(i % 6, bytes([i % 251]) * 8))
                # A little think time between writes lets background GC run.
                yield engine.timeout(50e-6)

        engine.run_process(scenario())
        assert ftl.stats.background_gc_runs > 0
        assert ftl.stats.foreground_gc_stalls == 0

    def test_data_intact_under_background_gc(self):
        engine, ftl = make_ftl(channels=1, blocks_per_die=16, pages_per_block=4)

        def scenario():
            for lpn in range(10):
                yield engine.process(ftl.write(lpn, bytes([lpn]) * 8))
            for i in range(300):
                yield engine.process(ftl.write(10 + i % 4, b"churn"))
                yield engine.timeout(20e-6)

        engine.run_process(scenario())
        engine.run()
        for lpn in range(10):
            assert ftl.peek(lpn)[:8] == bytes([lpn]) * 8
        ftl.check_consistency()


class TestTrimProperty:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 9),
                      st.binary(min_size=1, max_size=16)),
            st.tuples(st.just("trim"), st.integers(0, 9), st.just(b"")),
        ),
        min_size=1, max_size=100,
    ))
    def test_property_trim_interleaved_with_writes(self, ops):
        """TRIM behaves like dict deletion under arbitrary interleavings,
        and never breaks the mapping invariants."""
        engine, ftl = make_ftl(channels=2, blocks_per_die=6, pages_per_block=4)
        shadow = {}

        def scenario():
            for op, lpn, payload in ops:
                if op == "write":
                    yield engine.process(ftl.write(lpn, payload))
                    shadow[lpn] = payload + bytes(64 - len(payload))
                else:
                    ftl.trim(lpn)
                    shadow.pop(lpn, None)
            for lpn in range(10):
                data = yield engine.process(ftl.read(lpn))
                assert data == shadow.get(lpn, bytes(64))

        engine.run_process(scenario())
        engine.run()  # background GC settles
        ftl.check_consistency()


class TestScrubber:
    def make_worn_ftl(self):
        from repro.nand.ecc import EccConfig
        engine = Engine()
        geometry = NandGeometry(channels=1, dies_per_channel=1,
                                blocks_per_die=8, pages_per_block=4,
                                page_size=64)
        timing = NandTiming("wearable", 1 * USEC, 2 * USEC, 10 * USEC,
                            jitter_fraction=0.0, endurance_cycles=24)
        ecc = EccConfig(correctable_bits=40, wear_slope=60.0,
                        max_read_retries=3, retry_gain_bits=12)
        flash = FlashArray(engine, geometry, timing, RngStreams(5), ecc=ecc)
        return engine, PageMapFTL(engine, flash, overprovision=0.25)

    def test_scrub_on_fresh_media_is_a_noop(self):
        engine, ftl = self.make_worn_ftl()

        def scenario():
            for lpn in range(4):
                yield engine.process(ftl.write(lpn, bytes([lpn]) * 8))
            return (yield engine.process(ftl.scrub()))

        assert engine.run_process(scenario()) == 0

    def test_scrub_relocates_high_error_pages_and_preserves_data(self):
        engine, ftl = self.make_worn_ftl()

        def scenario():
            # Age the media with churn, then place long-lived data.
            for i in range(500):
                yield engine.process(ftl.write(i % 3, b"churn"))
            for lpn in range(4, 8):
                yield engine.process(ftl.write(lpn, bytes([lpn]) * 8))
            moved = yield engine.process(ftl.scrub())
            return moved

        moved = engine.run_process(scenario())
        engine.run()
        assert moved > 0
        assert ftl.stats.pages_scrubbed == moved
        for lpn in range(4, 8):
            assert ftl.peek(lpn)[:8] == bytes([lpn]) * 8
        ftl.check_consistency()

    def test_scrubbed_pages_remain_readable(self):
        engine, ftl = self.make_worn_ftl()

        def scenario():
            for i in range(500):
                yield engine.process(ftl.write(i % 3, b"churn"))
            yield engine.process(ftl.write(5, b"precious"))
            yield engine.process(ftl.scrub())
            data = yield engine.process(ftl.read(5))
            return data

        # Without the scrub, a worn copy could eventually decay to UECC;
        # after the patrol the data reads back intact.
        data = engine.run_process(scenario())
        assert data[:8] == b"precious"


# -- the batch-of-one write and read against the per-page oracle ---------------


class OracleFTL(PageMapFTL):
    """The per-page ``write``/``read`` the batch-of-one bodies replaced,
    verbatim; runs on :class:`~tests.test_nand_batch.OracleArray`."""

    def write(self, lpn: int, data: bytes) -> Iterator[Event]:
        """Process: write one logical page out-of-place.

        Background GC is nudged as the pool shrinks; only when it falls
        behind (below the low watermark) does the write stall on inline
        foreground collection.
        """
        self._check_lpn(lpn)
        if len(data) > self.page_size:
            raise ValueError(f"page write of {len(data)} bytes exceeds {self.page_size}")
        with tracing.span("ftl.pagemap.write", self.engine):
            free = self._free_block_count
            if free < self._bg_watermark:
                self._kick_background_gc()
            if free < self._gc_low_watermark:
                self.stats.foreground_gc_stalls += 1
                yield from self._collect_garbage()
            ppn = self._allocate_page()
            yield from self.flash.program_page(ppn, data)
            previous = self.map.bind(lpn, ppn)
            self._mark_valid(ppn)
            if previous is not None:
                self._invalidate(previous)
        self.stats.host_pages_written += 1

    def read(self, lpn: int) -> Iterator[Event]:
        """Process: read one logical page; unmapped pages return zeros instantly.

        If GC relocates the page mid-read (the mapping changed while the
        media access was in flight), the read retries against the new
        location, mirroring the read-retry path of production firmware.
        """
        self._check_lpn(lpn)
        with tracing.span("ftl.pagemap.read", self.engine):
            for _attempt in range(4):
                if tracing.enabled:
                    tracing.count("ftl.pagemap.lookups")
                ppn = self.map.lookup(lpn)
                if ppn is None:
                    return bytes(self.page_size)
                data = yield from self.flash.read_page(ppn)
                if self.map.lookup(lpn) == ppn:
                    return data
        raise FtlCapacityError(f"read of logical page {lpn} kept racing with GC")


JITTERED_NAND = NandTiming("jittered", 1 * USEC, 2 * USEC, 10 * USEC,
                           endurance_cycles=10**9)


def make_twin(oracle, timing=JITTERED_NAND, pages_per_block=8, channels=2,
              ecc=None, seed=3):
    engine = Engine()
    geometry = NandGeometry(channels=channels, dies_per_channel=1, blocks_per_die=8,
                            pages_per_block=pages_per_block, page_size=64)
    flash = (OracleArray if oracle else FlashArray)(
        engine, geometry, timing, RngStreams(seed), ecc=ecc)
    ftl = (OracleFTL if oracle else PageMapFTL)(engine, flash, overprovision=0.25)
    return engine, ftl


def run_twin(oracle, scenario, **build):
    """Run ``scenario(engine, ftl, op)`` on a fresh twin; ``op(work)``
    spawns ``work`` and logs its completion instant and value (or error).
    Returns the log, the final clock, both layers' stats and contents."""
    engine, ftl = make_twin(oracle, **build)
    log = []

    def logged(index, work):
        try:
            value = yield from work
        except FtlCapacityError as exc:
            value = type(exc).__name__
        log.append((index, engine.now, value))

    def op(work):
        op.count += 1
        return engine.process(logged(op.count, work))

    op.count = 0
    engine.run_process(scenario(engine, ftl, op))
    engine.run()
    ftl.check_consistency()
    return (sorted(log), engine.now, ftl.stats, ftl.flash.stats,
            dict(ftl.map._l2p), ftl.flash._data)


def racing_writes_and_reads(engine, ftl, op):
    """Bursts of concurrent writes — eight hot pages, eight of 60 warm
    ones — each with a read racing it: GC relocates warm pages under the
    reads, and bursts stall on it."""
    for round_ in range(40):
        procs = []
        for k in range(8):
            warm = 20 + (round_ * 8 + k) * 7 % 60
            procs.append(op(ftl.write(k, bytes([round_ % 251, k]) * 4)))
            procs.append(op(ftl.write(warm, bytes([k, round_ % 251]) * 4)))
            procs.append(op(ftl.read(warm + 7)))
        yield engine.all_of(procs)


def test_racing_writes_and_reads_match_the_oracle():
    new = run_twin(False, racing_writes_and_reads)
    old = run_twin(True, racing_writes_and_reads)
    assert new[2].foreground_gc_stalls > 0 and new[2].gc_runs > 0
    assert new == old  # exact float instants, bytes and stats


def scrub_worn_media(engine, ftl, op):
    for i in range(500):
        yield op(ftl.write(i % 3, b"churn"))
    for lpn in range(4, 8):
        yield op(ftl.write(lpn, bytes([lpn]) * 8))
    yield op(ftl.scrub())
    procs = [op(ftl.read(lpn)) for lpn in range(9)]
    yield engine.all_of(procs)


def test_scrub_matches_the_oracle():
    build = dict(timing=NandTiming("wearable", 1 * USEC, 2 * USEC, 10 * USEC,
                                   endurance_cycles=24),
                 channels=1, pages_per_block=4, seed=5,
                 ecc=EccConfig(correctable_bits=40, wear_slope=60.0,
                               max_read_retries=3, retry_gain_bits=12))
    new = run_twin(False, scrub_worn_media, **build)
    old = run_twin(True, scrub_worn_media, **build)
    assert new[2].pages_scrubbed > 0
    assert new == old


def stall_storm(engine, ftl, op):
    """Bursts of ``write_submit`` into one batch under the low watermark:
    stalled pages fall back to ``write``, per page on the oracle."""
    batch = ftl.flash.program_batch()
    for round_ in range(30):
        waits = []
        for k in range(8):
            done = engine.event()
            fallback = ftl.write_submit(
                (round_ * 8 + k) % 6, bytes([round_, k]) * 4, batch,
                on_done=lambda _token, event=done: event._succeed_processed())
            waits.append(done if fallback is None else fallback)
        yield engine.all_of(waits)
        yield op(ftl.read(round_ % 6))
    yield from batch.drain()


def test_stall_storm_through_write_submit_matches_the_oracle():
    build = dict(channels=1, pages_per_block=4)
    new = run_twin(False, stall_storm, **build)
    old = run_twin(True, stall_storm, **build)
    assert new[2].foreground_gc_stalls > 1
    assert new == old


@pytest.mark.parametrize("oracle", [False, True])
def test_a_read_that_keeps_racing_gc_raises(oracle):
    """Every media read of page 0 finds it moved (lookups alternate
    between two live PPNs): after four attempts the read raises, and the
    die it read from serves the next read."""
    engine, ftl = make_twin(oracle, channels=1)

    def fill():
        yield from ftl.write(0, b"zero")
        yield from ftl.write(1, b"one")

    engine.run_process(fill())
    first, second = ftl.map.lookup(0), ftl.map.lookup(1)
    calls = []

    def racing_lookup(_lpn):
        calls.append(None)
        return first if len(calls) // 2 % 2 == 0 else second

    ftl.map.lookup = racing_lookup
    with pytest.raises(FtlCapacityError, match="kept racing with GC"):
        engine.run_process(ftl.read(0))
    assert len(calls) == 8
    assert engine.run_process(read_page(ftl.flash, second))[:3] == b"one"


# -- GC relocation through one read and one program batch, against the serial loop


class SerialGcFTL(PageMapFTL):
    """The serial ``_relocate_block`` the batched one replaced, verbatim:
    read one valid page, program it, re-check, next page.  Runs on
    :class:`~tests.test_nand_batch.OracleArray`."""

    def _relocate_block(self, key: tuple[int, int, int]) -> Iterator[Event]:
        channel, die, block = key
        geometry = self.flash.geometry
        pages = sorted(self._valid.get(key, set()))
        for page in pages:
            old_ppn = geometry.ppn(channel, die, block, page)
            lpn = self.map.reverse_lookup(old_ppn)
            if lpn is None:
                continue  # invalidated while GC was running
            data = yield from self.flash.read_page(old_ppn)
            new_ppn = self._allocate_page()
            yield from self.flash.program_page(new_ppn, data)
            # Re-check: the host may have overwritten this LPN mid-relocation.
            if self.map.lookup(lpn) == old_ppn:
                self.map.bind(lpn, new_ppn)
                self._mark_valid(new_ppn)
                self._invalidate(old_ppn)
            else:
                self._invalidate(new_ppn)
        yield from self.flash.erase_block(channel, die, block)
        self._victim = None
        self._valid.pop(key, None)
        self._stranded.discard(key)
        owner = self._dies[channel * geometry.dies_per_channel + die]
        owner.free_blocks.append(block)
        self._free_block_count += 1
        self.stats.blocks_erased += 1
        self.stats.gc_pages_written += len(pages)


def gc_page(lpn, generation):
    return bytes([lpn, generation]) * 16


def record_recheck_branches(ftl):
    """Count the relocation re-check's two outcomes: a relocated page
    bound (``_mark_valid`` beyond the host's pages) and a relocated page
    dropped because the host overwrote it mid-relocation (an
    ``_invalidate`` of a page never marked valid)."""
    counts = {"marked": 0, "dropped": 0}
    valid = set()
    mark, invalidate = ftl._mark_valid, ftl._invalidate

    def marking(ppn):
        counts["marked"] += 1
        valid.add(ppn)
        mark(ppn)

    def invalidating(ppn):
        if ppn in valid:
            valid.discard(ppn)
        else:
            counts["dropped"] += 1
        invalidate(ppn)

    ftl._mark_valid, ftl._invalidate = marking, invalidating
    return counts


def run_gc_twin(serial):
    """Fill four dies, overwrite every third LPN, then collect three
    victims one by one, each with host overwrites of its first and last
    valid LPN issued as its relocation starts.  Returns the final state."""
    engine = Engine()
    geometry = NandGeometry(channels=4, dies_per_channel=1, blocks_per_die=16,
                            pages_per_block=8, page_size=64)
    flash = (OracleArray if serial else FlashArray)(
        engine, geometry, JITTERED_NAND, RngStreams(3))
    ftl = (SerialGcFTL if serial else PageMapFTL)(engine, flash, overprovision=0.25)
    branches = record_recheck_branches(ftl)
    relocating = []

    def scenario():
        for lpn in range(64):
            yield from ftl.write(lpn, gc_page(lpn, 0))
        for lpn in range(0, 64, 3):
            yield from ftl.write(lpn, gc_page(lpn, 1))
        for round_ in range(3):
            valid, key = ftl._pick_victim()
            base = geometry.ppn(*key, 0)
            lpns = [ftl.map.reverse_lookup(base + page)
                    for page in sorted(ftl._valid[key])]
            assert valid == len(lpns) > 2
            started = engine.now
            gc = engine.process(ftl._relocate_block(key))
            writes = [engine.process(ftl.write(lpn, gc_page(lpn, 2 + round_)))
                      for lpn in (lpns[0], lpns[-1])]
            yield engine.all_of([gc, *writes])
            relocating.append(engine.now - started)

    engine.run_process(scenario())
    engine.run()
    ftl.check_consistency()
    contents = {lpn: ftl.peek(lpn) for lpn in range(ftl.logical_pages)}
    stats = (ftl.stats.gc_pages_written, ftl.stats.blocks_erased,
             ftl.stats.host_pages_written)
    return contents, stats, engine.now, relocating, branches


def test_batched_gc_matches_the_serial_relocation():
    batched = run_gc_twin(serial=False)
    serial = run_gc_twin(serial=True)
    contents, stats, finished, relocating, branches = batched
    assert contents == serial[0]
    assert stats == serial[1] and stats[0] > 0 and stats[1] == 3
    assert finished <= serial[2]
    assert all(new < old for new, old in zip(relocating, serial[3]))
    # Both re-check outcomes ran: pages bound at their new home, and
    # pages the host overwrote mid-relocation dropped.
    assert branches["marked"] > stats[2] and branches["dropped"] > 0


def test_batched_gc_is_sanitizer_clean():
    with simsan.activated() as state:
        sanitized = run_gc_twin(serial=False)
    assert state.checks > 0
    assert state.violations == 0
    assert sanitized[:3] == run_gc_twin(serial=False)[:3]


def test_a_gc_that_meets_an_uncorrectable_page_fails_contained():
    """The victim's third valid page is uncorrectable: the GC raises, as
    the serial loop did; every batch worker ends, the pages read before
    it stay on the victim, the victim goes back to the full blocks, and
    the victim's die serves the next read."""
    engine, ftl = make_ftl()
    for lpn in range(32):
        engine.run_process(ftl.write(lpn, bytes([lpn]) * 8))
    for lpn in range(0, 32, 4):
        engine.run_process(ftl.write(lpn, b"new"))
    _valid, key = ftl._pick_victim()
    flash = ftl.flash
    worn = flash.timing.endurance_cycles - 3
    flash._block_state(*key).erase_count = worn
    base = flash.geometry.ppn(*key, 0)

    def uncorrectable(page):
        errors = raw_bit_errors(flash.ecc, base + page, worn,
                                flash.timing.endurance_cycles, flash._ecc_seed)
        try:
            retries_needed(flash.ecc, errors)
        except UncorrectableError:
            return True
        return False

    assert sorted(ftl._valid[key]) == [1, 3, 5, 7]   # LPNs 2, 6, 10, 14
    assert [uncorrectable(page) for page in (1, 3, 5)] == [False, False, True]
    with pytest.raises(UncorrectableError):
        engine.run_process(ftl._relocate_block(key))
    engine.run()
    assert not [process.name for process in engine._live
                if process.name.startswith(("NandReadBatch", "NandProgramBatch"))
                and process not in ftl._fallback_batch._workers]
    assert ftl.map.lookup(2) == base + 1
    assert engine.run_process(ftl.read(2))[:8] == bytes([2]) * 8
    assert engine.run_process(ftl.read(6))[:8] == bytes([6]) * 8
    ftl.check_consistency()
    # The failed GC handed its victim back to the full blocks, so the
    # next pick takes a block without losing the old victim.
    assert ftl._victim is None and key in ftl._full_blocks
    assert ftl._pick_victim() is not None
    ftl.check_consistency()


def test_a_gc_whose_program_fails_leaves_no_die_held():
    """A relocation's program on die 1 breaks the NAND protocol while die
    0 still senses the victim: the GC raises, the pages sensed after
    that are dropped rather than queued behind the failed die, and die 1
    serves the next read."""
    engine, ftl = make_ftl()
    for lpn in range(32):
        engine.run_process(ftl.write(lpn, bytes([lpn]) * 8))
    for lpn in range(0, 32, 4):
        engine.run_process(ftl.write(lpn, b"new"))
    _valid, key = ftl._pick_victim()
    assert key == (0, 0, 0) and ftl._next_die == 0
    die1 = ftl._dies[1]   # the second relocated page lands here
    ftl.flash._block_state(1, 0, die1.active_block).programmed.add(die1.next_page)
    with pytest.raises(NandProtocolError, match="already programmed"):
        engine.run_process(ftl._relocate_block(key))
    engine.run()
    assert not [process.name for process in engine._live
                if process.name.startswith(("NandReadBatch", "NandProgramBatch"))
                and process not in ftl._fallback_batch._workers]
    for lpn in (1, 2, 6, 10, 14):
        assert engine.run_process(ftl.read(lpn))[:8] == bytes([lpn]) * 8


# -- write_submit has one shape: None, and on_done at the page's completion


def test_a_stalled_write_submit_calls_on_done_once_at_completion():
    """Below the low watermark ``write_submit`` still returns None; the
    page runs foreground GC in a process of its own, and ``on_done``
    fires once, with the page in."""
    engine, ftl = make_ftl(channels=1, pages_per_block=4)
    batch = ftl.flash.program_batch()
    submitted = 0
    while ftl.total_free_blocks >= ftl._gc_low_watermark:   # one burst of overwrites
        ftl.write_submit(submitted % 8, bytes([submitted]) * 8, batch)
        submitted += 1
    engine.run_process(batch.drain())
    calls = []
    batch = ftl.flash.program_batch()
    assert ftl.write_submit(
        9, b"stalled", batch, token="t",
        on_done=lambda token: calls.append((token, ftl.peek(9)[:7]))) is None
    assert calls == []
    engine.run_process(batch.drain())
    engine.run()
    assert ftl.stats.foreground_gc_stalls == 1 and ftl.stats.gc_runs > 0
    assert calls == [("t", b"stalled")]
    assert ftl.stats.host_pages_written == submitted + 1
    ftl.check_consistency()


def test_a_flush_and_a_destage_train_under_foreground_gc_land_every_page():
    engine = Engine()
    cpu = HostCPU(engine, PcieLink(engine))
    profile = dataclasses.replace(TWOB_BASE, geometry=NandGeometry(
        channels=2, dies_per_channel=1, blocks_per_die=8, pages_per_block=8))
    device = TwoBSSD(engine, profile, small_ba_params(64), RngStreams(11))
    api = TwoBApiClient(engine, cpu, device)
    ftl = device.ftl
    page = ftl.page_size

    def run_below_the_low_watermark():
        batch = ftl.flash.program_batch()
        churn = 0
        while ftl.total_free_blocks >= ftl._gc_low_watermark:
            ftl.write_submit(churn % 8, bytes([churn]) * page, batch)
            churn += 1
        engine.run_process(batch.drain())

    flushed = b"".join(bytes([0x80 + index]) * page for index in range(16))
    run_below_the_low_watermark()
    engine.run_process(api.ba_pin(0, 0, 16, len(flushed)))
    device.ba_dram.write(0, flushed)
    engine.run_process(api.ba_flush(0))
    stalls = ftl.stats.foreground_gc_stalls
    assert stalls > 0

    destaged = b"".join(bytes([0x40 + index]) * page for index in range(16))
    run_below_the_low_watermark()
    engine.run_process(device.write(40, destaged))
    engine.run()
    assert ftl.stats.foreground_gc_stalls > stalls and ftl.stats.gc_runs >= 2
    for index in range(16):
        assert ftl.peek(16 + index) == flushed[index * page:(index + 1) * page]
        assert ftl.peek(40 + index) == destaged[index * page:(index + 1) * page]
    ftl.check_consistency()
