"""Unit tests for the NAND geometry, timing, and flash array."""

import pytest

from repro.nand import (
    FlashArray,
    NandGeometry,
    NandProtocolError,
    NandTiming,
    SLC_ZNAND,
    TLC_VNAND,
)
from repro.sim import Engine, RngStreams
from repro.sim.units import USEC
from tests.helpers import program_page, read_page


def make_array(engine=None, **geometry_overrides):
    engine = engine or Engine()
    geometry = NandGeometry(
        channels=2, dies_per_channel=1, blocks_per_die=4, pages_per_block=8,
        **geometry_overrides,
    )
    return engine, FlashArray(engine, geometry, SLC_ZNAND, RngStreams(7))


class TestGeometry:
    def test_ppn_roundtrip(self):
        geometry = NandGeometry(channels=3, dies_per_channel=2,
                                blocks_per_die=5, pages_per_block=7)
        seen = set()
        for channel in range(3):
            for die in range(2):
                for block in range(5):
                    for page in range(7):
                        ppn = geometry.ppn(channel, die, block, page)
                        assert geometry.decompose(ppn) == (channel, die, block, page)
                        seen.add(ppn)
        assert seen == set(range(geometry.pages))

    def test_capacity(self):
        geometry = NandGeometry(channels=2, dies_per_channel=2,
                                blocks_per_die=4, pages_per_block=8, page_size=4096)
        assert geometry.capacity_bytes == 2 * 2 * 4 * 8 * 4096

    def test_out_of_range_rejected(self):
        geometry = NandGeometry(channels=2)
        with pytest.raises(ValueError):
            geometry.ppn(2, 0, 0, 0)
        with pytest.raises(ValueError):
            geometry.decompose(geometry.pages)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            NandGeometry(channels=0)


class TestTiming:
    def test_profiles_are_asymmetric(self):
        for timing in (SLC_ZNAND, TLC_VNAND):
            assert timing.program_latency > timing.read_latency
            assert timing.erase_latency > timing.program_latency

    def test_znand_is_faster_than_tlc(self):
        assert SLC_ZNAND.read_latency < TLC_VNAND.read_latency
        assert SLC_ZNAND.program_latency < TLC_VNAND.program_latency

    def test_jitter_bounds(self):
        rng = RngStreams(1).stream("t")
        timing = NandTiming("x", 10 * USEC, 100 * USEC, 1000 * USEC,
                            jitter_fraction=0.1)
        for _ in range(200):
            sample = timing.sample_read(rng)
            assert 9 * USEC <= sample <= 11 * USEC

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValueError):
            NandTiming("bad", 0, 1, 1)


class TestFlashArray:
    def test_program_then_read_roundtrip(self):
        engine, flash = make_array()
        payload = bytes(range(256)) * 16  # 4096 bytes

        def scenario():
            yield engine.process(program_page(flash, 0, payload))
            data = yield engine.process(read_page(flash, 0))
            return data

        assert engine.run_process(scenario()) == payload

    def test_short_program_zero_padded(self):
        engine, flash = make_array()

        def scenario():
            yield engine.process(program_page(flash, 0, b"abc"))
            return (yield engine.process(read_page(flash, 0)))

        data = engine.run_process(scenario())
        assert data[:3] == b"abc"
        assert data[3:] == bytes(4093)

    def test_unwritten_page_reads_zeros(self):
        engine, flash = make_array()
        data = engine.run_process(read_page(flash, 5))
        assert data == bytes(4096)

    def test_program_timing_dominated_by_program_latency(self):
        engine, flash = make_array()
        engine.run_process(program_page(flash, 0, b"x" * 4096))
        assert engine.now == pytest.approx(SLC_ZNAND.program_latency, rel=0.1)

    def test_double_program_rejected(self):
        engine, flash = make_array()

        def scenario():
            yield engine.process(program_page(flash, 0, b"a"))
            yield engine.process(program_page(flash, 0, b"b"))

        with pytest.raises(NandProtocolError, match="erase-before-program"):
            engine.run_process(scenario())

    def test_out_of_order_program_rejected(self):
        engine, flash = make_array()
        with pytest.raises(NandProtocolError, match="out-of-order"):
            engine.run_process(program_page(flash, 3, b"a"))

    def test_erase_resets_block(self):
        engine, flash = make_array()

        def scenario():
            yield engine.process(program_page(flash, 0, b"old"))
            yield engine.process(flash.erase_block(0, 0, 0))
            yield engine.process(program_page(flash, 0, b"new"))
            return (yield engine.process(read_page(flash, 0)))

        data = engine.run_process(scenario())
        assert data[:3] == b"new"
        assert flash.erase_count(0, 0, 0) == 1

    def test_erase_makes_pages_read_zero(self):
        engine, flash = make_array()

        def scenario():
            yield engine.process(program_page(flash, 0, b"data"))
            yield engine.process(flash.erase_block(0, 0, 0))
            return (yield engine.process(read_page(flash, 0)))

        assert engine.run_process(scenario()) == bytes(4096)

    def test_wearout_enforced(self):
        engine = Engine()
        geometry = NandGeometry(channels=1, dies_per_channel=1,
                                blocks_per_die=2, pages_per_block=4)
        timing = NandTiming("fragile", 1 * USEC, 2 * USEC, 3 * USEC,
                            jitter_fraction=0.0, endurance_cycles=2)
        flash = FlashArray(engine, geometry, timing, RngStreams(0))

        def scenario():
            for _ in range(3):
                yield engine.process(flash.erase_block(0, 0, 0))

        with pytest.raises(NandProtocolError, match="worn out"):
            engine.run_process(scenario())

    def test_dies_operate_in_parallel(self):
        engine, flash = make_array()
        # Pages on different channels program concurrently.
        ppn_a = flash.geometry.ppn(0, 0, 0, 0)
        ppn_b = flash.geometry.ppn(1, 0, 0, 0)

        def scenario():
            procs = [
                engine.process(program_page(flash, ppn_a, b"a")),
                engine.process(program_page(flash, ppn_b, b"b")),
            ]
            yield engine.all_of(procs)

        engine.run_process(scenario())
        # Parallel: total time ~ one program, not two.
        assert engine.now < 1.5 * SLC_ZNAND.program_latency * 1.05

    def test_same_die_serializes(self):
        engine, flash = make_array()
        ppn_0 = flash.geometry.ppn(0, 0, 0, 0)
        ppn_1 = flash.geometry.ppn(0, 0, 0, 1)

        def scenario():
            procs = [
                engine.process(program_page(flash, ppn_0, b"a")),
                engine.process(program_page(flash, ppn_1, b"b")),
            ]
            yield engine.all_of(procs)

        engine.run_process(scenario())
        assert engine.now > 1.8 * SLC_ZNAND.program_latency * 0.95

    def test_concurrent_in_order_programs_accepted(self):
        # Submitting page 0 and page 1 simultaneously must not trip the
        # out-of-order check (ordering resolves at the die).
        engine, flash = make_array()

        def scenario():
            procs = [
                engine.process(program_page(flash, 0, b"p0")),
                engine.process(program_page(flash, 1, b"p1")),
            ]
            yield engine.all_of(procs)

        engine.run_process(scenario())
        assert flash.peek(0)[:2] == b"p0"
        assert flash.peek(1)[:2] == b"p1"

    def test_oversized_write_rejected(self):
        engine, flash = make_array()
        with pytest.raises(ValueError, match="exceeds page size"):
            engine.run_process(program_page(flash, 0, b"x" * 5000))

    def test_stats_count_operations(self):
        engine, flash = make_array()

        def scenario():
            yield engine.process(program_page(flash, 0, b"a"))
            yield engine.process(read_page(flash, 0))
            yield engine.process(flash.erase_block(0, 0, 0))

        engine.run_process(scenario())
        assert flash.stats.page_programs == 1
        assert flash.stats.page_reads == 1
        assert flash.stats.block_erases == 1
