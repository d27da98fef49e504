"""Tests for the ECC / read-retry reliability model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand import (
    EccConfig,
    FlashArray,
    NandGeometry,
    NandTiming,
    UncorrectableError,
)
from repro.nand.ecc import raw_bit_errors, retries_needed
from repro.sim import Engine, RngStreams
from repro.sim.units import USEC
from tests.helpers import program_page, read_page


class TestEccMath:
    def test_clean_read_needs_no_retry(self):
        config = EccConfig(correctable_bits=40)
        assert retries_needed(config, 0) == 0
        assert retries_needed(config, 40) == 0

    def test_retries_scale_with_errors(self):
        config = EccConfig(correctable_bits=40, retry_gain_bits=12,
                           max_read_retries=3)
        assert retries_needed(config, 41) == 1
        assert retries_needed(config, 52) == 1
        assert retries_needed(config, 53) == 2
        assert retries_needed(config, 76) == 3

    def test_uncorrectable_beyond_budget(self):
        config = EccConfig(correctable_bits=40, retry_gain_bits=12,
                           max_read_retries=3)
        with pytest.raises(UncorrectableError):
            retries_needed(config, 77)

    def test_errors_grow_with_wear(self):
        config = EccConfig()
        fresh = sum(raw_bit_errors(config, ppn, 0, 1000) for ppn in range(200))
        worn = sum(raw_bit_errors(config, ppn, 1000, 1000) for ppn in range(200))
        assert worn > 3 * fresh

    def test_deterministic_per_page_and_wear(self):
        config = EccConfig()
        assert raw_bit_errors(config, 7, 50, 1000, seed=3) == \
            raw_bit_errors(config, 7, 50, 1000, seed=3)
        # Different pages or wear levels draw independently.
        draws = {raw_bit_errors(config, ppn, 50, 1000) for ppn in range(50)}
        assert len(draws) > 5

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EccConfig(correctable_bits=0)
        with pytest.raises(ValueError):
            EccConfig(max_read_retries=-1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 200))
    def test_property_retries_monotonic_in_errors(self, errors):
        config = EccConfig(correctable_bits=40, retry_gain_bits=12,
                           max_read_retries=8)
        try:
            first = retries_needed(config, errors)
            second = retries_needed(config, errors + 1)
            assert second >= first
        except UncorrectableError:
            with pytest.raises(UncorrectableError):
                retries_needed(config, errors + 1)


class TestReadRetryIntegration:
    def make_array(self, wear_slope=60.0, endurance=100):
        engine = Engine()
        geometry = NandGeometry(channels=1, dies_per_channel=1,
                                blocks_per_die=4, pages_per_block=4)
        timing = NandTiming("t", 10 * USEC, 20 * USEC, 30 * USEC,
                            jitter_fraction=0.0, endurance_cycles=endurance)
        ecc = EccConfig(correctable_bits=40, wear_slope=wear_slope,
                        max_read_retries=3, retry_gain_bits=12)
        return engine, FlashArray(engine, geometry, timing, RngStreams(2), ecc=ecc)

    def wear_block(self, engine, flash, cycles):
        def churn():
            for _ in range(cycles):
                yield engine.process(program_page(flash, 0, b"x"))
                yield engine.process(flash.erase_block(0, 0, 0))

        engine.run_process(churn())

    def test_fresh_pages_read_in_one_sense(self):
        engine, flash = self.make_array()

        def scenario():
            yield engine.process(program_page(flash, 0, b"fresh"))
            yield engine.process(read_page(flash, 0))

        engine.run_process(scenario())
        assert flash.stats.read_retries == 0

    def test_worn_pages_take_retries_and_longer_reads(self):
        # Wear to 60%: expected raw errors ~38, worst case just inside the
        # retry budget (40 + 3*12 = 76), so reads retry but never fail.
        engine, flash = self.make_array(wear_slope=60.0, endurance=100)
        self.wear_block(engine, flash, 60)

        def scenario():
            yield engine.process(program_page(flash, 0, b"worn"))
            reads = 0
            start = engine.now
            for _ in range(20):
                yield engine.process(read_page(flash, 0))
                reads += 1
            return (engine.now - start) / reads

        mean_read = engine.run_process(scenario())
        assert flash.stats.read_retries > 0
        assert mean_read > 10 * USEC  # at least one extra tR on average

    def test_uncorrectable_page_raises(self):
        engine, flash = self.make_array(wear_slope=500.0, endurance=50)
        self.wear_block(engine, flash, 50)

        def scenario():
            yield engine.process(program_page(flash, 0, b"doomed"))
            # Sweep reads until one draws an uncorrectable error count.
            for _ in range(4):
                yield engine.process(read_page(flash, 0))

        with pytest.raises(UncorrectableError):
            engine.run_process(scenario())

    def test_unwritten_pages_never_fail(self):
        engine, flash = self.make_array(wear_slope=500.0, endurance=50)
        self.wear_block(engine, flash, 50)
        # Reading an erased page skips ECC entirely (nothing stored).
        assert engine.run_process(read_page(flash, 1)) == bytes(4096)
