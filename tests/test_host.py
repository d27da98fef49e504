"""Unit and property tests for the host CPU store path and WC buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import ByteRegion, HostCPU, HostParams, PersistentMemoryRegion
from repro.pcie import PcieLink
from repro.sim import Engine
from repro.sim.units import NSEC, USEC

pytestmark = pytest.mark.oracle


def make_cpu(params=None):
    engine = Engine()
    link = PcieLink(engine)
    return engine, HostCPU(engine, link, params=params)


class TestWriteCombining:
    def test_store_stages_without_landing(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)
        engine.run_process(cpu.wc_store(region, 0, b"hello"))
        assert region.read(0, 5) == bytes(5)
        assert cpu.wc.dirty_lines(region) == 1

    def test_flush_lands_staged_bytes(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)

        def scenario():
            yield engine.process(cpu.wc_store(region, 0, b"hello"))
            yield engine.process(cpu.wc_flush(region))
            yield engine.process(cpu.write_verify_read())

        engine.run_process(scenario())
        assert region.read(0, 5) == b"hello"
        assert cpu.wc.dirty_lines(region) == 0

    def test_overflow_evicts_oldest_line(self):
        engine, cpu = make_cpu(HostParams(wc_buffer_lines=2))
        region = ByteRegion("bar1", 4096)

        def scenario():
            for line in range(3):
                yield engine.process(cpu.wc_store(region, line * 64, bytes([line + 1]) * 8))
            # line 0 must have been evicted to make room; let it land.
            yield engine.process(cpu.write_verify_read())

        engine.run_process(scenario())
        assert region.read(0, 8) == bytes([1]) * 8
        assert cpu.wc.dirty_lines(region) == 2

    def test_power_loss_drops_unflushed_lines(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)

        def scenario():
            yield engine.process(cpu.wc_store(region, 0, b"doomed"))

        engine.run_process(scenario())
        lost = cpu.power_loss()
        assert lost == 1
        engine.run()
        assert region.read(0, 6) == bytes(6)

    def test_flushed_data_survives_power_loss(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)

        def scenario():
            yield engine.process(cpu.persistent_mmio_write(region, 0, b"durable"))

        engine.run_process(scenario())
        assert cpu.power_loss() == 0
        assert region.read(0, 7) == b"durable"

    def test_partial_line_spans_merge(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)

        def scenario():
            yield engine.process(cpu.wc_store(region, 10, b"aa"))
            yield engine.process(cpu.wc_store(region, 12, b"bb"))
            yield engine.process(cpu.wc_store(region, 20, b"cc"))
            yield engine.process(cpu.wc_flush(region))
            yield engine.process(cpu.write_verify_read())

        engine.run_process(scenario())
        assert region.read(10, 4) == b"aabb"
        assert region.read(20, 2) == b"cc"
        assert region.read(14, 6) == bytes(6)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 500), st.binary(min_size=1, max_size=80)),
                    min_size=1, max_size=30))
    def test_property_flush_makes_region_match_shadow(self, writes):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 1024)
        shadow = bytearray(1024)

        def scenario():
            for offset, data in writes:
                yield engine.process(cpu.wc_store(region, offset, data))
                shadow[offset:offset + len(data)] = data
            yield engine.process(cpu.wc_flush(region))
            yield engine.process(cpu.write_verify_read())

        engine.run_process(scenario())
        assert region.snapshot() == bytes(shadow)


class TestMmioTiming:
    def test_mmio_write_8_bytes_calibration(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)
        engine.run_process(cpu.mmio_write(region, 0, b"x" * 8))
        assert engine.now == pytest.approx(630 * NSEC, rel=0.02)

    def test_mmio_write_4k_calibration(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)
        engine.run_process(cpu.mmio_write(region, 0, b"x" * 4096))
        assert engine.now == pytest.approx(2000 * NSEC, rel=0.02)

    def test_persistent_write_overhead_small(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)
        engine.run_process(cpu.persistent_mmio_write(region, 0, b"x" * 8))
        # +15% over plain MMIO write at 8 bytes (Fig. 7b).
        assert engine.now == pytest.approx(1.15 * 630 * NSEC, rel=0.05)

    def test_persistent_write_overhead_4k(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)
        engine.run_process(cpu.persistent_mmio_write(region, 0, b"x" * 4096))
        # +47% over plain MMIO write at 4 KiB (Fig. 7b).
        assert engine.now == pytest.approx(1.47 * 2000 * NSEC, rel=0.05)

    def test_mmio_read_4k_calibration(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)

        def scenario():
            return (yield engine.process(cpu.mmio_read(region, 0, 4096)))

        engine.run_process(scenario())
        assert engine.now == pytest.approx(150 * USEC, rel=0.02)

    def test_mmio_read_returns_written_data(self):
        engine, cpu = make_cpu()
        region = ByteRegion("bar1", 4096)

        def scenario():
            yield engine.process(cpu.wc_store(region, 100, b"payload"))
            # Read must observe own staged writes (flush-before-read).
            return (yield engine.process(cpu.mmio_read(region, 100, 7)))

        assert engine.run_process(scenario()) == b"payload"


class TestPersistentMemory:
    def test_pm_write_is_durable_and_fast(self):
        engine, cpu = make_cpu()
        pm = PersistentMemoryRegion("nvdimm", 4096)
        engine.run_process(cpu.pm_write(pm, 0, b"log-record"))
        assert pm.read(0, 10) == b"log-record"
        # PM writes avoid the expensive MMIO fence.
        assert engine.now < 630 * NSEC


class TestByteRegion:
    def test_bounds_checked(self):
        region = ByteRegion("r", 16)
        with pytest.raises(ValueError):
            region.write(10, b"toolongdata")
        with pytest.raises(ValueError):
            region.read(-1, 4)

    def test_snapshot_restore_roundtrip(self):
        region = ByteRegion("r", 16)
        region.write(0, b"0123456789abcdef")
        image = region.page_image()
        assert image == {0: b"0123456789abcdef"}
        region.clear()
        assert region.read(0, 16) == bytes(16)
        region.restore(image)
        assert region.read(0, 16) == b"0123456789abcdef"

    def test_restore_size_mismatch_rejected(self):
        region = ByteRegion("r", 16)
        region.write(0, b"kept")
        with pytest.raises(ValueError):
            region.restore({8: b"past the end"})
        assert region.read(0, 4) == b"kept"  # checked before anything moved
