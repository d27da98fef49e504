"""Device memory follows the live data.

Two replacements, each held to the behaviour it replaced:

* ``PageMapFTL._invalidate`` drops the stale page's image through
  ``FlashArray.discard``: after a host overwrite, a TRIM, a GC relocation
  or a stalled write, the array keeps no bytes for a page nothing maps.
  Its protocol state (programmed, write pointer, wear) stays.
* A power cycle restores only the BA-buffer's OS pages that hold data,
  so a power-cycled BA-buffer is resident where it holds data.

The oracle is the replaced behaviour, installed on one of two twin
2B-SSDs: a ``FlashArray`` whose ``discard`` is a no-op and the
full-image dump and full-copy restore
(``tests/test_recovery_memory.py`` keeps them verbatim).  One derandomized Hypothesis op
sequence drives both — block writes and overwrites, TRIMs (also while
the page destages), BA_PIN / mmio + BA_SYNC / BA_FLUSH, timed FTL reads
racing all of those and background GC, host block reads, and power cuts
at any instant — on a small over-provisioned geometry where GC relocates
and erases.  Every completion must carry the same bytes at the same
instant and kernel sequence number; at quiescence the change's array
holds images for exactly the mapped PPNs.
"""

import dataclasses
import os
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import CrashHarness, PowerController, TwoBApiClient, TwoBSSD
from repro.host import ByteRegion, HostCPU
from repro.nand import FlashArray, NandGeometry, NandProtocolError
from repro.pcie import PcieLink
from repro.platform import Platform as LibraryPlatform
from repro.sim import Engine, RngStreams
from repro.sim.units import USEC
from repro.ssd.profiles import TWOB_BASE
from tests.helpers import Platform, dual_path_lsm, program_page, small_ba_params
from tests.test_nand_batch import program_pages
from tests.test_recovery_memory import install_dump_oracle

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))
from _meter import resident_kib  # noqa: E402  (scripts/_meter.py)

pytestmark = pytest.mark.oracle

PAGE = 4096
MiB = 1 << 20
# 2 dies x 5 blocks x 4 pages = 40 physical pages.  Background GC runs
# below 6 free blocks, i.e. after 16 programs; with at most 8 pages
# mapped (two full blocks plus the two active ones) it always gets there.
PROFILE = dataclasses.replace(
    TWOB_BASE, destage_workers=4,
    geometry=NandGeometry(channels=2, dies_per_channel=1, blocks_per_die=5,
                          pages_per_block=4))
LPNS = 8
SLOTS = 4  # small_ba_params(16): a 16 KiB BA-buffer, one page per entry


# -- the replaced behaviour, kept as the oracle -------------------------------------


def install_oracle(device) -> None:
    """Make ``device`` keep every image and dump and restore whole
    BA-buffer images."""
    device.flash.discard = lambda ppn: None
    install_dump_oracle(device)


# -- twin devices ---------------------------------------------------------------


def fill(tag: int, npages: int = 1) -> bytes:
    return bytes([tag]) * (PAGE * npages)


class Twin:
    """A 2B-SSD on its own engine, link and CPU, with a completion log."""

    def __init__(self, oracle: bool) -> None:
        engine = self.engine = Engine()
        link = PcieLink(engine)
        self.cpu = HostCPU(engine, link)
        self.device = TwoBSSD(engine, PROFILE, small_ba_params(16),
                              RngStreams(11))
        self.api = TwoBApiClient(engine, self.cpu, self.device)
        self.power = PowerController(engine)
        self.power.attach_cpu(self.cpu)
        self.power.attach_link(link)
        self.power.attach_device(self.device)
        if oracle:
            install_oracle(self.device)
        self.log: list = []

    def spawn(self, index: int, work) -> None:
        """Run ``work`` (a generator) as a process; log what it returns
        (or the error it raises) with the instant and sequence number."""
        engine = self.engine

        def op():
            try:
                value = yield from work
            except Exception as exc:  # noqa: BLE001 - the log compares it
                value = type(exc).__name__
            if not isinstance(value, (bytes, int, str, type(None))):
                value = repr(value)
            self.log.append((index, engine.now, engine._sequence, value))

        engine.process(op())

    def step(self, index: int, op) -> None:
        api, device = self.api, self.device
        kind, *args, run_us = op
        if kind == "write":
            lpn, npages, tag = args
            npages = min(npages, LPNS - lpn)
            self.spawn(index, device.write(lpn, fill(tag, npages)))
        elif kind == "trim":
            lpn, npages = args
            self.spawn(index, api.trim(lpn, min(npages, LPNS - lpn)))
        elif kind == "pin":
            slot, lpn = args
            self.spawn(index, api.ba_pin(slot, slot * PAGE, lpn, PAGE))
        elif kind == "store":
            slot, tag = args
            self.spawn(index, self._store(slot, tag))
        elif kind == "flush":
            self.spawn(index, api.ba_flush(args[0]))
        elif kind == "read":  # a timed media read through the FTL
            self.spawn(index, device.ftl.read(args[0]))
        elif kind == "host_read":
            self.spawn(index, device.read(args[0], PAGE))
        else:  # "power_cycle": cut power mid-flight, reboot, restore
            engine = self.engine
            engine.run(until=engine.now + run_us * USEC)
            CrashHarness(self).crash_at(0.0)
            self.log.append((index, engine.now, engine._sequence,
                             "power_cycle"))
            return
        self.engine.run(until=self.engine.now + run_us * USEC)

    def _store(self, slot: int, tag: int):
        table = self.device.mapping_table
        if slot not in table:
            return "unpinned"
        yield from self.api.mmio_write(table.get(slot), 0, fill(tag))
        yield from self.api.ba_sync(slot)
        return "synced"

    def final_reads(self) -> list:
        """Every page through the block path and the FTL, and the buffer."""
        engine, device = self.engine, self.device
        engine.run()
        pages = [engine.run_process(device.read(lpn, PAGE))
                 for lpn in range(LPNS)]
        media = [engine.run_process(device.ftl.read(lpn))
                 for lpn in range(LPNS)]
        return [pages, media, device.ba_dram.snapshot(), engine.now,
                engine._sequence, device.flash.stats, device.ftl.stats]


LPN = st.integers(0, LPNS - 1)
RUN_US = st.integers(0, 150)
SLOT = st.integers(0, SLOTS - 1)
OPS = st.lists(
    st.one_of(
        # Overwrite every page from ``lpn`` on: a few of these cross the
        # background GC watermark and leave victims with live pages.
        st.tuples(st.just("write"), LPN, st.just(LPNS),
                  st.integers(1, 255), RUN_US),
        st.tuples(st.just("write"), LPN, st.integers(1, 3),
                  st.integers(1, 255), RUN_US),
        st.tuples(st.just("trim"), LPN, st.integers(1, 4), RUN_US),
        st.tuples(st.just("pin"), SLOT, LPN, RUN_US),
        st.tuples(st.just("store"), SLOT, st.integers(1, 255), RUN_US),
        st.tuples(st.just("flush"), SLOT, RUN_US),
        st.tuples(st.just("read"), LPN, st.integers(0, 20)),
        st.tuples(st.just("host_read"), LPN, RUN_US),
        st.tuples(st.just("power_cycle"), st.integers(0, 200)),
    ),
    min_size=15, max_size=40,
)


def check_twins(ops) -> None:
    new, old = Twin(oracle=False), Twin(oracle=True)
    for index, op in enumerate(ops):
        new.step(index, op)
        old.step(index, op)
        assert new.log == old.log
    assert new.final_reads() == old.final_reads()
    # On the change alone: images for exactly the mapped pages.
    new.device.ftl.check_consistency()


# Found by this property: GC picked a block whose last page was still
# being programmed, and its erase destroyed a page the map then pointed at.
IN_FLIGHT_VICTIM = [
    ("flush", 0, 0), ("write", 0, 8, 1, 0), ("write", 1, 8, 1, 0),
    ("write", 5, 8, 1, 144), ("write", 0, 1, 1, 0), ("power_cycle", 188),
    ("write", 0, 2, 1, 0), ("flush", 0, 0), ("power_cycle", 107),
    ("flush", 0, 0)] + [("write", 0, 8, 1, 0)] * 4 + [("trim", 0, 1, 0)]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
@example(IN_FLIGHT_VICTIM)
def test_twin_devices_read_and_time_alike(ops):
    check_twins(ops)


@pytest.mark.soak
def test_twin_devices_read_and_time_alike_over_2000_examples():
    settings(max_examples=2000, deadline=None, derandomize=True,
             suppress_health_check=[HealthCheck.too_slow])(
        given(OPS)(check_twins))()


def test_the_races_the_property_relies_on_happen():
    """A fixed sequence reaches every path that drops an image: host
    overwrites, TRIMs while destaging, BA_FLUSH, GC relocation with
    erases, and media reads that lose their page mid-read."""
    ops = [("write", 0, 3, 1, 0), ("trim", 0, 1, 0)]  # a TRIM mid-destage
    for round_ in range(12):
        if round_ < 3:  # cold pages, written once, share blocks with hot ones
            ops += [("write", 4 + round_, 1, 200 + round_, 0)]
        ops += [("write", round_ % 2, 2, round_ + 2, 120),
                ("read", round_ % 2, 0),
                ("write", round_ % 2, 1, round_ + 40, 120),
                ("read", 7, 0), ("trim", 7, 1, 0),  # the TRIM lands mid-read
                ("write", 7, 1, round_ + 80, 150)]
    ops += [("pin", 0, 3, 200), ("store", 0, 7, 50), ("flush", 0, 200),
            ("power_cycle", 30), ("read", 3, 0), ("write", 3, 1, 9, 200)]
    new = Twin(oracle=False)
    flash, ftl = new.device.flash, new.device.ftl
    read = flash._read  # the one timed read body, per-page and batched
    lost = []  # media reads whose page was invalidated while in flight

    def watched_read(item):
        data = yield from read(item)
        if not ftl.map.is_live(item[2]):
            lost.append(data is flash._zero_page)
        return data

    flash._read = watched_read
    for index, op in enumerate(ops):
        new.step(index, op)
    new.engine.run()
    assert ftl.stats.gc_pages_written > 0 and ftl.stats.blocks_erased > 0
    assert ftl.stats.host_pages_written > len(ftl.map)
    assert new.device.ba_manager.stats.flushes == 1
    assert lost and all(lost)  # each such read delivered the zero page
    ftl.check_consistency()
    check_twins(ops)


def block_lists(ftl) -> list:
    """Every block the FTL can hand out or collect: free, active, full."""
    blocks = list(ftl._full_blocks)
    for die in ftl._dies:
        blocks += [(die.channel, die.die, block) for block in
                   [*die.free_blocks, die.active_block] if block is not None]
    return sorted(blocks)


def test_a_power_cut_mid_gc_hands_the_victim_back():
    """GC takes its victim off the full list before relocating it; a cut
    before the erase completes left the block in no list at all, so it
    was never collected again and background GC could spin on the rest.
    The rebooted FTL returns it, still programmed, to the full list."""
    twin = Twin(oracle=False)
    engine, ftl = twin.engine, twin.device.ftl
    every_block = block_lists(ftl)
    assert len(every_block) == 10

    def victim_taken():  # a GC after the first holds a block off the lists
        return ftl.stats.gc_pages_written > 0 and len(block_lists(ftl)) < 10

    round_ = 0
    while not victim_taken():  # overwrite every page until then
        round_ += 1
        assert round_ < 30
        twin.spawn(round_, twin.device.write(0, fill(round_, LPNS)))
        deadline = engine.now + 400 * USEC
        while engine.now < deadline and not victim_taken():
            engine.run(until=engine.now + USEC)
    assert ftl._gc_lock.in_use
    CrashHarness(twin).crash_at(0.0)
    assert block_lists(ftl) == every_block
    twin.spawn(99, twin.device.write(0, fill(7, LPNS)))
    engine.run(until=engine.now + 0.05)
    assert engine.quiescent()  # background GC is not spinning
    ftl.check_consistency()
    assert [engine.run_process(twin.device.read(lpn, PAGE))
            for lpn in range(LPNS)] == [fill(7)] * LPNS


# -- directed NAND cases ----------------------------------------------------------


def small_array():
    engine = Engine()
    geometry = NandGeometry(channels=1, dies_per_channel=1, blocks_per_die=2,
                            pages_per_block=4)
    return engine, FlashArray(engine, geometry, rng=RngStreams(2))


def test_a_discarded_unerased_page_still_refuses_a_program():
    engine, flash = small_array()
    engine.run_process(program_page(flash, 0, fill(5)))
    flash.discard(0)
    assert flash.peek(0) is flash._zero_page
    assert flash.is_programmed(0)
    with pytest.raises(NandProtocolError, match="erase-before-program"):
        engine.run_process(program_page(flash, 0, fill(6)))
    batch = flash.program_batch()
    batch.submit(0, fill(6))
    with pytest.raises(NandProtocolError, match="erase-before-program"):
        engine.run_process(batch.drain())


def test_erase_after_discards_resets_the_block():
    engine, flash = small_array()
    engine.run_process(program_pages(flash, [(ppn, fill(ppn + 1))
                                             for ppn in range(4)]))
    flash.discard(1)
    flash.discard(3)
    flash.discard(3)  # discarding twice is harmless
    assert sorted(flash._data) == [0, 2]
    engine.run_process(flash.erase_block(0, 0, 0))
    assert flash._data == {} and flash.erase_count(0, 0, 0) == 1
    engine.run_process(program_page(flash, 0, fill(9)))
    assert flash.peek(0) == fill(9)


def test_capture_and_restore_keep_discarded_pages_discarded():
    engine, flash = small_array()
    engine.run_process(program_pages(flash, [(ppn, fill(ppn + 1))
                                             for ppn in range(6)]))
    flash.discard(2)
    flash.discard(4)
    state = flash.capture_state()
    assert sorted(state["data"]) == [0, 1, 3, 5]
    engine2, twin = small_array()
    twin.restore_state(state)
    assert twin.capture_state() == state
    assert [twin.peek(ppn) for ppn in range(8)] == \
        [flash.peek(ppn) for ppn in range(8)]
    assert twin.is_programmed(2) and twin.peek(2) is twin._zero_page
    with pytest.raises(NandProtocolError):
        engine2.run_process(program_page(twin, 2, fill(7)))


def test_platform_snapshot_restores_equal_after_overwrites_and_trims():
    platform = LibraryPlatform(seed=4)
    engine, device = platform.engine, platform.device

    def load():
        for round_ in range(6):
            yield from device.write(0, fill(round_ + 1, 8))
            yield from platform.api.trim(2 + round_ % 3, 2)
        yield from device.drain()

    engine.run_process(load())
    engine.run()
    assert device.ftl.stats.host_pages_written > len(device.ftl.map)
    snap = platform.snapshot()
    assert sorted(snap.devices[0]["flash"]["data"]) == \
        sorted(device.ftl.map._p2l)
    fresh = LibraryPlatform(seed=4)
    fresh.restore(snap)
    assert fresh.snapshot() == snap
    for lpn in range(8):
        assert fresh.device.ftl.peek(lpn) == device.ftl.peek(lpn)
    fresh.device.ftl.check_consistency()


# -- budgets --------------------------------------------------------------------------


def test_an_lsm_through_compactions_keeps_exactly_the_mapped_images():
    platform = Platform(seed=1)
    engine = platform.engine
    tree = dual_path_lsm(platform, platform.rng.fork("lsm"),
                         memtable_bytes=1024)

    def load():
        for i in range(400):
            yield from tree.put(f"key{(i * 7) % 120:04d}", bytes([i % 251]) * 60)

    engine.run_process(load())
    engine.run()
    assert tree.compaction_count >= 3
    device = platform.device
    assert device.ftl.stats.host_pages_written > len(device.ftl.map)
    assert len(device.flash._data) == len(device.ftl.map)
    device.ftl.check_consistency()


def _resident_or_skip(buffer) -> int:
    kib = resident_kib(buffer)
    if kib is None:
        pytest.skip("no /proc/self/pagemap: not Linux")
    return kib


def sparse_buffer_after_power_cycle(oracle: bool):
    """A default 8 MiB BA-buffer with 1 MiB pinned and 37 scattered pages
    written and synced, power-cycled; returns the region, the image it
    saved and that image's non-zero OS pages."""
    platform = Platform(seed=2)
    engine, api, dram = platform.engine, platform.api, platform.device.ba_dram
    if oracle:
        install_oracle(platform.device)

    def load():
        entry = yield from api.ba_pin(0, 0, 0, MiB)
        for index in range(37):
            yield from api.mmio_write(entry, index * 7 * PAGE + 100,
                                      fill(index + 1)[:300])
        yield from api.ba_sync(0)

    engine.run_process(load())
    image = dram.snapshot()
    nonzero = sum(1 for offset in range(0, len(image), PAGE)
                  if image[offset:offset + PAGE] != bytes(PAGE))
    platform.power.power_cycle()
    return dram, image, nonzero


def test_a_power_cycled_buffer_is_resident_only_where_it_holds_data():
    dram, image, nonzero = sparse_buffer_after_power_cycle(oracle=False)
    assert nonzero == 37
    assert dram.snapshot() == image
    assert _resident_or_skip(dram._data) <= nonzero * PAGE // 1024


def test_the_full_copy_restore_made_the_whole_buffer_resident():
    dram, image, _nonzero = sparse_buffer_after_power_cycle(oracle=True)
    assert dram.snapshot() == image
    assert _resident_or_skip(dram._data) >= 8 * 1024 - 4


def test_a_restore_over_a_resident_region_hands_zero_pages_back():
    region = ByteRegion("ba-dram", 8 * MiB)
    region.write(0, b"\xab" * (2 * MiB))
    region.restore({MiB: b"\xcd" * PAGE})
    assert region.snapshot() == \
        bytes(MiB) + b"\xcd" * PAGE + bytes(7 * MiB - PAGE)
    assert _resident_or_skip(region._data) <= 8
