"""Recovery holds only the bytes it returns.

Two replacements, each held to what it replaced:

* The recovery manager's dump keeps the BA-buffer's OS pages that hold
  data (``ByteRegion.page_image``), and power-up adopts exactly those
  pages through the one ``ByteRegion.restore``.  The oracle is the
  full-image ``emergency_save`` / ``restore`` pair, kept below verbatim
  with the full-copy region restore it called.  One derandomized op
  sequence drives twin platforms — block writes, BA_PIN / mmio stores /
  BA_SYNC / BA_FLUSH, direct writes and zeros of the buffer, posted
  bursts still in flight, and power cycles at any instant, on a
  capacitance that covers the dump or one too small for it.  Every power
  cycle must report the same dumps and restores, and after every step
  the buffers, mapping tables and recovery stats must be equal.
* ``BaWAL.recover`` scans a pinned segment through a read-only view of
  the BA-buffer and copies only the payloads it returns
  (``tests/test_wal_recover_oracle.py`` holds it to the copy-based scan).
* ``replay`` hands each record over while its segment is live: a
  ``BlockWAL`` log replays in one chunk and a record
  (``tests/test_wal_replay.py`` holds every backend to the list it
  replaced; ``scripts/memory_cost.py`` row 8 holds a gateway's rebuild
  to its values and one segment per shard).

The budgets measure allocations with ``tracemalloc``, never the clock.
"""

import gc
import tracemalloc
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BaParams, CrashHarness
from repro.core.recovery import _SavedImage
from repro.sim.units import NSEC
from repro.wal import BaWAL, BlockWAL
from repro.wal.record import RECORD_HEADER_BYTES
from tests.helpers import Platform

pytestmark = pytest.mark.oracle

PAGE = 4096
MiB = 1 << 20
KiB = 1024
SLACK = 64 * KiB


# -- the replaced dump, kept as the oracle --------------------------------------------


def full_copy_restore(region, image: bytes) -> None:
    """``ByteRegion.restore`` of a flat image, verbatim from before it
    wrote only the pages that hold data."""
    if len(image) != region.size:
        raise ValueError(
            f"restore image of {len(image)} bytes does not match region size {region.size}"
        )
    if region._inbound is not None:
        region._settle_inbound()
    region._backing()[:] = image


def full_image_save(self) -> bool:
    """``RecoveryManager.emergency_save`` before the dump became sparse,
    verbatim: the saved image is the whole buffer."""
    if self.bytes_to_save() > self.params.emergency_budget_bytes:
        self._saved = None
        self.stats.dumps_failed += 1
        return False
    self._saved = _SavedImage(
        buffer_image=self.dram.snapshot(),
        table_snapshot=self.table.to_snapshot(),
    )
    self.stats.emergency_dumps += 1
    return True


def full_image_restore(self) -> bool:
    """``RecoveryManager.restore`` of a full image, verbatim."""
    if self._saved is None:
        self.dram.clear()
        self.table.restore_snapshot([])
        return False
    full_copy_restore(self.dram, self._saved.buffer_image)
    self.table.restore_snapshot(self._saved.table_snapshot)
    self._saved = None
    self.stats.restores += 1
    return True


def install_dump_oracle(device) -> None:
    """Make ``device``'s recovery manager dump and restore whole images."""
    recovery = device.recovery
    recovery.emergency_save = types.MethodType(full_image_save, recovery)
    recovery.restore = types.MethodType(full_image_restore, recovery)


# -- twin platforms ------------------------------------------------------------------


BUFFER = 4 * PAGE
SLOTS = 4
LPNS = 8
# 1e-7 F buys 5.7 KiB of dump: less than the buffer and its metadata.
CAPACITANCE = st.sampled_from([3 * 270e-6, 1e-7])


class Twin:
    """A platform with a 16 KiB BA-buffer and a log of what each op saw."""

    def __init__(self, capacitance: float, oracle: bool) -> None:
        self.platform = Platform(
            ba_params=BaParams(buffer_bytes=BUFFER, max_entries=8,
                               capacitance_farads=capacitance), seed=3)
        self.engine = self.platform.engine
        self.power = self.platform.power
        self.device = self.platform.device
        if oracle:
            install_dump_oracle(self.device)
        self.log: list = []

    def spawn(self, index: int, work) -> None:
        engine = self.engine

        def op():
            try:
                value = yield from work
            except Exception as exc:  # noqa: BLE001 - the log compares it
                value = type(exc).__name__
            self.log.append((index, engine.now, repr(value)))

        engine.process(op())

    def _store(self, slot, offset, data, sync):
        table = self.device.mapping_table
        if slot not in table:
            return "unpinned"
        yield from self.platform.api.mmio_write(table.get(slot), offset, data)
        if sync:
            yield from self.platform.api.ba_sync(slot)
        return "stored"

    def step(self, index: int, op) -> None:
        api, dram = self.platform.api, self.device.ba_dram
        kind, *args, run_ns = op
        if kind == "write":
            lpn, tag = args
            self.spawn(index, self.device.write(lpn, bytes([tag]) * PAGE))
        elif kind == "pin":
            slot, lpn = args
            self.spawn(index, api.ba_pin(slot, slot * PAGE, lpn, PAGE))
        elif kind == "store":
            slot, offset, length, tag, sync = args
            length = min(length, PAGE - offset)
            self.spawn(index, self._store(slot, offset, bytes([tag]) * length,
                                          sync))
        elif kind == "flush":
            self.spawn(index, api.ba_flush(args[0]))
        elif kind == "poke":  # the firmware writes the buffer directly
            offset, length, tag = args
            dram.write(offset, bytes([tag]) * min(length, BUFFER - offset))
        elif kind == "zero":
            offset, length = args
            dram.zero(offset, min(length, BUFFER - offset))
        else:  # "power_cycle" at whatever instant the kernel reached
            outcome = CrashHarness(self).crash_at(0.0)
            self.log.append((index, self.engine.now,
                             outcome.report.wc_lines_lost,
                             repr(outcome.report.device_dumps),
                             repr(outcome.restored)))
        self.engine.run(until=self.engine.now + run_ns * NSEC)

    def state(self) -> list:
        device = self.device
        stats = device.recovery.stats
        return [device.ba_dram.snapshot(),
                sorted(device.mapping_table.to_snapshot()),
                (stats.emergency_dumps, stats.restores, stats.dumps_failed),
                device.recovery.has_saved_image, self.engine.now]


# A BA_PIN takes ~60 us: short runs leave stores posted, long ones let
# pins and flushes finish.
RUN_NS = st.one_of(st.integers(0, 3000), st.integers(3000, 120_000))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, LPNS - 1),
                  st.integers(1, 255), RUN_NS),
        st.tuples(st.just("pin"), st.integers(0, SLOTS - 1),
                  st.integers(0, LPNS - 1), RUN_NS),
        # A posted burst of mmio stores, synced or left in flight.
        st.tuples(st.just("store"), st.integers(0, SLOTS - 1),
                  st.integers(0, PAGE - 1), st.integers(1, 3 * PAGE // 2),
                  st.integers(1, 255), st.booleans(), RUN_NS),
        st.tuples(st.just("flush"), st.integers(0, SLOTS - 1), RUN_NS),
        st.tuples(st.just("poke"), st.integers(0, BUFFER - 1),
                  st.integers(1, 2 * PAGE), st.integers(1, 255), RUN_NS),
        st.tuples(st.just("zero"), st.integers(0, BUFFER - 1),
                  st.integers(0, 3 * PAGE), RUN_NS),
        st.tuples(st.just("power_cycle"), RUN_NS),
    ),
    min_size=1, max_size=25,
)


def check_dumps(capacitance, ops) -> None:
    # A power cut runs gc.collect(); freezing what exists keeps that
    # collection to the twins' own objects.
    gc.freeze()
    try:
        new, old = Twin(capacitance, False), Twin(capacitance, True)
        for index, op in enumerate(ops):
            new.step(index, op)
            old.step(index, op)
            assert new.log == old.log
            assert new.state() == old.state()
        new.engine.run()
        old.engine.run()
        assert new.log == old.log
        assert new.state() == old.state()
    finally:
        gc.unfreeze()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(CAPACITANCE, OPS)
def test_the_sparse_dump_restores_what_the_full_image_restored(capacitance, ops):
    check_dumps(capacitance, ops)


@pytest.mark.soak
def test_the_sparse_dump_restores_what_the_full_image_restored_over_2000_examples():
    settings(max_examples=2000, deadline=None, derandomize=True,
             suppress_health_check=[HealthCheck.too_slow])(
        given(CAPACITANCE, OPS)(check_dumps))()


def test_the_twins_reach_a_failed_dump_and_posted_stores_lost_in_flight():
    """The cases the property is for occur: a dump refused by the
    capacitors, and a power cut with mmio stores still posted."""
    ops = [("pin", 0, 0, 100_000), ("store", 0, 100, 2000, 7, False, 300),
           ("power_cycle", 0), ("pin", 1, 2, 100_000),
           ("store", 1, 0, 4000, 9, True, 50_000), ("power_cycle", 0)]
    for capacitance, dumps in ((3 * 270e-6, "True"), (1e-7, "False")):
        twin = Twin(capacitance, oracle=False)
        for index, op in enumerate(ops):
            twin.step(index, op)
        cycles = [entry for entry in twin.log if len(entry) == 5]
        assert all(dumps in entry[3] for entry in cycles)
        assert cycles[0][2] > 0  # write-combined lines lost
        check_dumps(capacitance, ops)


# -- budgets --------------------------------------------------------------------------


def traced(work):
    """``work()``'s result, the bytes it allocated and still holds, and
    the peak bytes allocated while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = work()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def logged_platform(payload_bytes: int, tail_records: int):
    """A default BaWAL (two 4 MiB halves) that filled segment 0, sealed it
    and logged segment 1 up to ``tail_records`` small records from its
    end, then lost power.  Returns the platform, the WAL, and the LSN of
    the first small record."""
    platform = Platform(seed=1)
    engine = platform.engine
    wal = BaWAL(engine, platform.api)
    engine.run_process(wal.start())
    big = b"b" * payload_bytes
    segment = wal.segment_bytes

    def load():
        # Segment 0 fills and seals; segment 1 takes big records up to
        # room for the small ones, then the small ones.
        room = 2 * segment - (tail_records + 1) * (RECORD_HEADER_BYTES + 100)
        while wal.tail_lsn + RECORD_HEADER_BYTES + payload_bytes <= room:
            yield from wal.append_batch([big])
        first = wal.tail_lsn
        ends = yield from wal.append_batch([b"s" * 100] * tail_records)
        yield from wal.commit(ends[-1])
        return first

    first = engine.run_process(load())
    engine.run()
    assert segment <= first < 2 * segment
    platform.power.power_cycle()
    return platform, wal, first


def recover_fresh(platform, wal, start_lsn):
    fresh = BaWAL(platform.engine, platform.api, start_lpn=wal.start_lpn,
                  area_pages=wal.area_pages)
    return lambda: platform.engine.run_process(fresh.recover(start_lsn))


def payload_bytes(records) -> int:
    return sum(len(payload) for _lsn, payload in records)


def test_recovering_two_pinned_halves_allocates_only_what_it_returns():
    platform, wal, first = logged_platform(4000, tail_records=30)
    overlays = [platform.device.mapping_table.pinned_lba_overlap(
        wal.start_lpn + segment * wal.segment_pages, wal.segment_pages)
        for segment in (1, 2)]
    assert all(overlay is not None for overlay in overlays)  # both halves
    records, _held, peak = traced(recover_fresh(platform, wal, first))
    assert len(records) == 30 and records[0][0] == first
    assert peak <= payload_bytes(records) + SLACK, peak
    # From the start of the half: a whole half's payloads come back.
    records, _held, peak = traced(recover_fresh(platform, wal, wal.segment_bytes))
    assert payload_bytes(records) > 3 * MiB
    assert peak <= payload_bytes(records) * 1.05 + SLACK, peak


def test_records_below_start_lsn_cost_no_payload_copy():
    """The half's first records are 256 KiB each, four times the slack:
    copying any one of them would show in the peak."""
    platform, wal, first = logged_platform(256 * KiB, tail_records=1)
    records, _held, peak = traced(recover_fresh(platform, wal, first))
    assert [lsn for lsn, _payload in records] == [first]
    assert peak <= payload_bytes(records) + SLACK, peak


def test_the_dump_holds_only_the_pages_that_hold_data():
    platform = Platform(seed=2)
    engine, api, device = platform.engine, platform.api, platform.device

    def load():
        entry = yield from api.ba_pin(0, 0, 0, MiB)
        for index in range(37):
            yield from api.mmio_write(entry, index * 7 * PAGE + 100,
                                      bytes([index + 1]) * 300)
        yield from api.ba_sync(0)

    engine.run_process(load())
    image = device.ba_dram.snapshot()
    nonzero = sum(1 for offset in range(0, len(image), PAGE)
                  if image[offset:offset + PAGE] != bytes(PAGE))
    assert nonzero == 37
    saved, held, peak = traced(device.recovery.emergency_save)
    assert saved and held <= nonzero * PAGE + SLACK, held
    assert peak <= nonzero * PAGE + SLACK, peak
    device.ba_dram.clear()
    device.mapping_table.restore_snapshot([])
    assert device.recovery.restore()
    assert device.ba_dram.snapshot() == image


def test_warm_snapshots_carry_the_page_image():
    platform = Platform(seed=2)
    engine, api, device = platform.engine, platform.api, platform.device

    def load():
        entry = yield from api.ba_pin(0, 0, 0, 64 * KiB)
        yield from api.mmio_write(entry, 5 * PAGE + 9, b"warm" * 10)
        yield from api.ba_sync(0)

    engine.run_process(load())
    engine.run()
    state = device.capture_state()
    assert list(state["ba_dram"]) == [5 * PAGE]
    fresh = Platform(seed=2)
    fresh.device.restore_state(state)
    assert fresh.device.ba_dram.snapshot() == device.ba_dram.snapshot()
    assert fresh.device.capture_state() == state


# -- replay applies while the segment is live ---------------------------------------

CHUNK = 32 * PAGE  # BlockWAL reads its log 32 pages at a time


def test_a_4_mib_block_log_replays_in_one_chunk_and_a_record():
    """``BlockWAL.replay`` drops what a chunk's records consumed before the
    next read: one chunk, the bytes a chunk's end cut (under 16 pages) and
    one record, whatever the log's length (the list it replaced held all
    4 MiB, twice)."""
    platform = Platform(seed=5)
    engine = platform.engine
    device = platform.add_block_ssd()
    wal = BlockWAL(engine, device, platform.cpu, area_pages=2048)
    record = RECORD_HEADER_BYTES + 4000

    def load():
        ends = yield from wal.append_batch(
            [bytes([index % 251]) * 4000 for index in range(4 * MiB // record)])
        yield from wal.commit(ends[-1])

    engine.run_process(load())
    engine.run()
    platform.power.power_cycle()
    seen = []
    _none, _held, peak = traced(lambda: engine.run_process(wal.replay(
        0, lambda lsn, payload: seen.append(lsn))))
    assert len(seen) == 4 * MiB // record
    assert peak <= CHUNK + record + 64 * KiB, peak

