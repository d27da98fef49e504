"""``BaWAL.recover`` against the every-slot scan it replaced.

Recovery used to block-read every segment slot of the log area whatever
was written; it now follows the segment chain from ``start_lsn`` and
stops at the first slot that does not anchor at its expected base, with
the every-slot scan kept only as the fallback for a ``start_lsn`` nothing
sits at.  ``oracle_recover`` below is the replaced implementation kept
verbatim (as functions of a ``BaWAL``, with the ``_stitch`` boundary fix
written out independently); every test drives both over the same device
state and demands equal record lists — same LSNs, same payloads, same
stopping point.

The stitcher's boundary rule is unit-tested first: a record that ends
exactly on a segment boundary leaves no padding to jump over, so the
next LSN must be that boundary and a wholly missing segment is a gap.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CrashHarness
from repro.obs import tracing
from repro.sim.units import USEC
from repro.wal import BaWAL
from repro.wal.record import (
    RECORD_HEADER_BYTES,
    RecordFormatError,
    decode_record,
    scan_records,
)
from tests.helpers import Platform, small_ba_params

HEADER = RECORD_HEADER_BYTES
SEGMENT = 8 * 1024   # 16 KiB BA-buffer: two pages per segment
SMALL_AREA = 8       # pages: four slots, wraps after 32 KiB
WIDE_AREA = 64       # pages: thirty-two slots, never wraps below


# -- the replaced implementation, kept as the oracle -----------------------------


def oracle_recover(wal, start_lsn=0):
    """Process: scan every slot of the area, overlay the pinned halves,
    sort, stitch — ``BaWAL.recover`` as it was."""
    collected = []
    segments = wal.area_pages // wal.segment_pages
    for segment in range(segments):
        lpn = wal.start_lpn + segment * wal.segment_pages
        overlay = wal.device.mapping_table.pinned_lba_overlap(
            lpn, wal.segment_pages)
        if overlay is not None and overlay.lba == lpn:
            image = wal.device.ba_dram.read(overlay.offset, wal.segment_bytes)
            yield wal.engine.timeout(wal.api.params.entry_info_latency)
        else:
            image = yield from wal.device.read(lpn, wal.segment_bytes)
        collected.extend(oracle_scan_anchored(image))
    collected.sort(key=lambda item: item[0])
    return oracle_stitch(collected, start_lsn, wal.segment_bytes)


def oracle_scan_anchored(image):
    try:
        first_lsn, _payload, _next = decode_record(image, 0)
    except RecordFormatError:
        return []
    return scan_records(image, start_lsn=first_lsn)


def oracle_stitch(records, start_lsn, segment_bytes):
    result = []
    expected = start_lsn
    if records and all(lsn != start_lsn for lsn, _p in records):
        boundaries = [lsn for lsn, _p in records
                      if lsn >= start_lsn and lsn % segment_bytes == 0]
        if boundaries:
            expected = min(boundaries)
    for lsn, payload in records:
        if lsn < expected:
            continue
        if lsn == expected:
            result.append((lsn, payload))
            expected = lsn + HEADER + len(payload)
            continue
        # The one legal jump is over a sealed segment's padding, and only
        # a record that ended inside the segment left any.
        if expected % segment_bytes == 0:
            break
        if lsn != (expected // segment_bytes + 1) * segment_bytes:
            break
        result.append((lsn, payload))
        expected = lsn + HEADER + len(payload)
    return result


# -- harness -----------------------------------------------------------------------


def make(area_pages=WIDE_AREA, seed=5, start=True):
    platform = Platform(ba_params=small_ba_params(16), seed=seed)
    wal = BaWAL(platform.engine, platform.api, area_pages=area_pages)
    assert wal.segment_bytes == SEGMENT
    # The writer models a consumer that truncated everything it logged:
    # any segment may be recycled, even the one a two-slot area trims as
    # it seals.  What is under test is what recovery finds after a wrap.
    wal.low_water_lsn = sys.maxsize
    if start:
        platform.engine.run_process(wal.start())
    return platform, wal


def log(platform, wal, sizes, commit=True):
    """Append one record per size (distinct bytes each); returns the LSN
    every record starts at."""
    engine = platform.engine
    starts = []

    def run():
        for index, size in enumerate(sizes):
            payload = bytes([index % 251]) * size
            end = yield from wal.append(payload)
            starts.append(end - HEADER - size)
            if commit:
                yield from wal.commit(end)

    engine.run_process(run())
    engine.run()  # background flush + re-pin of sealed halves
    return starts


def agree(platform, wal, start_lsn=0):
    """Recover through a fresh ``BaWAL`` (only the device state speaks) and
    through the oracle; equal or fail.  Returns the records and the
    recovery's own counters."""
    engine = platform.engine
    fresh = BaWAL(engine, platform.api, start_lpn=wal.start_lpn,
                  area_pages=wal.area_pages)
    with tracing.activated() as tracer:
        got = engine.run_process(fresh.recover(start_lsn))
    want = engine.run_process(oracle_recover(fresh, start_lsn))
    assert got == want
    return got, tracer.counters


def lsns(records):
    return [lsn for lsn, _payload in records]


# -- satellite 1: the stitcher's boundary rule -------------------------------------


class TestStitchBoundary:
    def wal(self):
        return make(start=False)[1]

    def test_exact_fill_then_hole_stops_at_the_boundary(self):
        wal = self.wal()
        records = [(0, b"x" * (SEGMENT - HEADER)), (2 * SEGMENT, b"later")]
        assert wal._stitch(records, 0) == records[:1]
        assert oracle_stitch(records, 0, SEGMENT) == records[:1]

    def test_exact_fill_then_next_segment_present(self):
        wal = self.wal()
        records = [(0, b"x" * (SEGMENT - HEADER)), (SEGMENT, b"next")]
        assert wal._stitch(records, 0) == records
        assert oracle_stitch(records, 0, SEGMENT) == records

    def test_mid_segment_end_jumps_the_padding(self):
        wal = self.wal()
        records = [(0, b"x" * (SEGMENT // 2)), (SEGMENT, b"after the padding")]
        assert wal._stitch(records, 0) == records
        assert oracle_stitch(records, 0, SEGMENT) == records

    def test_mid_segment_end_never_jumps_two(self):
        wal = self.wal()
        records = [(0, b"x" * (SEGMENT // 2)), (2 * SEGMENT, b"too far")]
        assert wal._stitch(records, 0) == records[:1]
        assert oracle_stitch(records, 0, SEGMENT) == records[:1]


# -- directed cases ----------------------------------------------------------------


class TestDirected:
    def test_empty_log(self):
        platform, wal = make()
        records, counters = agree(platform, wal)
        assert records == []
        assert counters["wal.ba.recover.fallback_scans"] == 1

    def test_empty_log_nothing_pinned(self):
        platform, wal = make(start=False)
        assert agree(platform, wal)[0] == []

    def test_one_partial_segment_in_the_pinned_half(self):
        platform, wal = make()
        starts = log(platform, wal, [100] * 7)
        records, counters = agree(platform, wal)
        assert lsns(records) == starts
        assert "wal.ba.recover.fallback_scans" not in counters
        # Both halves are pinned, the second one empty: no device read.
        assert "wal.ba.recover.bytes_read" not in counters

    def test_sealed_segments_and_both_halves(self):
        platform, wal = make()
        starts = log(platform, wal, [700] * 60)  # five segments and a bit
        assert wal.stats.device_writes >= 4
        records, counters = agree(platform, wal)
        assert lsns(records) == starts
        assert "wal.ba.recover.fallback_scans" not in counters
        assert counters["wal.ba.recover.segments_read"] == \
            wal.stats.device_writes

    @pytest.mark.parametrize("crashed", [False, True])
    def test_start_lsn_positions(self, crashed):
        platform, wal = make()
        starts = log(platform, wal, [300, 900, 50] * 25)
        tail = wal.tail_lsn
        if crashed:
            platform.power.power_cycle()
        mid_segment = next(lsn for lsn in starts[40:] if lsn % SEGMENT)
        records, counters = agree(platform, wal, mid_segment)
        assert lsns(records) == starts[starts.index(mid_segment):]
        assert "wal.ba.recover.fallback_scans" not in counters
        on_a_boundary = next(lsn for lsn in starts[1:] if lsn % SEGMENT == 0)
        records, _ = agree(platform, wal, on_a_boundary)
        assert lsns(records) == starts[starts.index(on_a_boundary):]
        for off_boundary in (mid_segment + 1, mid_segment + HEADER,
                             tail, tail + 1, tail + 3 * SEGMENT,
                             tail + WIDE_AREA * wal.page_size):
            _, counters = agree(platform, wal, off_boundary)
            assert counters["wal.ba.recover.fallback_scans"] == 1

    def test_last_record_of_the_log_alone(self):
        platform, wal = make()
        starts = log(platform, wal, [700] * 30)
        records, _ = agree(platform, wal, starts[-1])
        assert lsns(records) == starts[-1:]

    @pytest.mark.parametrize("laps", [1, 2])
    def test_wrapped_area_reanchors_the_same(self, laps):
        platform, wal = make(area_pages=SMALL_AREA)
        area = SMALL_AREA * wal.page_size
        starts = log(platform, wal, [700] * (laps * 48 + 10))
        assert laps * area < wal.tail_lsn < (laps + 1) * area
        records, counters = agree(platform, wal)
        assert counters["wal.ba.recover.fallback_scans"] == 1
        assert records and records[0][0] % SEGMENT == 0
        assert lsns(records) == starts[starts.index(records[0][0]):]
        # From the oldest surviving segment the chain needs no fallback.
        again, counters = agree(platform, wal, records[0][0])
        assert again == records
        assert "wal.ba.recover.fallback_scans" not in counters
        # A start the wrap already ate, mid-segment.
        agree(platform, wal, starts[3])

    @pytest.mark.parametrize("crash_us", [3, 11, 20, 37, 64, 90, 150, 333])
    def test_torn_tail_after_power_loss_mid_append(self, crash_us):
        platform, wal = make(seed=crash_us)
        engine = platform.engine
        acked = []

        def workload():
            for index in range(400):
                payload = b"%05d" % index + b"." * (37 * index % 600)
                end = yield from wal.append(payload)
                yield from wal.commit(end)
                acked.append(payload)

        CrashHarness(platform).crash_at(crash_us * USEC, workload())
        records, _ = agree(platform, wal)
        payloads = [payload for _lsn, payload in records]
        assert payloads[:len(acked)] == acked
        assert len(payloads) - len(acked) <= 1

    def test_uncommitted_tail_is_dropped_alike(self):
        platform, wal = make()
        starts = log(platform, wal, [500] * 20)
        log(platform, wal, [500] * 3, commit=False)
        platform.power.power_cycle()
        records, _ = agree(platform, wal)
        assert lsns(records)[:len(starts)] == starts

    def test_record_that_exactly_fills_a_segment(self):
        platform, wal = make()
        sizes = [SEGMENT - HEADER, 100, SEGMENT - 2 * HEADER - 100,
                 SEGMENT - HEADER, SEGMENT - HEADER, 40]
        starts = log(platform, wal, sizes)
        assert starts == [0, SEGMENT, SEGMENT + HEADER + 100,
                          2 * SEGMENT, 3 * SEGMENT, 4 * SEGMENT]
        for start in (0, SEGMENT, 2 * SEGMENT, 4 * SEGMENT):
            records, counters = agree(platform, wal, start)
            assert lsns(records) == starts[starts.index(start):]
            assert "wal.ba.recover.fallback_scans" not in counters

    def test_racing_a_recycle_of_the_probed_slot(self):
        """The writer seals a half while recovery sits between the probe
        and the body read of the oldest segment: the recycle trims that
        very slot and re-pins it one lap on.  Recovery must notice the pin
        (not glue the stale probe to a trimmed body) and end where the
        every-slot scan of the resulting state ends."""
        platform, wal = make(area_pages=SMALL_AREA)
        engine = platform.engine
        device = wal.device
        starts = log(platform, wal, [700] * 50)  # tail in segment 4, slot 0
        assert wal.tail_lsn // SEGMENT == 4
        victim = wal.start_lpn + 2 * wal.segment_pages  # segment 2's slot
        real_read = device.read
        raced = []

        def racing_read(lpn, nbytes):
            data = yield from real_read(lpn, nbytes)
            if lpn == victim and nbytes == wal.page_size and not raced:
                raced.append(engine.now)
                sealed = wal._halves[wal._active]
                left = sealed.stream_base + SEGMENT - wal.tail_lsn
                end = yield from wal.append(b"!" * left)  # cannot fit: seals
                yield from wal.commit(end)
                if sealed.ready is not None:
                    yield sealed.ready  # flushed, slot trimmed, re-pinned
                overlay = device.mapping_table.pinned_lba_overlap(
                    victim, wal.segment_pages)
                assert overlay is not None and overlay.lba == victim
            return data

        device.read = racing_read
        try:
            got = engine.run_process(wal.recover(2 * SEGMENT))
        finally:
            del device.read
        assert raced
        want = engine.run_process(oracle_recover(wal, 2 * SEGMENT))
        assert got == want
        assert got[0][0] == 3 * SEGMENT  # segment 2 is gone, re-anchored
        assert lsns(got) == starts[starts.index(3 * SEGMENT):] + [5 * SEGMENT]


# -- any sequence ------------------------------------------------------------------


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 1500)),
        st.tuples(st.just("append"), st.integers(SEGMENT // 2,
                                                 SEGMENT - HEADER)),
        st.tuples(st.just("burst"), st.integers(1, 12)),  # 4000 B records
        st.just(("fill",)),      # a record ending exactly on the boundary
        st.just(("commit",)),
        st.just(("switch",)),    # a record one byte too long for the half
        st.just(("power_cycle",)),
    ),
    min_size=1, max_size=40,
)
STARTS = st.tuples(
    st.sampled_from(["zero", "record", "record", "record", "segment",
                     "segment", "inside", "tail", "past"]),
    st.integers(0, 10_000))
# Pages: two slots (both always pinned, every seal wraps), four, eight.
AREAS = st.sampled_from([SMALL_AREA // 2, SMALL_AREA, 2 * SMALL_AREA])


def run_ops(ops, area_pages):
    platform, wal = make(area_pages=area_pages, seed=1)
    engine = platform.engine
    starts = []

    def append(size):
        end = yield from wal.append(bytes([len(starts) % 251]) * size)
        starts.append(end - HEADER - size)

    def drive():
        for op in ops:
            left = (wal._halves[wal._active].stream_base + SEGMENT
                    - wal.tail_lsn)
            if op[0] == "append":
                yield from append(op[1])
            elif op[0] == "burst":
                for _ in range(op[1]):
                    yield from append(4000)
            elif op[0] == "fill" and left >= HEADER:
                yield from append(left - HEADER)
            elif op[0] == "switch" and HEADER <= left < SEGMENT:
                yield from append(left - HEADER + 1)
            elif op[0] == "commit":
                yield from wal.commit(wal.tail_lsn)
            elif op[0] == "power_cycle":
                # Between two steps of the writer, recycles in flight:
                # the host carries on, whatever it had not synced is gone.
                platform.power.power_cycle()

    engine.run_process(drive())
    engine.run()
    return platform, wal, starts


def resolve(start, starts, tail):
    kind, pick = start
    if kind == "record" and starts:
        return starts[pick % len(starts)]
    if kind == "inside" and starts:
        return starts[pick % len(starts)] + 1 + pick % HEADER
    if kind == "segment":
        return pick % (tail // SEGMENT + 2) * SEGMENT
    if kind == "tail":
        return tail
    if kind == "past":
        return tail + pick
    return 0


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS, st.lists(STARTS, min_size=1, max_size=4), AREAS)
def test_any_sequence_matches_the_oracle(ops, start_picks, area_pages):
    platform, wal, starts = run_ops(ops, area_pages)
    for pick in start_picks:
        agree(platform, wal, resolve(pick, starts, wal.tail_lsn))
    platform.power.power_cycle()
    for pick in start_picks:
        agree(platform, wal, resolve(pick, starts, wal.tail_lsn))


@pytest.mark.soak
def test_any_sequence_matches_the_oracle_over_3000_examples():
    check = test_any_sequence_matches_the_oracle.hypothesis.inner_test
    settings(max_examples=3000, deadline=None, derandomize=True,
             suppress_health_check=[HealthCheck.too_slow])(
        given(OPS, st.lists(STARTS, min_size=1, max_size=4), AREAS)(check))()
