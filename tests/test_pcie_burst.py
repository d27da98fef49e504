"""The run-based byte path against the per-line, per-TLP one it replaced.

``WriteCombiningBuffer`` stages *extents* (consecutive lines adjacent in
FIFO order share one record) and evicts, flushes and posts them as runs;
``PcieLink.posted_burst`` serializes a whole clflush/eviction burst, keeps
one in-flight record per run with only its first and last landing key,
replays the per-TLP keys when a settle, a power loss or an observer falls
inside a run, and wakes the kernel once, at the last landing.  None of
that may be observable: every landing time, every link and WC counter,
and the bytes a device-side read sees *between* two landings of one run
must equal what one staged line and one heap event per TLP produced.

The reference oracle below is that earlier implementation, verbatim: one
``Event`` + ``land`` closure per posted write, one ``_Line`` (data + mask)
per staged line, one ``posted_write`` per dirty span.  Every test drives
the same operations through a new-path host and an oracle host on twin
engines and compares what each can observe.
"""

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CrashHarness
from repro.host import ByteRegion, HostCPU, HostParams
from repro.host.wc import WcStats, WriteCombiningBuffer
from repro.pcie import PcieLink, PcieParams
from repro.pcie.link import PostedRun
from repro.platform import Platform
from repro.sim import Engine
from repro.sim.engine import Event
from repro.sim.units import NSEC

pytestmark = pytest.mark.oracle

LINE = 64
REGION_BYTES = 4096


# -- the reference oracle: the per-TLP implementation ---------------------------


class OracleLink(PcieLink):
    """``PcieLink`` with the per-TLP landing event this PR removed."""

    def __init__(self, engine, params=None):
        super().__init__(engine, params)
        self._epoch = 0
        self.landing_keys = []  # heap key of every deposit-carrying TLP

    def posted_write(self, nbytes, deposit=None):
        if nbytes < 0:
            raise ValueError(f"posted write size must be >= 0, got {nbytes}")
        params = self.params
        start = max(self.engine.now, self._down_free_at)
        occupancy = params.tlp_overhead + nbytes / params.bandwidth_bytes_per_sec
        self._down_free_at = start + occupancy
        landing = self._down_free_at + params.propagation
        self._last_posted_landing = max(self._last_posted_landing, landing)
        self.posted_writes_issued += 1
        if deposit is not None:
            epoch = self._epoch
            event = Event(self.engine)
            event._triggered = True
            self.engine._schedule(event, delay=landing - self.engine.now)
            self.landing_keys.append(self.engine.now + (landing - self.engine.now))

            def land(_ev):
                if self._epoch == epoch:
                    deposit()
                else:
                    self.posted_writes_lost += 1

            event.callbacks.append(land)
        return landing

    def posted_burst(self, tlps):
        raise AssertionError("the oracle posts one TLP at a time")

    def power_loss(self):
        self._epoch += 1
        self._last_posted_landing = self.engine.now
        self._down_free_at = self.engine.now


@dataclass
class _OracleLine:
    data: bytearray
    mask: bytearray

    def spans(self):
        mask = self.mask
        if 0 not in mask:
            return [(0, bytes(self.data))]
        result = []
        data = self.data
        start = mask.find(1)
        while start != -1:
            end = mask.find(0, start + 1)
            if end == -1:
                result.append((start, bytes(data[start:])))
                break
            result.append((start, bytes(data[start:end])))
            start = mask.find(1, end + 1)
        return result


class OracleWc(WriteCombiningBuffer):
    """``WriteCombiningBuffer`` with the per-line staging this PR removed."""

    def __init__(self, link, max_lines):
        super().__init__(link, max_lines)
        self._lines = OrderedDict()
        self.stats = WcStats()

    def store(self, region, offset, data):
        if not data:
            return 0, 0
        region._check(offset, len(data))
        touched = 0
        evicted = 0
        position = 0
        while position < len(data):
            absolute = offset + position
            line_index = absolute // self.line_size
            within = absolute % self.line_size
            chunk = min(len(data) - position, self.line_size - within)
            key = (region, line_index)
            line = self._lines.get(key)
            if line is None:
                evicted += self._maybe_evict_for_space()
                line = _OracleLine(bytearray(self.line_size), bytearray(self.line_size))
                self._lines[key] = line
                self.stats.lines_staged += 1
            line.data[within:within + chunk] = data[position:position + chunk]
            line.mask[within:within + chunk] = b"\x01" * chunk
            touched += 1
            position += chunk
        return touched, evicted

    def _maybe_evict_for_space(self):
        evicted = 0
        while len(self._lines) >= self.max_lines:
            key, line = self._lines.popitem(last=False)
            self._post_one(key, line)
            self.stats.lines_evicted += 1
            evicted += 1
        return evicted

    def _post_one(self, key, line):
        region, line_index = key
        base = line_index * self.line_size
        for within, payload in line.spans():
            target_offset = base + within
            chunk = bytes(payload)
            self.link.posted_write(
                len(chunk),
                deposit=lambda off=target_offset, data=chunk, reg=region: reg.write(off, data),
            )

    def flush(self, region=None, offset=0, nbytes=None):
        if region is None:
            selected = list(self._lines)
        elif nbytes is None:
            selected = [key for key in self._lines if key[0] is region]
        else:
            first = offset // self.line_size
            last = (offset + max(nbytes, 1) - 1) // self.line_size
            selected = [key for key in self._lines
                        if key[0] is region and first <= key[1] <= last]
        for key in selected:
            self._post_one(key, self._lines.pop(key))
        self.stats.lines_flushed += len(selected)
        return len(selected)

    def __len__(self):
        return len(self._lines)

    def dirty_lines(self, region=None):
        if region is None:
            return len(self._lines)
        return sum(1 for key in self._lines if key[0] is region)

    def dirty_lines_in_range(self, region, offset, nbytes):
        if nbytes <= 0:
            return 0
        first = offset // self.line_size
        last = (offset + nbytes - 1) // self.line_size
        return sum(
            1 for key in self._lines
            if key[0] is region and first <= key[1] <= last
        )

    def power_loss(self):
        lost = len(self._lines)
        self._lines.clear()
        self.stats.lines_lost_to_power_failure += lost
        return lost


# -- twin hosts -------------------------------------------------------------------


class Host:
    """One CPU + link + regions on an engine; ``oracle`` picks the path."""

    def __init__(self, oracle, wc_lines=4, regions=1, engine=None):
        self.engine = engine or Engine()
        if oracle:
            self.link = OracleLink(self.engine)
        else:
            self.link = PcieLink(self.engine)
            self.landing_keys = []
            self._spy_on_bursts()
        self.cpu = HostCPU(self.engine, self.link,
                           params=HostParams(wc_buffer_lines=wc_lines))
        if oracle:
            self.cpu.wc = OracleWc(self.link, wc_lines)
        self.regions = [ByteRegion(f"bar{index}", REGION_BYTES)
                        for index in range(regions)]
        self.region = self.regions[0]
        self.ends = {}  # region index -> where the last store to it ended

    def _spy_on_bursts(self):
        link, keys, real = self.link, self.landing_keys, self.link.posted_burst

        def spy(tlps):
            before = len(link._inflight)
            landing = real(tlps)
            for run in islice(link._inflight, before, None):
                keys.extend(run)
            return landing

        link.posted_burst = spy

    def post(self, data, offset=0):
        """Store + flush ``data`` at one instant (no simulated time passes)."""
        self.cpu.wc.store(self.region, offset, data)
        self.cpu.wc.flush()

    def landings(self):
        return self.link.landing_keys if isinstance(self.link, OracleLink) \
            else self.landing_keys

    def observe(self):
        """Everything a caller or the device can see, right now."""
        stats = self.cpu.wc.stats
        return (
            self.engine.now,
            self.link._down_free_at,
            self.link.pending_posted_until,
            self.link.posted_writes_issued,
            (stats.lines_staged, stats.lines_evicted, stats.lines_flushed,
             stats.lines_lost_to_power_failure),
            len(self.cpu.wc),
            tuple(self.cpu.wc.dirty_lines_in_range(region, 0, REGION_BYTES)
                  for region in self.regions),
            tuple(region.snapshot() for region in self.regions),
        )

    def run_ops(self, ops):
        """Run ``ops`` as one process; returns the observation after each."""
        engine, cpu = self.engine, self.cpu
        log = []

        def scenario():
            for op in ops:
                kind = op[0]
                if kind == "append":
                    # A store where the previous store to the region ended
                    # (from the top again once the region is full).
                    _, index, data = op
                    offset = self.ends.get(index, 0)
                    if offset + len(data) > REGION_BYTES:
                        offset = 0
                    kind, op = "store", ("store", index, offset, data)
                if kind == "store":
                    _, index, offset, data = op
                    self.ends[index] = offset + len(data)
                    yield engine.process(cpu.wc_store(self.regions[index], offset, data))
                elif kind == "flush":
                    _, index, offset, nbytes = op
                    region = None if index is None else self.regions[index]
                    flushed = cpu.wc.flush(region, offset, nbytes)
                    log.append(("flushed", flushed))
                elif kind == "wvr":
                    yield engine.process(cpu.write_verify_read())
                elif kind == "read":
                    _, index, offset, nbytes = op
                    log.append(("read", self.regions[index].read(offset, nbytes)))
                elif kind == "devwrite":
                    _, index, offset, data = op
                    self.regions[index].write(offset, data)
                elif kind == "advance":
                    yield engine.timeout(op[1])
                elif kind == "power_loss":
                    cpu.power_loss()
                    self.link.power_loss()
                else:
                    raise AssertionError(op)
                log.append(self.observe())

        engine.run_process(scenario())
        return log


def twins(**kwargs):
    return Host(oracle=False, **kwargs), Host(oracle=True, **kwargs)


def assert_twins_agree(ops, **kwargs):
    new, old = twins(**kwargs)
    assert new.run_ops(ops) == old.run_ops(ops)
    new.engine.run()
    old.engine.run()
    assert new.observe() == old.observe()
    assert new.landings() == old.landings()
    assert new.link.posted_writes_lost == old.link.posted_writes_lost
    assert new.link.in_flight == 0
    return new, old


def pattern(nbytes, salt=0):
    return bytes((salt + index * 7) % 251 + 1 for index in range(nbytes))


def extents(host):
    """The new path's staging FIFO as ``(region index, first line, lines)``."""
    return [(host.regions.index(extent.region), extent.first, extent.count)
            for extent in host.cpu.wc._extents]


# -- equality with the oracle ---------------------------------------------------


class TestTwinEquality:
    def test_streaming_store_flush_wvr(self):
        """The gw-set shape: a store far larger than the pool, then clflush."""
        data = pattern(40 * LINE)
        new, _old = assert_twins_agree([
            ("store", 0, 0, data),
            ("flush", 0, 0, len(data)),
            ("wvr",),
        ])
        assert new.region.snapshot()[:len(data)] == data
        assert new.link.posted_writes_issued == 40

    def test_partial_and_straddling_stores(self):
        assert_twins_agree([
            ("store", 0, 5, b"abc"),                    # partial line
            ("store", 0, 60, pattern(10)),              # straddles lines 0/1
            ("store", 0, 3 * LINE - 7, pattern(LINE + 14, salt=3)),  # 3 lines
            ("store", 0, 6 * LINE + 1, pattern(LINE - 2)),
            ("flush", None, 0, None),
            ("wvr",),
        ], wc_lines=3)

    def test_restore_while_staged(self):
        """Whole over partial, partial over whole, whole over whole: the
        line keeps its FIFO position and posts its final contents."""
        assert_twins_agree([
            ("store", 0, 0, pattern(LINE)),             # whole, fresh
            ("store", 0, LINE + 8, b"tail"),            # partial, fresh
            ("store", 0, 10, b"XY"),                    # partial over whole
            ("store", 0, LINE, pattern(LINE, salt=9)),  # whole over partial
            ("store", 0, 0, pattern(2 * LINE, salt=5)),  # run over staged lines
            ("store", 0, 2 * LINE, pattern(4 * LINE)),  # evicts them, in order
            ("flush", 0, 0, None),
            ("wvr",),
        ], wc_lines=3)

    def test_gapped_spans_post_one_tlp_each(self):
        new, _old = assert_twins_agree([
            ("store", 0, 0, b"aa"),
            ("store", 0, 10, b"bb"),
            ("store", 0, 40, b"cc"),
            ("flush", 0, 0, LINE),
            ("wvr",),
        ])
        assert new.link.posted_writes_issued == 3

    def test_two_regions_share_the_pool(self):
        assert_twins_agree([
            ("store", 0, 0, pattern(3 * LINE)),
            ("store", 1, LINE, pattern(3 * LINE, salt=2)),
            ("store", 0, 8 * LINE, pattern(2 * LINE + 5, salt=4)),
            ("flush", 1, 0, None),
            ("store", 1, 0, pattern(6 * LINE, salt=6)),
            ("flush", None, 0, None),
            ("wvr",),
        ], wc_lines=4, regions=2)

    def test_range_flush_keeps_fifo_posting_order(self):
        assert_twins_agree([
            ("store", 0, 5 * LINE, pattern(LINE)),
            ("store", 0, 2 * LINE, pattern(LINE, salt=1)),
            ("store", 0, 3 * LINE + 4, b"zz"),
            ("flush", 0, 2 * LINE, 4 * LINE),
            ("wvr",),
        ], wc_lines=8)

    def test_reads_between_landings_see_exactly_the_landed_lines(self):
        """Sample device memory after every single landing of one burst."""
        lines = 12
        data = pattern(lines * LINE)
        new, old = twins(wc_lines=2)
        for host in (new, old):
            host.post(data)
        keys = new.landings()
        assert keys == old.landings() and len(keys) == lines
        assert keys == sorted(keys)
        for landed, (when, after) in enumerate(zip(keys, keys[1:] + [keys[-1] + 1.0]),
                                               start=1):
            midpoint = when + (after - when) / 2
            for host in (new, old):
                host.engine.run(until=midpoint)
            expected = data[:landed * LINE] + bytes(REGION_BYTES - landed * LINE)
            assert new.region.snapshot() == expected
            assert old.region.snapshot() == expected
            # A narrow read sees it too, and settling leaves the rest queued.
            assert new.region.read((landed - 1) * LINE, LINE) == \
                data[(landed - 1) * LINE:landed * LINE]
            assert new.link.in_flight == lines - landed

    def test_callback_payload_runs_at_its_own_landing_inside_a_queue(self):
        """posted_write is the burst of one over the same FIFO."""
        new, old = twins()
        fired = {}
        for name, host in (("new", new), ("old", old)):
            host.run_ops([("store", 0, 0, pattern(6 * LINE))])
            host.link.posted_write(
                8, deposit=lambda name=name, host=host:
                fired.setdefault(name, (host.engine.now, host.region.snapshot())))
            host.run_ops([("flush", 0, 0, None)])
            host.engine.run()
        assert fired["new"] == fired["old"]
        assert new.observe() == old.observe()

    def test_range_flush_splits_a_staged_run_and_both_remainders_keep_their_place(self):
        ops = [
            ("store", 0, 2 * LINE, pattern(6 * LINE)),      # one run: lines 2..7
            ("flush", 0, 4 * LINE, 2 * LINE),               # lines 4, 5 leave
        ]
        new, _old = twins(wc_lines=8)
        new.run_ops(ops)
        assert extents(new) == [(0, 2, 2), (0, 6, 2)]
        # Six fresh lines evict 2, 3, 6, 7 in that order; sample as they land.
        ops += [("store", 0, (20 + index) * LINE + 3, b"fresh") for index in range(10)]
        ops += [("advance", 15 * NSEC)] * 12
        ops += [("flush", None, 0, None), ("wvr",)]
        assert_twins_agree(ops, wc_lines=8)

    def test_stores_into_the_middle_of_a_staged_run(self):
        """A partial and a whole-line overwrite of lines inside a run: each
        line keeps its FIFO place and still posts as one whole-line TLP."""
        ops = [
            ("store", 0, LINE, pattern(5 * LINE)),                  # lines 1..5
            ("store", 0, 3 * LINE + 9, b"patch"),                   # inside line 3
            ("store", 0, 4 * LINE, pattern(LINE, salt=7)),          # all of line 4
            ("store", 0, 2 * LINE - 4, pattern(8, salt=3)),         # straddles 1/2
        ]
        new, _old = twins(wc_lines=8)
        new.run_ops(ops)
        assert extents(new) == [(0, 1, 5)]
        new, _old = assert_twins_agree(
            ops + [("store", 0, 9 * LINE, pattern(6 * LINE, salt=1)),  # evicts 1..3
                   ("advance", 40 * NSEC), ("flush", 0, 0, None), ("wvr",)],
            wc_lines=8)
        assert new.link.posted_writes_issued == 11

    def test_two_regions_interleave_their_extents(self):
        """Consecutive lines of one region with another region's lines
        staged in between are two extents, and evict around them."""
        ops = [
            ("store", 0, 0, pattern(3 * LINE)),
            ("store", 1, 0, pattern(3 * LINE, salt=1)),
            ("store", 0, 3 * LINE, pattern(3 * LINE, salt=2)),
            ("store", 1, 3 * LINE, pattern(3 * LINE, salt=3)),
        ]
        new, _old = twins(wc_lines=12, regions=2)
        new.run_ops(ops)
        assert extents(new) == [(0, 0, 3), (1, 0, 3), (0, 3, 3), (1, 3, 3)]
        assert_twins_agree(ops + [
            ("flush", 0, 2 * LINE, 2 * LINE),               # splits both of bar0's
            ("store", 1, 10 * LINE, pattern(7 * LINE, salt=4)),  # evicts across regions
            ("advance", 30 * NSEC),
            ("read", 0, 0, 2 * LINE),
            ("read", 1, 0, 2 * LINE),
            ("flush", 1, 0, None),
            ("flush", None, 0, None),
            ("wvr",),
        ], wc_lines=12, regions=2)

    def test_settle_and_power_loss_inside_a_lazily_keyed_run(self, monkeypatch):
        """Nothing asks a run for its per-TLP keys until a device read, then
        a power loss, fall between two of its landings."""
        lines = 24
        data = pattern(lines * LINE)
        new, old = twins(wc_lines=2)
        del new.link.posted_burst       # no spy: it would materialise the keys
        replays = []
        keys_of = PostedRun.keys
        monkeypatch.setattr(PostedRun, "keys",
                            lambda run: replays.append(run) or keys_of(run))
        for host in (new, old):
            host.post(data)
        assert [len(run) for run in new.link._inflight] == [lines - 2, 2]
        keys = old.landings()
        for host in (new, old):
            host.engine.run(until=keys[5] + 1 * NSEC)
        assert not replays
        assert new.region.read(0, lines * LINE) == old.region.read(0, lines * LINE) \
            == data[:6 * LINE] + bytes((lines - 6) * LINE)
        assert len(replays) == 1 and new.link.in_flight == lines - 6
        for host in (new, old):
            host.engine.run(until=keys[13] + 1 * NSEC)
            host.link.power_loss()
            host.engine.run()
        assert new.link.posted_writes_lost == old.link.posted_writes_lost == lines - 14
        assert new.region.snapshot() == old.region.snapshot() \
            == data[:14 * LINE] + bytes(REGION_BYTES - 14 * LINE)
        assert new.observe() == old.observe()


# -- ragged extents and runs cut at line boundaries ---------------------------------


def shapes(host):
    """The new path's staging FIFO as ``(first line, lines, masked)``."""
    return [(extent.first, extent.count, extent.mask is not None)
            for extent in host.cpu.wc._extents]


def ranges(host):
    """... and as ``(first line, lines, dirty start in the first, bytes)``."""
    return [(extent.first, extent.count, extent.lo, len(extent.data))
            for extent in host.cpu.wc._extents]


class TestRaggedExtents:
    """A record that starts and ends inside a line is one byte range in the
    WC buffer and one run on the link, whose first and last TLP are short."""

    RECORD_SIZES = (100, 1060, 2100)

    @pytest.mark.parametrize("wc_lines", [1, 2, 10])
    def test_records_back_to_back_committed_one_by_one(self, wc_lines):
        """The ``BaWAL.commit`` shape: store, range flush, write-verify read."""
        ops, image = [], b""
        for salt, size in enumerate(self.RECORD_SIZES + (100, 600)):
            ops += [("store", 0, len(image), pattern(size, salt)),
                    ("flush", 0, len(image), size), ("wvr",)]
            image += pattern(size, salt)
        new, _old = assert_twins_agree(ops, wc_lines=wc_lines)
        assert new.region.snapshot()[:len(image)] == image

    @pytest.mark.parametrize("wc_lines", [1, 2, 10])
    def test_records_back_to_back_then_one_flush(self, wc_lines):
        """The ``append_batch`` shape: every record carries on in the line
        the one before ended in, which is not staged a second time."""
        ops, offset = [], 0
        for salt, size in enumerate(self.RECORD_SIZES + (7, 64, 57)):
            ops.append(("store", 0, offset, pattern(size, salt)))
            offset += size
        new, _old = twins(wc_lines=wc_lines)
        new.run_ops(ops)
        assert len(new.cpu.wc._extents) == 1    # whatever the pool evicted
        assert new.cpu.wc.stats.lines_staged == -(-offset // LINE)
        assert_twins_agree(ops + [("advance", 50 * NSEC), ("read", 0, 0, 2 * LINE),
                                  ("flush", 0, 0, offset), ("wvr",)],
                           wc_lines=wc_lines)

    def test_a_gap_in_the_first_or_last_line_masks_that_line_only(self):
        ops = [
            ("store", 0, 5 * LINE, pattern(LINE)),                          # line 5, older
            ("store", 0, 10 * LINE + 40, pattern(24 + 3 * LINE + 10, 1)),   # lines 10..14
        ]
        new, _old = twins(wc_lines=8)
        new.run_ops(ops)
        assert shapes(new) == [(5, 1, False), (10, 5, False)]
        ops.append(("store", 0, 10 * LINE + 8, b"head"))            # gap before byte 40
        new, _old = twins(wc_lines=8)
        new.run_ops(ops)
        assert shapes(new) == [(5, 1, False), (10, 1, True), (11, 4, False)]
        ops.append(("store", 0, 14 * LINE + 30, b"tail"))           # gap after byte 10
        new, _old = twins(wc_lines=8)
        new.run_ops(ops)
        assert shapes(new) == [(5, 1, False), (10, 1, True), (11, 3, False),
                               (14, 1, True)]
        # Four fresh lines evict 5, 10 (two spans), 11 and 12, in that order.
        ops += [("store", 0, 30 * LINE, pattern(4 * LINE, 2)), ("advance", 60 * NSEC),
                ("read", 0, 10 * LINE, 2 * LINE), ("flush", None, 0, None), ("wvr",)]
        new, _old = assert_twins_agree(ops, wc_lines=8)
        assert new.link.posted_writes_issued == 1 + 2 + 3 + 2 + 4

    def test_a_gap_in_a_one_line_range_masks_it_in_place(self):
        ops = [("store", 0, 3 * LINE + 20, b"middle"),
               ("store", 0, 8 * LINE, pattern(LINE)),
               ("store", 0, 3 * LINE + 40, b"behind")]
        new, _old = twins()
        new.run_ops(ops)
        assert shapes(new) == [(3, 1, True), (8, 1, False)]
        assert_twins_agree(ops + [("store", 0, 3 * LINE, pattern(LINE, 4)),   # whole again
                                  ("flush", None, 0, None), ("wvr",)])

    def test_stores_touching_the_ragged_ends_of_an_older_extent(self):
        """Bytes that touch or overlap a ragged end grow the range in place,
        whichever side and however old the extent."""
        ops = [
            ("store", 0, 2 * LINE + 30, pattern(34 + LINE + 20)),   # lines 2..4, ragged
            ("store", 1, 0, pattern(LINE, 1)),                      # a younger extent
            ("store", 0, 2 * LINE + 20, pattern(10, 2)),            # touches the start
            ("store", 0, 4 * LINE + 20, pattern(10, 3)),            # touches the end
            ("store", 0, 2 * LINE + 5, pattern(30, 4)),             # overlaps the start
            ("store", 0, 4 * LINE + 25, pattern(39, 5)),            # overlaps, fills line 4
            ("store", 0, 2 * LINE - 8, pattern(13, 6)),             # fresh line 1 + start
        ]
        new, _old = twins(wc_lines=8, regions=2)
        new.run_ops(ops)
        assert ranges(new) == [(2, 3, 0, 3 * LINE), (0, 1, 0, LINE), (1, 1, LINE - 8, 8)]
        assert_twins_agree(ops + [("store", 1, 9 * LINE, pattern(6 * LINE, 7)),  # evicts
                                  ("advance", 45 * NSEC), ("read", 0, 2 * LINE, LINE),
                                  ("flush", None, 0, None), ("wvr",)],
                           wc_lines=8, regions=2)

    def test_range_flush_cuts_a_ragged_extent_on_both_sides(self):
        ops = [
            ("store", 0, LINE + 50, pattern(14 + 6 * LINE + 9)),    # lines 1..8, ragged
            ("flush", 0, 3 * LINE + 10, 2 * LINE),                  # lines 3, 4, 5 leave
        ]
        new, _old = twins(wc_lines=10)
        new.run_ops(ops)
        assert ranges(new) == [(1, 2, 50, 14 + LINE), (6, 3, 0, 2 * LINE + 9)]
        assert_twins_agree(ops + [("flush", 0, LINE, 1),            # the short first line
                                  ("flush", 0, 8 * LINE + 60, 1),   # the short last line
                                  ("advance", 10 * NSEC), ("read", 0, LINE, LINE),
                                  ("flush", None, 0, None), ("wvr",)], wc_lines=10)

    # A run of a 24-byte first TLP, five full ones and a 10-byte last one.
    RAGGED = (40, 24 + 5 * LINE + 10)

    def ragged_twins(self):
        offset, size = self.RAGGED
        hosts = twins(wc_lines=8)
        for host in hosts:
            host.post(pattern(size), offset)
        new, old = hosts
        keys = new.landings()
        assert keys == old.landings() and len(keys) == 7 and keys == sorted(set(keys))
        assert [len(run) for run in new.link._inflight] == [7]
        return new, old, keys

    @pytest.mark.parametrize("landed", [1, 6], ids=["after-short-first", "before-short-last"])
    @pytest.mark.parametrize("event", ["read", "power_loss", "purge"])
    def test_cut_between_a_short_tlp_and_the_body(self, landed, event):
        offset, size = self.RAGGED
        new, old, keys = self.ragged_twins()
        when = keys[landed - 1] + (keys[landed] - keys[landed - 1]) / 2
        nbytes = 24 + (landed - 1) * LINE
        expected = (bytes(offset) + pattern(size)[:nbytes]
                    + bytes(REGION_BYTES - offset - nbytes))
        for host in (new, old):
            host.engine.run(until=when)
            if event == "read":
                assert host.region.read(0, 8 * LINE) == expected[:8 * LINE]
            elif event == "power_loss":
                host.link.power_loss()
            else:
                host.engine.purge()
        if event == "read":
            assert new.link.in_flight == 7 - landed
            assert new.link._inflight[0].offset == offset + nbytes
        else:
            assert new.link.in_flight == 0
            assert new.link.posted_writes_lost == 7 - landed
            assert new.region.snapshot() == old.region.snapshot() == expected
        for host in (new, old):
            host.engine.run()
        if event == "read":
            expected = bytes(offset) + pattern(size) + bytes(REGION_BYTES - offset - size)
        assert new.region.snapshot() == old.region.snapshot() == expected
        if event != "purge":    # the oracle's purged TLPs are never counted
            assert new.observe() == old.observe()
            assert new.link.posted_writes_lost == old.link.posted_writes_lost


# -- losing in-flight TLPs ----------------------------------------------------------


def landed_by(keys, when):
    return sum(1 for key in keys if key <= when)


class TestPowerLossAndPurge:
    LINES = 20

    def burst(self, host, salt=0):
        data = pattern(self.LINES * LINE, salt=salt)
        host.post(data)
        return data

    def test_power_loss_mid_burst_keeps_the_landed_prefix(self):
        new, old = twins(wc_lines=2)
        data = self.burst(new)
        self.burst(old)
        keys = new.landings()
        crash = keys[7] + 1 * NSEC
        landed = landed_by(keys, crash)
        assert 0 < landed < self.LINES
        for host in (new, old):
            host.engine.run(until=crash)
            host.link.power_loss()
        # Counted at the instant of loss, not when a dead event would fire.
        assert new.link.posted_writes_lost == self.LINES - landed
        assert new.link.in_flight == 0
        expected = data[:landed * LINE] + bytes(REGION_BYTES - landed * LINE)
        assert new.region.snapshot() == expected
        # The no-purge path (power_cycle) reaches the same total and bytes.
        for host in (new, old):
            host.engine.run()
        assert old.link.posted_writes_lost == self.LINES - landed
        assert new.link.posted_writes_lost == self.LINES - landed
        assert new.region.snapshot() == old.region.snapshot() == expected
        assert new.observe() == old.observe()

    def test_link_serves_again_after_power_loss(self):
        new, old = twins(wc_lines=2)
        for host in (new, old):
            self.burst(host)
            host.engine.run(until=host.landings()[3])
            host.link.power_loss()
            host.cpu.power_loss()
            host.run_ops([("store", 0, 30 * LINE, pattern(5 * LINE, salt=8)),
                          ("flush", 0, 0, None), ("wvr",)])
            host.engine.run()
        assert new.observe() == old.observe()
        assert new.landings() == old.landings()

    def test_purge_on_a_shared_engine_kills_a_healthy_nodes_unlanded_tlps(self):
        """ClusterCrashHarness purges one engine shared by every node:
        a healthy node's landed TLPs stay, its un-landed ones die."""
        results = {}
        for oracle in (False, True):
            engine = Engine()
            victim = Host(oracle, wc_lines=2, engine=engine)
            healthy = Host(oracle, wc_lines=2, engine=engine)
            self.burst(victim, salt=1)
            data = self.burst(healthy, salt=2)
            keys = healthy.landings()
            crash = keys[9] + 1 * NSEC
            landed = landed_by(keys, crash)
            engine.run(until=crash)
            victim.cpu.power_loss()
            victim.link.power_loss()
            engine.purge()
            expected = data[:landed * LINE] + bytes(REGION_BYTES - landed * LINE)
            assert healthy.region.snapshot() == expected
            engine.run()
            assert healthy.region.snapshot() == expected
            results[oracle] = (victim.region.snapshot(), healthy.region.snapshot(),
                               healthy.link._down_free_at,
                               healthy.link.pending_posted_until)
            if not oracle:
                assert healthy.link.in_flight == 0
                assert healthy.link.posted_writes_lost == self.LINES - landed
        assert results[False] == results[True]

    def test_crash_harness_counts_lost_posted_writes(self):
        """Bugfix: the harness purges right after power_loss(), so a lost
        TLP's landing event never fired and the counter never moved."""
        platform = Platform(seed=3)
        engine, api, link = platform.engine, platform.api, platform.link
        entry = engine.run_process(api.ba_pin(0, 0, 300, 4 * 4096))
        engine.run()
        params = link.params
        per_tlp = params.tlp_overhead + LINE / params.bandwidth_bytes_per_sec
        crash_after = params.propagation + 20.5 * per_tlp  # 20 landed, 21st not

        def workload():
            yield engine.process(api.cpu.wc_store(api.region, entry.offset,
                                                  pattern(60 * LINE)))

        issued_before = link.posted_writes_issued
        CrashHarness(platform).crash_at(crash_after, workload())
        issued = link.posted_writes_issued - issued_before
        assert issued == 60 - platform.cpu.params.wc_buffer_lines
        assert link.posted_writes_lost == issued - 20
        assert link.in_flight == 0


# -- device-side writes racing in-flight TLPs ---------------------------------------


class TestRacingDeviceWrites:
    """The device loads pinned pages into BA DRAM with ``dram.write`` while
    host TLPs to the same line may be on the wire: time order decides."""

    def race(self, write_at_key, expect_tlp_wins):
        outcomes = []
        for host in twins(wc_lines=2):
            host.post(pattern(8 * LINE))
            keys = host.landings()
            line = 3
            when = keys[line] + write_at_key
            host.engine.run(until=when)
            host.region.write(line * LINE, b"\xee" * LINE)
            host.engine.run()
            outcomes.append(host.region.snapshot())
            winner = pattern(8 * LINE)[line * LINE:(line + 1) * LINE] \
                if expect_tlp_wins else b"\xee" * LINE
            assert host.region.read(line * LINE, LINE) == winner
        assert outcomes[0] == outcomes[1]

    def test_device_write_before_the_landing_is_overwritten_by_the_tlp(self):
        self.race(-5 * NSEC, expect_tlp_wins=True)

    def test_device_write_after_the_landing_survives_the_burst_wakeup(self):
        # Line 3 has landed but the burst's single wake-up is still ahead:
        # settle-before-write is what keeps the later device write on top.
        self.race(+5 * NSEC, expect_tlp_wins=False)


# -- the region.write seam --------------------------------------------------------------


def test_deposits_go_through_region_write_in_order_and_settle_is_reentrant():
    """An instance-level ``region.write`` wrapper (how the ordering tests
    watch landings) sees every deposit once, in issue order, even though
    the real ``write`` calls back into ``settle``."""
    host = Host(oracle=False, wc_lines=2)
    seen = []
    original = host.region.write

    def tracking(offset, data):
        seen.append((offset, bytes(data)))
        original(offset, data)

    host.region.write = tracking
    first, second = pattern(LINE, salt=1), pattern(LINE, salt=2)
    # Two TLPs to the same line in one burst, then a run behind them.
    host.link.posted_burst([(LINE, host.region, 0, first),
                            (LINE, host.region, 0, second),
                            (LINE, host.region, LINE, pattern(3 * LINE))])
    host.engine.run()
    assert [offset for offset, _ in seen] == [0, 0, LINE]
    assert seen[0][1] == first and seen[1][1] == second
    assert host.region.read(0, LINE) == second


def test_burst_costs_one_kernel_event():
    host = Host(oracle=False, wc_lines=2)
    before = host.engine._sequence
    host.link.posted_burst([(LINE, host.region, 0, pattern(30 * LINE))])
    assert host.engine._sequence == before + 1
    assert host.link.posted_writes_issued == 30
    assert host.link.in_flight == 30


def test_malformed_run_rejected():
    host = Host(oracle=False)
    with pytest.raises(ValueError, match="run of"):
        host.link.posted_burst([(LINE, host.region, 0, b"")])
    # Bugfix: a bad entry behind a good one used to raise with the good one
    # already in flight (and no wake-up scheduled for it).  The whole burst
    # is checked before any of it is issued.
    taken = ByteRegion("taken", REGION_BYTES)
    PcieLink(host.engine).posted_burst([(LINE, taken, 0, pattern(LINE))])
    host.engine.run()
    link, engine = host.link, host.engine

    def state():
        backing = host.region._data  # its contents, without a settle
        return (link._down_free_at, link.pending_posted_until,
                link.posted_writes_issued, link.posted_writes_lost,
                link.in_flight, len(link._inflight),
                host.region._inbound, None if backing is None else backing[:],
                engine.now, engine._sequence, len(engine._queue),
                engine.quiescent())

    before = state()
    # Bugfix: an entry overrunning its region used to be accepted, and its
    # deposit raised later from inside the wake-up, in whoever was pumping
    # the kernel, stranding the entry behind it in flight.  A ragged payload
    # is a run now, so out of range is what is left of "not a run".
    for match, bad in (("outside region", (LINE, host.region, REGION_BYTES - LINE // 2,
                                           b"x" * LINE)),
                       ("outside region", (LINE, host.region, -LINE, b"x" * LINE)),
                       ("run of", (LINE, host.region, LINE, b"")),
                       ("run of", (0, host.region, LINE, b"x")),
                       ("another link", (LINE, taken, 0, pattern(LINE)))):
        with pytest.raises(ValueError, match=match):
            link.posted_burst([(LINE, host.region, 0, pattern(LINE)), bad,
                               (LINE, host.region, 2 * LINE, pattern(LINE))])
        assert state() == before
    engine.run()
    assert host.region.snapshot() == bytes(REGION_BYTES)


def test_link_delays_cannot_be_negative():
    """One wake-up at the *last* landing relies on keys never decreasing
    within a burst, i.e. on the wire never running backwards."""
    for field in ("tlp_overhead", "propagation"):
        with pytest.raises(ValueError, match="link delays"):
            PcieParams(**{field: -1 * NSEC})


def test_region_takes_posted_writes_from_one_link_only():
    host = Host(oracle=False)
    host.link.posted_burst([(LINE, host.region, 0, pattern(LINE))])
    other = PcieLink(host.engine)
    with pytest.raises(ValueError, match="another link"):
        other.posted_burst([(LINE, host.region, 0, pattern(LINE))])


# -- arbitrary sequences ------------------------------------------------------------------


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 1),
                  st.integers(0, REGION_BYTES - 6 * LINE),
                  st.binary(min_size=1, max_size=6 * LINE)),
        st.tuples(st.just("store"), st.integers(0, 1),
                  st.integers(0, 40).map(lambda line: line * LINE),
                  st.integers(1, 20).map(lambda lines: pattern(lines * LINE))),
        st.tuples(st.just("append"), st.integers(0, 1),
                  st.binary(min_size=1, max_size=6 * LINE)),
        st.tuples(st.just("flush"), st.sampled_from([None, 0, 1]),
                  st.integers(0, REGION_BYTES - 1),
                  st.one_of(st.none(), st.integers(0, 8 * LINE))),
        st.tuples(st.just("read"), st.integers(0, 1),
                  st.integers(0, REGION_BYTES - 2 * LINE), st.integers(0, 2 * LINE)),
        st.tuples(st.just("devwrite"), st.integers(0, 1),
                  st.integers(0, REGION_BYTES - LINE),
                  st.binary(min_size=1, max_size=LINE)),
        st.tuples(st.just("advance"),
                  st.integers(0, 400).map(lambda ns: ns * NSEC)),
        st.just(("wvr",)),
        st.just(("power_loss",)),
    ),
    min_size=1, max_size=30,
)


POOLS = st.sampled_from([1, 2, 3, 4, 5, 6, 10])


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS, POOLS)
def test_any_sequence_matches_the_oracle(ops, wc_lines):
    assert_twins_agree(ops, wc_lines=wc_lines, regions=2)


@pytest.mark.soak
def test_any_sequence_matches_the_oracle_over_3000_examples():
    check = test_any_sequence_matches_the_oracle.hypothesis.inner_test
    settings(max_examples=3000, deadline=None, derandomize=True,
             suppress_health_check=[HealthCheck.too_slow])(given(OPS, POOLS)(check))()


# -- the link alone: any entry is cut at line boundaries ---------------------------------


BURSTS = st.lists(
    st.one_of(
        st.tuples(st.just("burst"), st.lists(
            st.tuples(st.integers(0, REGION_BYTES - 1), st.integers(1, 6 * LINE)),
            min_size=1, max_size=5)),
        st.tuples(st.just("advance"), st.integers(0, 400).map(lambda ns: ns * NSEC)),
        st.just(("power_loss",)),
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(BURSTS)
def test_any_entry_lands_as_its_per_line_pieces(steps):
    """``(LINE, region, offset, payload)`` for any offset and length against
    the oracle posting the same bytes one per-line piece at a time."""
    new, old = twins()
    salt = 0
    for step in steps:
        if step[0] == "burst":
            entries = []
            for offset, length in step[1]:
                salt += 1
                data = pattern(min(length, REGION_BYTES - offset), salt)
                entries.append((LINE, new.region, offset, data))
                while data:
                    piece, data = data[:LINE - offset % LINE], data[LINE - offset % LINE:]
                    old.link.posted_write(
                        len(piece), deposit=lambda offset=offset, piece=piece:
                        old.region.write(offset, piece))
                    offset += len(piece)
            new.link.posted_burst(entries)
        elif step[0] == "advance":
            for host in (new, old):
                host.engine.run(until=host.engine.now + step[1])
        else:
            for host in (new, old):
                host.link.power_loss()
        assert new.observe() == old.observe()
        assert new.landings() == old.landings()
    for host in (new, old):
        host.engine.run()
    assert new.observe() == old.observe()
    assert new.link.posted_writes_lost == old.link.posted_writes_lost
    assert new.link.in_flight == 0
