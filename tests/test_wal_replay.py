"""``WriteAheadLog.replay`` against the copy-based ``recover`` it replaced.

Every backend used to turn its log into a full ``[(lsn, payload)]`` list
— each payload copied — before any consumer applied a record of it.  Now
each hands records to ``apply`` while the segment holding them is live,
and ``recover`` is a wrapper that collects a list.

The ``recover`` bodies as they were are kept below, verbatim, as the
oracle: ``BaWAL``'s (with its ``_stitch``), ``BlockWAL``'s and ``PmWAL``'s,
each with the record scanner it used.  For each backend (and
``ReplicatedBaWAL``, which forwards to its primary) a derandomized
property demands the same ``(lsn, bytes)`` sequence and the same
simulated duration, over torn tails, starts mid-segment / inside a
record / at the tail, and the wrapped every-slot fallback; the chain
that replaced ``_stitch`` takes its four boundary shapes and a hole.  Then each of the four consumers (LSM tree,
relational engine, ``MemKV``, gateway) writes, loses power, reopens, and
compares every key with a reopen that replays the oracle's list.  Last, a
consumer that keeps a payload view past its call fails loudly.
"""

import struct
import sys
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import DevicePool
from repro.core import BaParams, CrashHarness
from repro.db.lsm import SSTable
from repro.db.lsm.memtable import MemTable
from repro.db.lsm.tree import decode_kv
from repro.db.memkv import MemKV
from repro.db.memkv.commands import apply, decode_command
from repro.db.relational import RelationalEngine
from repro.db.relational.codec import unpack_obj
from repro.gateway import GatewayConfig, GatewayServer
from repro.gateway.driver import GatewayLoad
from repro.sim.units import KiB, USEC
from repro.ssd import ULL_SSD
from repro.wal import BaWAL, BlockWAL, PmWAL
from repro.wal.record import RECORD_HEADER_BYTES, RecordFormatError, peek_header
from tests.helpers import Platform, dual_path_lsm, small_ba_params
from tests.test_wal_recover_oracle import (
    AREAS, OPS, SEGMENT, STARTS, make, resolve, run_ops)

pytestmark = pytest.mark.oracle

HEADER = RECORD_HEADER_BYTES
PAGE = 4096
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


# -- the replaced implementations, kept as the oracle -----------------------------

_HEADER = struct.Struct("<HIQI")
_MAGIC = 0xB10C


def oracle_decode_record(buffer, offset=0):
    """``repro.wal.record.decode_record`` as it was."""
    if offset + RECORD_HEADER_BYTES > len(buffer):
        raise RecordFormatError("truncated header")
    magic, length, lsn, crc = _HEADER.unpack_from(buffer, offset)
    if magic != _MAGIC:
        raise RecordFormatError(f"bad magic {magic:#x} at offset {offset}")
    start = offset + RECORD_HEADER_BYTES
    if start + length > len(buffer):
        raise RecordFormatError("truncated payload")
    payload = bytes(buffer[start:start + length])
    expected = zlib.crc32(payload, zlib.crc32(lsn.to_bytes(8, "little")))
    if crc != expected:
        raise RecordFormatError(f"crc mismatch at offset {offset} (torn write)")
    return lsn, payload, start + length


def oracle_scan_run(records, buffer, start_lsn, keep_from):
    """``repro.wal.record.scan_run`` as it was: kept payloads copied."""
    offset = 0
    expected_lsn = start_lsn
    with memoryview(buffer) as view:
        size = len(view)
        while offset + RECORD_HEADER_BYTES <= size:
            magic, length, lsn, crc = _HEADER.unpack_from(view, offset)
            start = offset + RECORD_HEADER_BYTES
            end = start + length
            if magic != _MAGIC or end > size or lsn != expected_lsn:
                break
            if crc != zlib.crc32(view[start:end],
                                 zlib.crc32(lsn.to_bytes(8, "little"))):
                break  # torn
            if lsn >= keep_from:
                records.append((lsn, view[start:end].tobytes()))
            offset = end
            expected_lsn = start_lsn + end
    return expected_lsn


def ba_recover(self, start_lsn=0):
    """``BaWAL.recover`` as it was (``self`` is the ``BaWAL``)."""
    segments = self.area_pages // self.segment_pages
    first = start_lsn // self.segment_bytes
    collected = []
    for number in range(first, first + segments):
        base = number * self.segment_bytes
        lpn = self.start_lpn + number % segments * self.segment_pages
        anchored = ba_scan_pinned(self, collected, lpn, base, start_lsn)
        if anchored is not None:
            yield self.engine.timeout(self.api.params.entry_info_latency)
        else:
            image = yield from self._read(
                lpn, self.page_size, "wal.ba.recover.slots_probed")
            if peek_header(image) != base:
                break
            # A background recycle may have re-pinned the slot
            # while the probe was in flight.
            anchored = ba_scan_pinned(self, collected, lpn, base, start_lsn)
            if anchored is None:
                if self.segment_pages > 1:
                    image += yield from self._read(
                        lpn + 1, self.segment_bytes - self.page_size,
                        "wal.ba.recover.segments_read")
                anchored = ba_scan_anchored(collected, image, base, start_lsn)
        if not anchored:
            break
    if all(lsn != start_lsn for lsn, _p in collected):
        collected = yield from ba_scan_every_slot(self, start_lsn)
    return ba_stitch(self, collected, start_lsn)


def ba_scan_every_slot(self, keep_from):
    collected = []
    for slot in range(self.area_pages // self.segment_pages):
        lpn = self.start_lpn + slot * self.segment_pages
        if ba_scan_pinned(self, collected, lpn, None, keep_from) is not None:
            yield self.engine.timeout(self.api.params.entry_info_latency)
        else:
            image = yield from self._read(
                lpn, self.segment_bytes, "wal.ba.recover.segments_read")
            ba_scan_anchored(collected, image, None, keep_from)
    collected.sort(key=lambda item: item[0])
    return collected


def ba_scan_pinned(self, records, lpn, base, keep_from):
    overlay = self.device.mapping_table.pinned_lba_overlap(
        lpn, self.segment_pages)
    if overlay is None or overlay.lba != lpn:
        return None
    with self.device.ba_dram.view(overlay.offset,
                                  self.segment_bytes) as image:
        return ba_scan_anchored(records, image, base, keep_from)


def ba_scan_anchored(records, image, base, keep_from):
    if base is None:
        base = peek_header(image)
        if base is None:
            return False
    return oracle_scan_run(records, image, base, keep_from) != base


def ba_stitch(self, records, start_lsn):
    result = []
    expected = start_lsn
    if records and all(lsn != start_lsn for lsn, _p in records):
        boundaries = [lsn for lsn, _p in records
                      if lsn >= start_lsn and lsn % self.segment_bytes == 0]
        if boundaries:
            expected = min(boundaries)
    for lsn, payload in records:
        if lsn < expected:
            continue
        if lsn == expected:
            result.append((lsn, payload))
            expected = lsn + RECORD_HEADER_BYTES + len(payload)
            continue
        next_segment_base = (
            -(-expected // self.segment_bytes) * self.segment_bytes)
        if lsn == next_segment_base:
            result.append((lsn, payload))
            expected = lsn + RECORD_HEADER_BYTES + len(payload)
        else:
            break
    return result


def block_recover(self, start_lsn=0):
    """``BlockWAL.recover`` as it was."""
    records = []
    buffer = bytearray()
    scan_offset = 0
    expected = start_lsn
    page = start_lsn // self.page_size
    chunk_pages = 32
    stopped = False
    while not stopped and page < start_lsn // self.page_size + self.area_pages:
        npages = min(chunk_pages, self.area_pages - page % self.area_pages)
        data = yield from self.device.read(self._page_lpn(page), npages * self.page_size)
        buffer.extend(data)
        page += npages
        base = start_lsn - (start_lsn % self.page_size)
        while True:
            absolute = base + scan_offset
            if absolute < expected:
                scan_offset = expected - base
                continue
            try:
                lsn, payload, next_offset = oracle_decode_record(buffer, scan_offset)
            except RecordFormatError:
                if len(buffer) - scan_offset >= 16 * self.page_size:
                    stopped = True
                break
            if lsn != expected:
                stopped = True
                break
            records.append((lsn, payload))
            expected = base + next_offset
            scan_offset = next_offset
    return records


def pm_recover(self, start_lsn=0):
    """``PmWAL.recover`` as it was."""
    records = []
    expected = start_lsn
    drained = self._drained
    tail = self._tail
    while expected < tail:
        if expected >= drained:
            source = self._ring_read(expected, tail - expected)
        else:
            stream_page = expected // self.page_size
            lpn = self.start_lpn + stream_page % self.area_pages
            npages = min(32, self.area_pages - stream_page % self.area_pages)
            raw = yield from self.device.read(lpn, npages * self.page_size)
            source = raw[expected % self.page_size:]
            chunk_end = (stream_page + npages) * self.page_size
            if chunk_end > drained:
                source = (source[:drained - expected]
                          + self._ring_read(drained, tail - drained))
        progressed = False
        offset = 0
        while True:
            try:
                lsn, payload, next_offset = oracle_decode_record(source, offset)
            except RecordFormatError:
                break
            if lsn != expected:
                break
            records.append((lsn, payload))
            expected += next_offset - offset
            offset = next_offset
            progressed = True
        if not progressed:
            break
    return records


ORACLES = {BaWAL: ba_recover, BlockWAL: block_recover, PmWAL: pm_recover}


def oracle_recover(wal, start_lsn=0):
    """Process: the oracle of ``wal``'s backend (a stream's primary's)."""
    primary = getattr(wal, "primary", None)
    if primary is not None:
        wal = primary.wal
    return (yield from ORACLES[type(wal)](wal, start_lsn))


# -- harness -----------------------------------------------------------------------


def replayed(engine, wal, start_lsn):
    """What ``replay`` hands over, as ``(lsn, bytes)``, and its duration."""
    got = []
    began = engine.now
    engine.run_process(wal.replay(
        start_lsn, lambda lsn, payload: got.append((lsn, bytes(payload)))))
    return got, engine.now - began


def agree(engine, wal, start_lsn=0):
    """``replay`` and the oracle over the same device state: the same
    records and the same simulated time (up to the rounding of two start
    instants).  Returns the records."""
    got, took = replayed(engine, wal, start_lsn)
    began = engine.now
    want = engine.run_process(oracle_recover(wal, start_lsn))
    assert abs(engine.now - began - took) < 1e-15
    assert got == want
    return got


def starts_to_try(starts, tail, pick):
    """A record start, a byte inside a record, 0, the tail, past it."""
    choices = [0, tail, tail + 1 + pick % 5000]
    if starts:
        start = starts[pick % len(starts)]
        choices += [start, start + 1 + pick % HEADER]
    return choices


# -- BaWAL ---------------------------------------------------------------------------


@SETTINGS
@given(OPS, st.lists(STARTS, min_size=1, max_size=3), AREAS)
def test_ba_replay_matches_the_oracle(ops, start_picks, area_pages):
    platform, wal, starts = run_ops(ops, area_pages)
    fresh = BaWAL(platform.engine, platform.api, start_lpn=wal.start_lpn,
                  area_pages=wal.area_pages)
    for pick in start_picks:
        agree(platform.engine, fresh, resolve(pick, starts, wal))
    platform.power.power_cycle()
    for pick in start_picks:
        agree(platform.engine, fresh, resolve(pick, starts, wal))


class TestBaDirected:
    def test_wrapped_area_takes_the_fallback(self):
        platform, wal = make(area_pages=8)
        engine = platform.engine

        def fill():
            for index in range(60):
                end = yield from wal.append(bytes([index]) * 700)
                yield from wal.commit(end)

        engine.run_process(fill())
        engine.run()
        assert wal.tail_lsn > 8 * PAGE  # the area wrapped
        records = agree(engine, wal, 0)
        assert records and records[0][0] % SEGMENT == 0 and records[0][0] > 0

    @pytest.mark.parametrize("crash_us", [5, 40, 150])
    def test_torn_tail(self, crash_us):
        platform, wal = make(seed=crash_us)

        def workload():
            for index in range(300):
                payload = b"%05d" % index + b"." * (41 * index % 900)
                end = yield from wal.append(payload)
                yield from wal.commit(end)

        CrashHarness(platform).crash_at(crash_us * USEC, workload())
        fresh = BaWAL(platform.engine, platform.api, area_pages=wal.area_pages)
        assert agree(platform.engine, fresh, 0)


def chain(wal, records, start_lsn):
    out = []
    wal._chain_sorted(records, start_lsn,
                      lambda lsn, payload: out.append((lsn, bytes(payload))))
    return out


@pytest.mark.parametrize("records, keep", [
    ([(0, b"x" * (SEGMENT - HEADER)), (2 * SEGMENT, b"later")], 1),
    ([(0, b"x" * (SEGMENT - HEADER)), (SEGMENT, b"next")], 2),
    ([(0, b"x" * (SEGMENT // 2)), (SEGMENT, b"after the padding")], 2),
    ([(0, b"x" * (SEGMENT // 2)), (2 * SEGMENT, b"too far")], 1),
    ([(0, b"x" * 100), (HEADER + 164, b"hole"), (SEGMENT, b"unreachable")], 1),
], ids=["exact-fill-then-hole", "exact-fill-then-next", "padding-jump",
        "never-two-jumps", "nothing-after-a-hole"])
def test_the_chain_keeps_the_stitch_boundary_rule(records, keep):
    wal = make(start=False)[1]
    assert chain(wal, records, 0) == ba_stitch(wal, records, 0) == records[:keep]


# -- BlockWAL and PmWAL --------------------------------------------------------------


def block_wal(area_pages):
    platform = Platform()
    device = platform.add_block_ssd(ULL_SSD)
    wal = BlockWAL(platform.engine, device, platform.cpu, area_pages=area_pages)
    wal.low_water_lsn = sys.maxsize  # the area may wrap: what survives is the test
    return platform, wal


def pm_wal(area_pages):
    platform = Platform()
    device = platform.add_block_ssd(ULL_SSD)
    wal = PmWAL(platform.engine, device, platform.cpu, pm_bytes=4 * PAGE,
                area_pages=area_pages)
    wal.low_water_lsn = sys.maxsize
    return platform, wal


# Record sizes that straddle 32-page chunks, the 16-page rule and PM pages.
SIZES = st.lists(st.one_of(st.integers(0, 300), st.integers(3000, 9000),
                           st.integers(60_000, 140_000)),
                 min_size=1, max_size=14)


def log_block(platform, wal, sizes, crash_us):
    """Append + commit ``sizes`` until a power cut at ``crash_us`` (never
    when None); returns each record's start LSN that was appended."""
    starts = []

    def workload():
        for index, size in enumerate(sizes):
            end = yield from wal.append(bytes([index % 251 + 1]) * size)
            starts.append(end - HEADER - size)
            yield from wal.commit(end)

    if crash_us is None:
        platform.engine.run_process(workload())
        platform.engine.run()
    else:
        CrashHarness(platform).crash_at(crash_us * USEC, workload())
    return starts


@SETTINGS
@given(SIZES, st.sampled_from([64, 96, 4096]),
       st.one_of(st.none(), st.integers(1, 3000)), st.integers(0, 10_000))
def test_block_replay_matches_the_oracle(sizes, area_pages, crash_us, pick):
    platform, wal = block_wal(area_pages)
    if sum(sizes) + HEADER * len(sizes) > area_pages * PAGE - 200_000:
        sizes = sizes[:2]  # keep the test about scans, not about wrapping
    starts = log_block(platform, wal, sizes, crash_us)
    for start in starts_to_try(starts, wal.tail_lsn, pick):
        agree(platform.engine, wal, start)


@SETTINGS
@given(SIZES, st.one_of(st.none(), st.integers(1, 3000)),
       st.integers(0, 10_000))
def test_pm_replay_matches_the_oracle(sizes, crash_us, pick):
    platform, wal = pm_wal(4096)
    sizes = [min(size, 3 * PAGE) for size in sizes]  # a record fits the PM
    starts = log_block(platform, wal, sizes, crash_us)
    for start in starts_to_try(starts, wal.tail_lsn, pick):
        agree(platform.engine, wal, start)


def test_block_replay_of_a_wrapped_area():
    platform, wal = block_wal(64)
    starts = log_block(platform, wal, [5000] * 80, None)
    assert wal.tail_lsn > 64 * PAGE
    for start in (0, starts[-30], starts[-1], starts[-1] + 7, wal.tail_lsn):
        agree(platform.engine, wal, start)


def test_pm_replay_across_the_drain_point():
    platform, wal = pm_wal(4096)
    engine = platform.engine

    def workload():
        for index in range(40):
            yield from wal.append(bytes([index + 1]) * 1500)

    engine.run_process(workload())  # the flusher is mid-drain at return
    assert wal.drained_lsn < wal.tail_lsn
    records = agree(engine, wal, 0)
    assert len(records) == 40


# -- ReplicatedBaWAL -----------------------------------------------------------------


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 6000), min_size=1, max_size=30),
       st.booleans(), st.integers(0, 10_000))
def test_replicated_replay_matches_the_oracle(sizes, cycle, pick):
    pool = DevicePool(devices=3, seed=23, ba_params=BaParams(buffer_bytes=64 * KiB),
                      area_pages=64)
    engine = pool.engine
    stream = engine.run_process(pool.open_stream("wal0", replicas=2))
    stream.low_water_lsn = sys.maxsize
    starts = []

    def workload():
        for index, size in enumerate(sizes):
            end = yield from stream.append(bytes([index % 251]) * size)
            starts.append(end - HEADER - size)
            yield from stream.commit(end)

    engine.run_process(workload())
    engine.run()
    if cycle:
        for node in pool.nodes.values():
            node.platform.power.power_cycle()
    for start in starts_to_try(starts, stream.tail_lsn, pick):
        assert agree(engine, stream, start) == agree(engine, stream.primary.wal, start)


# -- the four consumers: write, lose power, reopen, compare every key -----------------


def lsm_oracle_recover(self):
    """``LSMTree.recover`` as it was, over the oracle's list."""
    manifest = yield from self.storage.read_manifest()
    self._active = MemTable()
    self._immutable = None
    self._l0 = []
    self._l1 = []
    self._wal_start = 0
    if manifest is not None:
        self._wal_start = manifest.get("wal_start", 0)
        l0_ids = list(manifest.get("l0", []))
        l1_ids = list(manifest.get("l1", []))
        blobs = yield from self.storage.read_tables(l0_ids + l1_ids)
        for file_id, blob in zip(l0_ids, blobs):
            self._l0.append(SSTable.decode(blob, file_id=file_id))
        for file_id, blob in zip(l1_ids, blobs[len(l0_ids):]):
            self._l1.append(SSTable.decode(blob, file_id=file_id))
    records = yield from oracle_recover(self.wal, self._wal_start)
    replayed = 0
    for lsn, payload in records:
        if lsn < self._wal_start:
            continue
        key, value = decode_kv(payload)
        self._active.insert(key, value)
        replayed += 1
    self.wal.low_water_lsn = self._wal_start
    return replayed


def test_lsm_reopens_to_the_oracle_state():
    platform = Platform(seed=3)
    engine = platform.engine
    tree = dual_path_lsm(platform, platform.rng.fork("lsm"),
                         memtable_bytes=8 * 1024)
    keys = [f"k{index % 150:03d}" for index in range(900)]

    def load():
        for index, key in enumerate(keys):
            if index % 7 == 3:
                yield from tree.delete(key)
            else:
                yield from tree.put(key, bytes([index % 251]) * (index % 300))

    engine.run_process(load())
    engine.run()
    assert tree.compaction_count >= 1
    platform.power.power_cycle()
    ours = dual_path_lsm(platform, platform.rng.fork("a"), start_wal=False)
    theirs = dual_path_lsm(platform, platform.rng.fork("b"), start_wal=False)
    replayed = engine.run_process(ours.recover())
    assert replayed and replayed == engine.run_process(lsm_oracle_recover(theirs))

    def read_all(which):
        values = []
        for key in sorted(set(keys)):
            values.append((yield from which.get(key)))
        return values

    assert engine.run_process(read_all(ours)) == engine.run_process(read_all(theirs))


def relational_oracle_recover(self, start_lsn=0):
    """``RelationalEngine.recover`` as it was, over the oracle's list."""
    records = yield from oracle_recover(self.wal, start_lsn)
    pending = {}
    committed = []
    for lsn, payload in records:
        entry = unpack_obj(payload)
        kind = entry["t"]
        if kind in ("put", "del"):
            pending.setdefault(entry["x"], []).append(entry)
        elif kind == "commit":
            committed.append((lsn, pending.pop(entry["x"], [])))
        elif kind == "abort":
            pending.pop(entry["x"], None)
    replayed = 0
    for _lsn, ops in committed:
        for entry in ops:
            table = self._tables.get(entry["tb"])
            if table is None:
                self.create_table(entry["tb"])
                table = self._tables[entry["tb"]]
            if entry["t"] == "put":
                table.index.insert(entry["k"], entry["r"])
            else:
                table.index.delete(entry["k"])
            replayed += 1
    return replayed


def test_relational_reopens_to_the_oracle_state():
    platform = Platform(ba_params=small_ba_params(64))
    engine = platform.engine
    device = platform.add_block_ssd(ULL_SSD)
    wal = BlockWAL(engine, device, platform.cpu, area_pages=8192)
    db = RelationalEngine(engine, wal)
    db.create_table("node")

    def load():
        for index in range(120):
            txn = db.begin()
            yield from db.insert(txn, "node", index % 40,
                                 {"n": index, "blob": b"r" * (index * 37 % 900)})
            if index % 5 == 2:
                yield from db.delete(txn, "node", (index + 11) % 40)
            if index % 9 == 4:
                yield from db.abort(txn)
            else:
                yield from db.commit(txn)
        txn = db.begin()  # logged, never committed
        yield from db.insert(txn, "node", 0, {"n": -1})

    engine.run_process(load())
    platform.power.power_cycle()
    ours, theirs = RelationalEngine(engine, wal), RelationalEngine(engine, wal)
    replayed = engine.run_process(ours.recover())
    assert replayed and replayed == engine.run_process(
        relational_oracle_recover(theirs))

    def read_all(which):
        rows = []
        for key in range(40):
            rows.append((yield from which.get("node", key)))
        return rows

    assert engine.run_process(read_all(ours)) == engine.run_process(read_all(theirs))


def memkv_oracle_recover(self, start_lsn=0):
    """``MemKV.recover`` as it was, over the oracle's list."""
    records = yield from oracle_recover(self.aof, start_lsn)
    self._data.clear()
    for _lsn, payload in records:
        command, key, value = decode_command(payload)
        apply(self._data, command, key, value)
    return len(records)


@pytest.mark.parametrize("backend", ["ba", "block", "pm"])
def test_memkv_reopens_to_the_oracle_state(backend):
    platform = Platform(ba_params=small_ba_params(64))
    engine = platform.engine
    if backend == "ba":
        wal = BaWAL(engine, platform.api, area_pages=4096, double_buffer=False)
        engine.run_process(wal.start())
    elif backend == "block":
        wal = BlockWAL(engine, platform.add_block_ssd(ULL_SSD), platform.cpu,
                       area_pages=4096)
    else:
        wal = PmWAL(engine, platform.add_block_ssd(ULL_SSD), platform.cpu,
                    pm_bytes=8 * PAGE, area_pages=4096)
    store = MemKV(engine, wal)

    def load():
        for index in range(400):
            key = f"k{index % 60}"
            if index % 11 == 5:
                yield from store.delete(key)
            elif index % 13 == 7:
                yield from store.incr(f"n{index % 3}")
            elif index % 4 == 1:
                yield from store.append(key, b"+" * (index % 50))
            else:
                yield from store.set(key, bytes([index % 251]) * (index * 29 % 3000))

    engine.run_process(load())
    if backend != "pm":  # a PM buffer survives: nothing to cycle away
        platform.power.power_cycle()
    if backend == "ba":
        wal = BaWAL(engine, platform.api, area_pages=4096, double_buffer=False)
    ours, theirs = MemKV(engine, wal), MemKV(engine, wal)
    replayed = engine.run_process(ours.recover())
    assert replayed == engine.run_process(memkv_oracle_recover(theirs)) > 300
    assert ours.snapshot() == theirs.snapshot()


def gateway_oracle_recover(server):
    """``GatewayServer.recover`` as it was: every shard's list, then the
    dicts (shard by shard; the state it builds is what is compared)."""
    engine = server.engine
    server._conns.clear()
    for shard in server.shards:
        shard.stream = server.pool.streams[shard.stream_name]
        shard.stream.respawn_workers()
    logs = [engine.run_process(oracle_recover(shard.stream))
            for shard in server.shards]
    for shard, records in zip(server.shards, logs):
        shard.data = {}
        applied = 0
        for lsn, payload in records:
            command, key, value = decode_command(bytes(payload))
            apply(shard.data, command, key, value)
            applied = lsn + RECORD_HEADER_BYTES + len(payload)
        shard.applied_lsn = applied
        server._spawn_shard_pipeline(shard)
    return len(server.shards)


def served_and_cycled():
    pool = DevicePool(devices=3, seed=77)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    load = GatewayLoad(server, value_bytes=3000, key_space=300)
    engine.run(until=engine.all_of(
        [engine.process(load.client(client_id, 120)) for client_id in range(6)]))
    engine.run()
    live = [dict(shard.data) for shard in server.shards]
    for node in pool.nodes.values():
        node.platform.power.power_cycle()
    return server, live


def test_gateway_reopens_to_the_oracle_state():
    ours, live = served_and_cycled()
    theirs, _live = served_and_cycled()
    assert ours.recover() == gateway_oracle_recover(theirs) == 3
    for mine, oracle, before in zip(ours.shards, theirs.shards, live):
        assert mine.data == oracle.data == before and mine.data
        assert mine.applied_lsn == oracle.applied_lsn > 0


# -- a payload kept past its call ----------------------------------------------------


@pytest.mark.parametrize("backend", ["ba-pinned", "ba-stored", "block", "pm"])
def test_a_kept_payload_view_fails_loudly(backend):
    """A view of device memory kept past ``apply`` would show whatever the
    BA-buffer holds next; the replay raises instead."""
    if backend.startswith("ba"):
        platform, wal = make()
        sizes = [700] * (3 if backend == "ba-pinned" else 30)
    elif backend == "block":
        platform, wal = block_wal(256)
        sizes = [700] * 30
    else:
        platform, wal = pm_wal(256)
        sizes = [700] * 30
    engine = platform.engine

    def workload():
        for index, size in enumerate(sizes):
            end = yield from wal.append(bytes([index + 1]) * size)
            yield from wal.commit(end)

    engine.run_process(workload())
    engine.run()
    kept = []
    with pytest.raises(BufferError):
        engine.run_process(wal.replay(0, lambda lsn, payload: kept.append(payload)))
    # Copying is the contract, and it replays cleanly.
    copies = []
    engine.run_process(wal.replay(
        0, lambda lsn, payload: copies.append(payload.tobytes())))
    assert copies == [bytes([index + 1]) * size
                      for index, size in enumerate(sizes)]
