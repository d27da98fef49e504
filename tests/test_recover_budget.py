"""Device reads of one ``BaWAL.recover``, pinned as exact counts.

Recovery reads the log, not the log area: what it may ask of the device
is fixed here as deltas of ``device.stats.reads`` / ``bytes_read`` across
one ``recover`` on fixed device states, so a scan that drifts back to
"every slot whatever was written" fails tier-1 instead of waiting for
``sim_recover_ms`` (``scripts/recover_cost.py`` prints the same counts
with the simulated milliseconds beside them).

Shape: a 64 KiB BA-buffer (32 KiB segments of eight pages) over a 16-slot
log area, 1 000-byte records (32 to a segment), power-cycled before every
recovery so only the device speaks:

* the live log sits in the two restored halves -> no device read at all;
  with a half still mid-flush at the power cut, one probe of one page;
* ``k`` sealed NAND segments + the halves -> ``k`` probes and ``k`` body
  reads (never more than ``k + 1`` probes), ``k * segment_bytes`` bytes;
* ``start_lsn`` in the last sealed segment -> one probe, one body;
* a wrapped log asked for an LSN the wrap ate -> the every-slot fallback:
  what the scan before cost, plus at most the one probe that found out.

Ceilings are budgets: lowering one after a real cut is the point, raising
one needs the reason in the commit that does it.
"""

import pytest

from repro.core import BaParams, CrashHarness
from repro.sim.units import KiB
from repro.wal import BaWAL
from repro.wal.record import RECORD_HEADER_BYTES
from tests.helpers import Platform
from tests.test_wal_recover_oracle import oracle_recover

pytestmark = pytest.mark.oracle

AREA_PAGES = 128
PAYLOAD = 1000
RECORD = RECORD_HEADER_BYTES + PAYLOAD
PER_SEGMENT = 32 * KiB // RECORD


def logged(records, power_cycle=True):
    platform = Platform(ba_params=BaParams(buffer_bytes=64 * KiB), seed=1)
    engine = platform.engine
    wal = BaWAL(engine, platform.api, area_pages=AREA_PAGES)
    engine.run_process(wal.start())

    def load():
        for index in range(records):
            end = yield from wal.append(bytes([index % 251]) * PAYLOAD)
            yield from wal.commit(end)
            # A consumer that truncates each record once it is committed,
            # so a long load may wrap the area.
            wal.low_water_lsn = end

    engine.run_process(load())
    engine.run()
    if power_cycle:
        platform.power.power_cycle()
    return platform, wal


def cost(platform, recover, start_lsn=0):
    """(records, device reads, bytes read) of ``recover(fresh, start_lsn)``
    — ``BaWAL.recover`` or ``oracle_recover`` — over a fresh ``BaWAL``."""
    engine = platform.engine
    stats = platform.device.stats
    fresh = BaWAL(engine, platform.api, area_pages=AREA_PAGES)
    reads, nbytes = stats.reads, stats.bytes_read
    records = engine.run_process(recover(fresh, start_lsn))
    return len(records), stats.reads - reads, stats.bytes_read - nbytes


def test_log_in_the_restored_halves_reads_nothing():
    platform, wal = logged(PER_SEGMENT // 2)
    assert cost(platform, BaWAL.recover) == (PER_SEGMENT // 2, 0, 0)
    assert cost(platform, oracle_recover) == (
        PER_SEGMENT // 2, 14, 14 * wal.segment_bytes)


def test_power_cut_mid_flush_probes_one_page():
    platform, wal = logged(0, power_cycle=False)
    engine = platform.engine

    def load():
        for index in range(2 * PER_SEGMENT):
            end = yield from wal.append(bytes([index % 251]) * PAYLOAD)
            yield from wal.commit(end)

    # Cut the power while segment 0 is still flushing: both restored
    # halves hold live records, the slot after them was never written.
    engine.process(load())
    while wal.durable_lsn <= wal.segment_bytes:
        engine.step()
    assert wal.stats.device_writes == 0
    CrashHarness(platform).crash_at(0.0)
    records, reads, nbytes = cost(platform, BaWAL.recover)
    assert records == PER_SEGMENT + 1
    assert (reads, nbytes) == (1, wal.page_size)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_k_sealed_segments_cost_k_probes_and_k_bodies(k):
    platform, wal = logged(k * PER_SEGMENT + 5)
    assert wal.stats.device_writes == k
    records, reads, nbytes = cost(platform, BaWAL.recover)
    assert records == k * PER_SEGMENT + 5
    assert (reads, nbytes) == (2 * k, k * wal.segment_bytes)
    assert cost(platform, oracle_recover) == (
        records, 14, 14 * wal.segment_bytes)


def test_start_in_the_last_sealed_segment_reads_one_body():
    platform, wal = logged(3 * PER_SEGMENT + 5)
    start = 2 * wal.segment_bytes + 4 * RECORD
    records, reads, nbytes = cost(platform, BaWAL.recover, start)
    assert records == PER_SEGMENT - 4 + 5
    assert (reads, nbytes) == (2, wal.segment_bytes)


def test_wrapped_log_costs_the_old_scan_plus_one_probe_at_most():
    slots = AREA_PAGES * 4096 // (32 * KiB)
    platform, wal = logged((slots + 3) * PER_SEGMENT + 5)
    assert wal.tail_lsn > AREA_PAGES * wal.page_size
    old = cost(platform, oracle_recover)
    new = cost(platform, BaWAL.recover)
    assert old == (old[0], 14, 14 * wal.segment_bytes)
    # Tail in segment 19, segment 20's empty half pinned over slot 4:
    # segments 5..18 survive on NAND.
    assert new[0] == old[0] == 14 * PER_SEGMENT + 5
    # ... and slot 0 holds segment 16: one probe finds that out.
    assert new[1:] == (15, old[2] + wal.page_size)
    # From the oldest surviving segment the chain needs no fallback.
    assert cost(platform, BaWAL.recover, 5 * wal.segment_bytes) == (
        new[0], 28, 14 * wal.segment_bytes)
