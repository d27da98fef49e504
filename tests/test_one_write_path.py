"""One write path: ``append_batch`` is every backend's only append.

``append(p)`` is sugar for ``append_batch([p])``: same LSN, same
``WalStats``, same recovered log, same simulated clock.  The error rule
is uniform — :class:`PartialAppendError` only when at least one record
landed, the cause itself otherwise — and a command that cannot apply is
refused before it reaches the log.
"""

import dataclasses

import pytest

from repro.cluster import DevicePool
from repro.core import MappingTableFullError
from repro.db.memkv import MemKV
from repro.sim.units import KiB
from repro.wal import BaWAL, BlockWAL, PmWAL
from repro.wal.base import PartialAppendError
from repro.wal.record import RECORD_HEADER_BYTES
from tests.helpers import Platform, small_ba_params

pytestmark = pytest.mark.oracle

# Sizes vary so BaWAL crosses 32 KiB segments and PmWAL's 16 KiB buffer
# stalls on its drain.
PAYLOADS = [bytes([index % 251]) * (100 + 97 * index % 1900)
            for index in range(40)]


def _ba():
    platform = Platform(ba_params=small_ba_params(64))
    wal = BaWAL(platform.engine, platform.api, area_pages=1024)
    platform.engine.run_process(wal.start())
    return platform.engine, wal


def _block():
    platform = Platform()
    device = platform.add_block_ssd()
    return platform.engine, BlockWAL(platform.engine, device, platform.cpu,
                                     area_pages=1024)


def _pm(pm_bytes=16 * KiB):
    platform = Platform()
    device = platform.add_block_ssd()
    return platform.engine, PmWAL(platform.engine, device, platform.cpu,
                                  pm_bytes=pm_bytes, area_pages=1024)


def _replicated():
    pool = DevicePool(devices=3, seed=23, ba_params=small_ba_params(64),
                      area_pages=64)
    stream = pool.engine.run_process(pool.open_stream("wal0", replicas=2))
    return pool.engine, stream


def _log(build, single):
    """Append and commit every payload one record at a time; returns
    what a caller and a recovery can observe."""
    engine, wal = build()

    def run():
        lsns = []
        for payload in PAYLOADS:
            if single:
                lsn = yield from wal.append(payload)
            else:
                (lsn,) = yield from wal.append_batch([payload])
            yield from wal.commit(lsn)
            lsns.append(lsn)
        return lsns

    lsns = engine.run_process(run())
    engine.run()
    finished = engine.now
    records = engine.run_process(wal.recover())
    return lsns, dataclasses.asdict(wal.stats), records, finished


@pytest.mark.parametrize("build", [_ba, _block, _pm, _replicated],
                         ids=["ba", "block", "pm", "replicated"])
def test_append_is_a_batch_of_one(build):
    single = _log(build, single=True)
    batch = _log(build, single=False)
    assert single == batch
    lsns, stats, records, _finished = single
    assert [payload for _lsn, payload in records] == PAYLOADS
    assert stats["appends"] == len(PAYLOADS)
    assert lsns[-1] == records[-1][0] + RECORD_HEADER_BYTES + len(PAYLOADS[-1])


# -- one error rule ---------------------------------------------------------


def _lost_pin():
    raise MappingTableFullError("the recycle's pin was stolen")
    yield  # pragma: no cover - makes this a generator


def _ba_at_segment_end():
    """A started BaWAL whose active half has 50 bytes left."""
    engine, wal = _ba()
    filler = b"f" * (wal.segment_bytes - RECORD_HEADER_BYTES - 50)
    engine.run_process(wal.append_batch([filler]))
    return engine, wal


def test_ba_batch_that_lands_nothing_raises_the_cause(monkeypatch):
    engine, wal = _ba_at_segment_end()
    monkeypatch.setattr(wal, "_switch_halves", _lost_pin)
    tail = wal.tail_lsn
    with pytest.raises(MappingTableFullError):
        engine.run_process(wal.append_batch([b"x" * 100, b"y" * 10]))
    assert wal.tail_lsn == tail and wal.stats.appends == 1


def test_ba_batch_that_lands_a_prefix_raises_partial(monkeypatch):
    engine, wal = _ba_at_segment_end()
    monkeypatch.setattr(wal, "_switch_halves", _lost_pin)
    with pytest.raises(PartialAppendError) as excinfo:
        engine.run_process(wal.append_batch([b"x" * 10, b"y" * 100]))
    assert excinfo.value.lsns == [wal.tail_lsn]
    assert isinstance(excinfo.value.cause, MappingTableFullError)
    engine.run_process(wal.commit(wal.tail_lsn))
    records = engine.run_process(wal.recover())
    assert records[-1][1] == b"x" * 10


def test_pm_batch_recovers_as_single_appends_would():
    engine, batched = _pm()
    lsns = engine.run_process(batched.append_batch(PAYLOADS))
    engine.run()
    assert batched.stats.flush_stalls > 0  # the drain stalled mid-batch
    single = _log(_pm, single=True)
    assert lsns == single[0]
    assert engine.run_process(batched.recover()) == single[2]
    assert batched.stats.appends == len(PAYLOADS)
    assert batched.stats.bytes_appended == sum(map(len, PAYLOADS))


# -- refused before it is logged --------------------------------------------


def test_memkv_bad_incr_never_poisons_the_aof():
    """Write, a bad INCR, reopen over the same AOF: every key compares."""
    platform = Platform(ba_params=small_ba_params(64))
    engine = platform.engine
    aof = BaWAL(engine, platform.api, area_pages=4096, double_buffer=False)
    engine.run_process(aof.start())
    store = MemKV(engine, aof)
    engine.run_process(store.set("k", b"abc"))
    engine.run_process(store.set("n", b"5"))
    assert engine.run_process(store.incr("n")) == 6
    tail = aof.tail_lsn
    with pytest.raises(ValueError):
        engine.run_process(store.incr("k"))
    assert aof.tail_lsn == tail  # nothing reached the log
    reopened = MemKV(engine, aof)
    assert engine.run_process(reopened.recover()) == 3
    assert reopened.snapshot() == store.snapshot() == {"k": b"abc", "n": b"6"}
