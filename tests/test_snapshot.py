"""Platform snapshot/restore: warm-state forking must be undetectable.

The run-matrix executor reuses a platform's post-warm-up state across
sweep legs, so the whole feature rests on one claim: a leg run on a
restored platform is *byte-identical* (full ``collect_stats`` report,
canonical JSON) to the same leg run on the original warmed platform.
These tests pin that down, including across a pickle round trip — the
form the snapshot takes in the cross-process cache.
"""

import pickle

import pytest

from repro.bench.golden import canonical_json
from repro.observability import collect_stats
from repro.platform import Platform

PAGE = 4096


def _warm(platform: Platform) -> None:
    """A warm-up phase touching block cache, FTL, NAND, and the BA path."""
    engine, api, device = platform.engine, platform.api, platform.device

    def drive():
        for lpn in range(0, 256, 8):
            yield engine.process(device.write(lpn, bytes([lpn & 0xFF]) * (8 * PAGE)))
        yield engine.process(device.drain())
        entry = yield engine.process(api.ba_pin(0, 0, 0, 16 * PAGE))
        yield engine.process(api.mmio_write(entry, 0, b"\xab" * 512))
        yield engine.process(api.ba_sync(0))
        yield engine.process(api.ba_flush(0))
        yield engine.process(device.drain())
        return None

    engine.run(until=engine.process(drive(), name="warm"))
    engine.run()


def _leg(platform: Platform) -> dict:
    """A measurement leg: more writes (GC pressure), BA traffic, reads."""
    engine, api, device = platform.engine, platform.api, platform.device

    def drive():
        for lpn in range(0, 256, 4):
            yield engine.process(device.write(lpn, bytes([(lpn + 1) & 0xFF]) * (4 * PAGE)))
        yield engine.process(device.drain())
        for eid, (lba, npages) in enumerate([(300, 8), (512, 32)], start=1):
            entry = yield engine.process(api.ba_pin(eid, 0, lba, npages * PAGE))
            yield engine.process(api.mmio_write(entry, 0, bytes(256)))
            yield engine.process(api.ba_sync(eid))
            yield engine.process(api.ba_flush(eid))
        yield engine.process(device.drain())
        for lpn in range(0, 256, 32):
            yield engine.process(device.read(lpn, 4 * PAGE))
        return None

    engine.run(until=engine.process(drive(), name="leg"))
    engine.run()
    return collect_stats(platform)


def test_restored_leg_is_byte_identical_to_continued_leg():
    warmed = Platform(seed=909)
    _warm(warmed)
    snap = warmed.snapshot()
    # The snapshot must survive the exact transport the cache uses.
    blob = pickle.dumps(snap)

    continued = canonical_json(_leg(warmed))

    fresh = Platform(seed=909)
    fresh.restore(pickle.loads(blob))
    restored = canonical_json(_leg(fresh))

    assert restored == continued


def test_snapshot_then_restore_twice_forks_identically():
    warmed = Platform(seed=77)
    _warm(warmed)
    snap = warmed.snapshot()

    runs = []
    for _ in range(2):
        fresh = Platform(seed=77)
        fresh.restore(pickle.loads(pickle.dumps(snap)))
        runs.append(canonical_json(_leg(fresh)))
    assert runs[0] == runs[1]


def test_snapshot_requires_quiescence():
    platform = Platform(seed=1)
    engine, device = platform.engine, platform.device

    def drive():
        yield engine.process(device.write(0, bytes(PAGE)))
        return None

    engine.process(drive(), name="busy")
    # Engine never ran: bootstraps are still deferred -> not quiescent.
    with pytest.raises(RuntimeError, match="quiescent"):
        platform.snapshot()


def test_restore_rejects_mismatched_configuration():
    warmed = Platform(seed=5)
    _warm(warmed)
    snap = warmed.snapshot()
    other = Platform(seed=6)
    with pytest.raises(RuntimeError, match="fingerprint"):
        other.restore(snap)


def test_restore_rejects_used_platform():
    warmed = Platform(seed=11)
    _warm(warmed)
    snap = warmed.snapshot()
    used = Platform(seed=11)
    _warm(used)
    with pytest.raises(RuntimeError, match="freshly constructed"):
        used.restore(snap)


def test_snapshot_refuses_posted_writes_in_flight_then_round_trips():
    """A TLP on the wire is in neither the CPU nor device memory, so it
    cannot be captured; once the burst has drained the snapshot forks
    exactly like any other."""
    warmed = Platform(seed=31)
    _warm(warmed)
    engine, api = warmed.engine, warmed.api
    entry = engine.run_process(api.ba_pin(3, 0, 700, 4 * PAGE))
    engine.run()
    # clflush a burst and stop the clock right there: nothing has landed.
    warmed.cpu.wc.store(api.region, entry.offset, b"\xcd" * (24 * 64))
    warmed.cpu.wc.flush()
    assert len(warmed.cpu.wc) == 0 and warmed.link.in_flight == 24
    with pytest.raises(RuntimeError, match="posted writes in flight"):
        warmed.snapshot()

    engine.run()
    assert warmed.link.in_flight == 0
    assert api.region.read(entry.offset, 24 * 64) == b"\xcd" * (24 * 64)
    engine.run_process(api.ba_flush(3))
    engine.run_process(warmed.device.drain())
    engine.run()
    blob = pickle.dumps(warmed.snapshot())
    continued = canonical_json(_leg(warmed))
    fresh = Platform(seed=31)
    fresh.restore(pickle.loads(blob))
    assert canonical_json(_leg(fresh)) == continued
