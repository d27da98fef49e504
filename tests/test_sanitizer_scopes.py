"""simsan's BA_SYNC scopes: one live scope per BA_SYNC in flight, ended
by identity.

The devices of a pool reuse mapping-table entry ids, and a ``ba_sync``
generator the kernel abandons is finalized whenever the GC gets to it —
possibly under a different sanitizer state.  Neither may end (and so
un-check) somebody else's scope.
"""

import pytest

from repro.analysis import sanitizer as simsan
from repro.analysis.sanitizer import SanitizerError
from repro.cluster import DevicePool

pytestmark = pytest.mark.oracle

PAGE = 4096


def test_same_entry_id_on_two_devices_keeps_both_scopes(monkeypatch):
    """Device B's BA_SYNC (a verify-before-flush mutant) opens its scope
    while device A's BA_SYNC, on the same entry id, has its verify read
    on the wire.  A ending must not end B: B's reordered verify read is
    still caught."""
    with simsan.activated():
        pool = DevicePool(devices=2, seed=5)
        engine = pool.engine
        a, b = (node.platform.api for node in pool.nodes.values())
        engine.run_process(a.ba_pin(0, 0, 300, PAGE))
        entry_b = engine.run_process(b.ba_pin(0, 0, 300, PAGE))
        in_flight = engine.event()
        real_wvr = a.cpu.write_verify_read

        def signalling_wvr(lines=0):
            in_flight.succeed()
            return (yield from real_wvr(lines))

        monkeypatch.setattr(a.cpu, "write_verify_read", signalling_wvr)
        a_done = engine.process(a.ba_sync(0))

        def buggy_b_sync():
            yield in_flight
            scope = simsan.sync_begin(0, b.region, entry_b.offset,
                                      entry_b.length)
            try:
                yield a_done  # A's BA_SYNC ends first
                # bug: verify read first, flush second
                yield from b.cpu.write_verify_read(0)
                yield from b.cpu.wc_flush(b.region, entry_b.offset,
                                          entry_b.length)
            finally:
                simsan.sync_end(scope)

        with pytest.raises(SanitizerError) as excinfo:
            engine.run_process(buggy_b_sync())
        assert excinfo.value.invariant == "sync.reordered"
        assert excinfo.value.context["entry_id"] == 0


def test_abandoned_ba_sync_leaves_a_fresh_states_scopes_alone(sanitized_device):
    """A ``ba_sync`` abandoned mid-flush and finalized (``close()``, what
    the GC does) inside a fresh ``simsan.activated()`` must not pop the
    fresh state's live scope of the same entry id."""
    platform = sanitized_device
    engine, api = platform.engine, platform.api
    entry = engine.run_process(api.ba_pin(0, 0, 300, PAGE))
    abandoned = api.ba_sync(0)
    engine.process(abandoned)
    while not platform.sanitizer_state.syncs:
        engine.step()  # until the sync's scope is open (mid-flush)
    with simsan.activated():
        simsan.sync_begin(0, api.region, entry.offset, entry.length)
        abandoned.close()
        with pytest.raises(SanitizerError) as excinfo:
            simsan.on_write_verify_read(api.cpu)
    assert excinfo.value.invariant == "sync.reordered"
