"""simsan: the runtime invariant sanitizer catches seeded protocol bugs.

Each mutant below is a realistic buggy rewrite of an instrumented call
site — the sanitizer hooks stay in place, only the protocol around them
regresses (the TSan-style convention for sanitizer tests).  Every mutant
must raise :class:`SanitizerError` with the right invariant ID, and the
same workloads must run violation-free without the mutation.
"""

import pytest

from repro.analysis import sanitizer as simsan
from repro.analysis.sanitizer import SanitizerError
from repro.core.lba_checker import LbaChecker
from repro.core.mapping_table import BaMappingEntry, BaMappingTable
from repro.host.wc import WriteCombiningBuffer
from repro.sim import Engine

PAGE = 4096


def run_log_workload(platform, entry_id=0, lba=300, nbytes=200):
    """Pin a page, write bytes over MMIO, sync, flush — the paper's WAL path."""
    engine, api = platform.engine, platform.api

    def scenario():
        entry = yield engine.process(api.ba_pin(entry_id, 0, lba, PAGE))
        payload = bytes(index % 256 for index in range(nbytes))
        yield engine.process(api.mmio_write(entry, 0, payload))
        yield engine.process(api.ba_sync(entry_id))
        yield engine.process(api.ba_flush(entry_id))
        return entry

    return engine.run_process(scenario())


class TestCleanRuns:
    def test_disabled_by_default(self):
        assert simsan.enabled is False

    def test_fixture_enables_and_restores(self, sanitized_device):
        assert simsan.enabled is True
        assert sanitized_device.sanitizer_state.violations == 0

    def test_clean_workload_has_zero_violations(self, sanitized_device):
        run_log_workload(sanitized_device)
        state = sanitized_device.sanitizer_state
        assert state.checks > 0
        assert state.violations == 0

    def test_error_message_carries_span_context(self):
        error = SanitizerError("die.exclusivity", "two ops on one die",
                               sim_time=1.5e-6, context={"op": "read"})
        assert "[die.exclusivity]" in str(error)
        assert "t=0.000001500s" in str(error)
        assert "op='read'" in str(error)


class TestDieAccessMutants:
    def test_mutant_released_die_before_timed_section(self, sanitized_device):
        """Mutant: a refactor returns the die *before* the cell operation
        (the reservation is created and immediately released), keeping the
        instrumentation in place -> ``die.unreserved``."""
        platform = sanitized_device
        flash = platform.device.flash
        engine = platform.engine

        def buggy_read(ppn):
            addr = flash.address(ppn)
            die_res = flash._die_resource(addr.channel, addr.die)
            die_req = die_res.request()
            yield die_req
            die_res.release(die_req)  # bug: die no longer held for the op
            simsan.die_op_begin(flash, addr, die_res, die_req, "read")
            try:
                yield engine.timeout(flash.timing.sample_read(flash._rng))
            finally:
                simsan.die_op_end(flash, addr, die_res, die_req, "read")

        with pytest.raises(SanitizerError) as excinfo:
            engine.run_process(buggy_read(0))
        assert excinfo.value.invariant == "die.unreserved"
        assert excinfo.value.sim_time is not None

    def test_mutant_hardcoded_die_index(self, sanitized_device):
        """Mutant: the die-index computation regresses to die (0,0) while
        the page lives on another die -> ``die.wrong-resource``."""
        platform = sanitized_device
        flash = platform.device.flash
        engine = platform.engine
        ppn_on_other_die = flash.geometry.ppn(0, 1, 0, 0)

        def buggy_program(ppn):
            addr = flash.address(ppn)
            die_res = flash._die_resource(0, 0)  # bug: wrong die's arbiter
            die_req = die_res.request()
            yield die_req
            simsan.die_op_begin(flash, addr, die_res, die_req, "program")
            try:
                yield engine.timeout(flash.timing.sample_program(flash._rng))
            finally:
                simsan.die_op_end(flash, addr, die_res, die_req, "program")
                die_res.release(die_req)

        with pytest.raises(SanitizerError) as excinfo:
            engine.run_process(buggy_program(ppn_on_other_die))
        assert excinfo.value.invariant == "die.wrong-resource"


class TestDurabilityMutants:
    def test_mutant_write_verify_before_flush(self, sanitized_device, monkeypatch):
        """Mutant: BA_SYNC issues the write-verify read *before* draining
        the WC lines (the §III-B ordering inverted) -> ``sync.reordered``."""
        platform = sanitized_device
        api, engine = platform.api, platform.engine

        def buggy_sync(entry_id):
            entry = yield engine.process(api.ba_get_entry_info(entry_id))
            scope = simsan.sync_begin(entry_id, api.region, entry.offset,
                                      entry.length)
            try:
                # bug: verify read first, flush second
                yield engine.process(api.cpu.write_verify_read(0))
                yield engine.process(
                    api.cpu.wc_flush(api.region, entry.offset, entry.length)
                )
            finally:
                simsan.sync_end(scope)
            return entry

        monkeypatch.setattr(api, "ba_sync", buggy_sync)
        with pytest.raises(SanitizerError) as excinfo:
            run_log_workload(platform)
        assert excinfo.value.invariant == "sync.reordered"

    def test_mutant_flush_that_misses_lines(self, sanitized_device, monkeypatch):
        """Mutant: the WC flush implementation regresses to draining only
        the first matching line; the protocol *order* is intact but bytes
        are still staged at verify time -> ``sync.dirty-lines``."""
        platform = sanitized_device
        wc = platform.cpu.wc
        line = wc.line_size

        def buggy_flush(region=None, offset=0, nbytes=None):
            return WriteCombiningBuffer.flush(wc, region, offset, line)

        monkeypatch.setattr(wc, "flush", buggy_flush)
        with pytest.raises(SanitizerError) as excinfo:
            run_log_workload(platform, nbytes=4 * line)
        assert excinfo.value.invariant == "sync.dirty-lines"
        assert excinfo.value.context["staged_lines"] > 0


class TestMappingTableMutants:
    @staticmethod
    def _unchecked_add(table, entry_id, offset, lba, length):
        """The shared mutant: an ``add`` whose validation regressed away."""
        entry = BaMappingEntry(entry_id, offset, lba, length)
        table._entries[entry_id] = entry
        return entry

    def test_mutant_ninth_entry(self, sanitized_device, monkeypatch):
        """Mutant: capacity check lost from ``add`` -> the 9th pin breaks
        the Table I limit -> ``table.invariant``."""
        platform = sanitized_device
        engine, api = platform.engine, platform.api
        monkeypatch.setattr(BaMappingTable, "add", self._unchecked_add)

        def scenario():
            for index in range(9):
                yield engine.process(
                    api.ba_pin(index, index * PAGE, 100 + 2 * index, PAGE)
                )

        with pytest.raises(SanitizerError) as excinfo:
            engine.run_process(scenario())
        assert excinfo.value.invariant == "table.invariant"
        assert "exceed the Table I limit" in excinfo.value.context["problems"][0]

    def test_mutant_overlapping_pin(self, sanitized_device, monkeypatch):
        """Mutant: overlap check lost from ``add`` -> two pins cover the
        same LBA range -> ``table.invariant``."""
        platform = sanitized_device
        engine, api = platform.engine, platform.api
        monkeypatch.setattr(BaMappingTable, "add", self._unchecked_add)

        def scenario():
            yield engine.process(api.ba_pin(0, 0, 500, PAGE))
            yield engine.process(api.ba_pin(1, PAGE, 500, PAGE))  # same LBA

        with pytest.raises(SanitizerError) as excinfo:
            engine.run_process(scenario())
        assert excinfo.value.invariant == "table.invariant"

    def test_mutant_checker_bound_to_stale_table(self, sanitized_device):
        """Mutant: recovery rebuilds the LBA checker against a fresh table
        object, so block writes into pinned ranges stop being gated ->
        ``table.checker-split``."""
        platform = sanitized_device
        device = platform.device
        device.lba_gate = LbaChecker(
            BaMappingTable(device.ba_params.buffer_bytes,
                           device.ba_params.max_entries,
                           device.ba_params.page_size)
        )
        with pytest.raises(SanitizerError) as excinfo:
            run_log_workload(platform)
        assert excinfo.value.invariant == "table.checker-split"


class TestKernelMutants:
    def test_mutant_event_scheduled_in_the_past(self):
        """Mutant: kernel-level code computes a negative delay and calls
        ``_schedule`` directly, below :class:`Timeout`'s literal validation
        -> ``kernel.past-event`` at schedule time, not at pop time."""
        engine = Engine()
        with simsan.activated():
            with pytest.raises(SanitizerError) as excinfo:
                engine._schedule(engine.event(), -1e-6)
        assert excinfo.value.invariant == "kernel.past-event"

    def test_past_event_still_rejected_without_sanitizer(self):
        """The kernel's own pop-time guard is not weakened when simsan is
        off; the sanitizer only makes the diagnosis earlier and richer."""
        from repro.sim.engine import SimulationError

        engine = Engine()
        event = engine.event()
        engine._schedule(event, -1e-6)
        event._triggered = True
        with pytest.raises(SimulationError):
            engine.run(until=event)


class TestPostedWriteMutants:
    """A posted TLP is part of device memory from its landing time on;
    the link deposits landed TLPs lazily, so every access to BAR-target
    memory must settle the link first."""

    LINES = 8

    @staticmethod
    def _read_mid_burst(platform, lines):
        """clflush a burst, stop between two landings, read device memory."""
        engine, api = platform.engine, platform.api
        entry = engine.run_process(api.ba_pin(0, 0, 300, PAGE))
        engine.run()
        platform.cpu.wc.store(api.region, entry.offset, b"\x5a" * (lines * 64))
        platform.cpu.wc.flush()
        params = platform.link.params
        per_tlp = params.tlp_overhead + 64 / params.bandwidth_bytes_per_sec
        engine.run(until=engine.now + params.propagation + 3.5 * per_tlp)
        return api.region.read(entry.offset, lines * 64)

    def test_mid_burst_read_sees_landed_lines_without_violation(self, sanitized_device):
        seen = self._read_mid_burst(sanitized_device, self.LINES)
        assert seen == b"\x5a" * (3 * 64) + bytes((self.LINES - 3) * 64)
        assert sanitized_device.sanitizer_state.violations == 0

    def test_mutant_read_skips_the_settle(self, sanitized_device, monkeypatch):
        """Mutant: ``ByteRegion.read`` regresses to looking at the bytes
        without settling the inbound link (the hook stays) — three TLPs
        have landed but are still queued -> ``pcie.unsettled-read``."""
        from repro.host.memory import ByteRegion

        def buggy_read(region, offset, nbytes):
            region._check(offset, nbytes)
            if region._inbound is not None and simsan.enabled:
                simsan.check_settled(region._inbound, region)  # bug: no settle()
            if region._data is None:
                return bytes(nbytes)
            return bytes(region._data[offset:offset + nbytes])

        monkeypatch.setattr(ByteRegion, "read", buggy_read)
        with pytest.raises(SanitizerError) as excinfo:
            self._read_mid_burst(sanitized_device, self.LINES)
        assert excinfo.value.invariant == "pcie.unsettled-read"
        assert excinfo.value.context["in_flight"] == self.LINES
