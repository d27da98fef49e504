"""Batched NAND operations: timing equivalence and failure containment.

``FlashArray`` has one reservation step and one timed body per page
operation: a batch reserves at ``submit`` and its per-die worker runs the
body, and the single-page ``read_page``/``program_page`` test helpers
reserve and ``yield from`` the body.  The oracle is the per-page pair as it
stood before that (kept verbatim in :class:`OracleArray`).  Each
equivalence test drives two same-seed twin engines — one per-page on the
oracle, one on the change — and compares per-page completion times as
exact floats, plus data and stats.
"""

from typing import Iterator

import pytest

from repro.analysis import sanitizer as simsan
from repro.nand.array import (
    FlashArray,
    NandProtocolError,
    PageAddress,
    SimulationBatchClosed,
)
from repro.nand.ecc import EccConfig
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming
from repro.obs import tracing
from repro.sim import Engine, RngStreams
from repro.sim.engine import Event
from repro.sim.units import MSEC, USEC
from tests.helpers import program_page, read_page

PAGE = 64


class OracleArray(FlashArray):
    """The per-page timed operations the one body replaced, verbatim."""

    def _transfer_time(self, nbytes: int) -> float:
        return nbytes / self.CHANNEL_BYTES_PER_SEC

    # -- timed operations (simulation processes) ------------------------------

    def read_page(self, ppn: int) -> Iterator[Event]:
        """Process: read one page; returns its contents (zeros if never written).

        Reads of worn pages can need ECC read retries (one extra tR each);
        pages beyond the retry budget raise
        :class:`~repro.nand.ecc.UncorrectableError`.
        """
        channel, die, block, page = self.geometry.decompose(ppn)
        state = self._block_state(channel, die, block)
        retries = 0
        if page in state.programmed:
            retries = self._retries_for(ppn, state.erase_count)  # may raise UECC
        if tracing.enabled:
            _t0 = self.engine.now
        die_index = channel * self.geometry.dies_per_channel + die
        die_res = self._dies[die_index]
        die_req = die_res.request()
        yield die_req
        _addr = None
        if simsan.enabled:
            _addr = PageAddress(channel, die, block, page)
            simsan.die_op_begin(self, _addr, die_res, die_req, "read")
        try:
            slow = self._die_slowdown
            factor = slow.get(die_index, 1.0) if slow else 1.0
            for _sense in range(1 + retries):
                sense = self.timing.sample_read(self._rng)
                if factor != 1.0:
                    sense *= factor
                yield self.engine.timeout(sense)
            channel_res = self._channels[channel]
            chan_req = channel_res.request()
            yield chan_req
            try:
                yield self.engine.timeout(self._transfer_time(self.geometry.page_size))
            finally:
                channel_res.release(chan_req)
        finally:
            if _addr is not None:
                simsan.die_op_end(self, _addr, die_res, die_req, "read")
            die_res.release(die_req)
        self.stats.page_reads += 1
        self.stats.read_retries += retries
        if tracing.enabled:
            tracing.observe("nand.array.read", self.engine.now - _t0)
        return self.peek(ppn)

    def program_page(self, ppn: int, data: bytes) -> Iterator[Event]:
        """Process: program one page with ``data`` (must be <= page_size)."""
        if len(data) > self.geometry.page_size:
            raise ValueError(
                f"data of {len(data)} bytes exceeds page size {self.geometry.page_size}"
            )
        channel, die, block, page = self.geometry.decompose(ppn)
        state = self._block_state(channel, die, block)
        if tracing.enabled:
            _t0 = self.engine.now
        die_index = channel * self.geometry.dies_per_channel + die
        die_res = self._dies[die_index]
        die_req = die_res.request()
        yield die_req
        _addr = None
        if simsan.enabled:
            _addr = PageAddress(channel, die, block, page)
            simsan.die_op_begin(self, _addr, die_res, die_req, "program")
        try:
            # Protocol checks run once the die is held, i.e. after every
            # earlier operation on this die has completed, so concurrent
            # in-order submissions are not misdiagnosed as out-of-order.
            if page in state.programmed:
                raise NandProtocolError(
                    f"page {ppn} already programmed since last erase (erase-before-program)"
                )
            if page != state.write_pointer:
                raise NandProtocolError(
                    f"out-of-order program in block ({channel},{die},{block}): "
                    f"page {page} programmed while write pointer is {state.write_pointer}"
                )
            channel_res = self._channels[channel]
            chan_req = channel_res.request()
            yield chan_req
            try:
                yield self.engine.timeout(self._transfer_time(len(data)))
            finally:
                channel_res.release(chan_req)
            program = self.timing.sample_program(self._rng)
            slow = self._die_slowdown
            if slow:
                program *= slow.get(die_index, 1.0)
            yield self.engine.timeout(program)
        finally:
            if _addr is not None:
                simsan.die_op_end(self, _addr, die_res, die_req, "program")
            die_res.release(die_req)
        self._data[ppn] = self._page_image(data)
        state.programmed.add(page)
        state.write_pointer = page + 1
        self.stats.page_programs += 1
        if tracing.enabled:
            tracing.observe("nand.array.program", self.engine.now - _t0)


def _build(seed=7, oracle=False):
    engine = Engine()
    array = (OracleArray if oracle else FlashArray)(
        engine,
        NandGeometry(channels=2, dies_per_channel=2,
                     blocks_per_die=4, pages_per_block=8, page_size=PAGE),
        rng=RngStreams(seed),
    )
    return engine, array


def _populate(engine, array, npages):
    def drive():
        for ppn in range(npages):
            yield engine.process(program_page(array, ppn, bytes([ppn & 0xFF]) * PAGE))
    engine.run_process(drive())


def read_pages(array, ppns):
    """Process: read ``ppns`` through one batch submitted at the call
    instant; returns their contents in ``ppns`` order."""
    batch = array.read_batch()
    results = [None] * len(ppns)
    for index, ppn in enumerate(ppns):
        batch.submit(ppn, on_data=results.__setitem__, token=index)
    yield from batch.drain()
    return results


def program_pages(array, pages):
    """Process: program ``(ppn, data)`` pairs through one batch submitted
    at the call instant."""
    batch = array.program_batch()
    for ppn, data in pages:
        batch.submit(ppn, data)
    yield from batch.drain()


def _per_page_run(oracle):
    """Concurrent per-page reads and programs on a worn array with one
    slow die: sense retries, channel and die contention, a protocol
    violation.  Logs each op's completion instant, kernel sequence number
    and value (or error)."""
    engine = Engine()
    array = (OracleArray if oracle else FlashArray)(
        engine,
        NandGeometry(channels=2, dies_per_channel=2,
                     blocks_per_die=4, pages_per_block=8, page_size=PAGE),
        NandTiming("worn", 3 * USEC, 100 * USEC, 1 * MSEC, endurance_cycles=100),
        RngStreams(11),
        ecc=EccConfig(correctable_bits=40, wear_slope=60.0,
                      max_read_retries=3, retry_gain_bits=12),
    )
    for die_index in range(4):
        for block in range(4):
            array._block_state(die_index // 2, die_index % 2, block).erase_count = 60
    array.set_die_slowdown(1, 2.5)
    read, program = ((OracleArray.read_page, OracleArray.program_page) if oracle
                     else (read_page, program_page))
    log = []

    def op(index, work):
        try:
            value = yield from work
        except NandProtocolError as exc:
            value = type(exc).__name__
        log.append((index, engine.now, engine._sequence, value))

    def drive():
        procs = []
        for step in range(6):  # two pages per block on every die, racing
            for die_index in range(4):
                ppn = die_index * 32 + (step // 2) * 8 + step % 2
                procs.append(engine.process(op(len(procs), program(
                    array, ppn, bytes([step + 1]) * (PAGE - die_index)))))
        yield engine.all_of(procs)
        procs = []
        for ppn in [0, 1, 33, 2, 64, 120, 97, 8, 40, 9, 1, 72, 0]:
            procs.append(engine.process(op(len(procs), read(array, ppn))))
            if ppn % 3 == 0:
                yield engine.timeout(2 * USEC)
        procs.append(engine.process(op(len(procs), program(
            array, 5, b"skips the write pointer"))))
        procs.append(engine.process(op(len(procs), program(
            array, 2, b"at the write pointer"))))
        yield engine.all_of(procs)

    engine.run_process(drive())
    return (log, engine.now, engine._sequence, array._data, array.stats,
            array._rng.getstate())


def test_per_page_ops_match_the_oracle():
    """``read_page``/``program_page`` as reserve + timed body complete at
    the oracle's instants with the oracle's kernel sequence numbers."""
    new, old = _per_page_run(oracle=False), _per_page_run(oracle=True)
    assert new[4].read_retries > 0
    assert "NandProtocolError" in [entry[3] for entry in new[0]]
    assert new == old


def test_batched_reads_match_per_page_completion_times():
    engine_a, array_a = _build(oracle=True)
    _populate(engine_a, array_a, 24)
    per_page = {}

    def reader(ppn):
        data = yield engine_a.process(array_a.read_page(ppn))
        per_page[ppn] = (engine_a.now, data)

    def drive_per_page():
        yield engine_a.all_of([engine_a.process(reader(p)) for p in range(24)])

    engine_a.run_process(drive_per_page())

    engine_b, array_b = _build()
    _populate(engine_b, array_b, 24)
    batched = {}

    def drive_batched():
        batch = array_b.read_batch()
        for ppn in range(24):
            batch.submit(ppn,
                         on_data=lambda tok, data: batched.__setitem__(
                             tok, (engine_b.now, data)),
                         token=ppn)
        yield from batch.drain()

    engine_b.run_process(drive_batched())

    assert per_page == batched  # exact float times and bytes
    assert array_a.stats.page_reads == array_b.stats.page_reads == 24
    assert array_a.stats.read_retries == array_b.stats.read_retries


def test_batched_programs_match_per_page_completion_times():
    engine_a, array_a = _build(oracle=True)
    _populate(engine_a, array_a, 16)
    per_page = {}

    def writer(ppn):
        yield engine_a.process(array_a.program_page(ppn, bytes([ppn]) * PAGE))
        per_page[ppn] = engine_a.now

    def drive_per_page():
        yield engine_a.all_of([engine_a.process(writer(p)) for p in range(16, 40)])

    engine_a.run_process(drive_per_page())

    engine_b, array_b = _build()
    _populate(engine_b, array_b, 16)
    batched = {}

    def drive_batched():
        batch = array_b.program_batch()
        for ppn in range(16, 40):
            batch.submit(ppn, bytes([ppn]) * PAGE,
                         on_done=lambda tok: batched.__setitem__(tok, engine_b.now),
                         token=ppn)
        yield from batch.drain()

    engine_b.run_process(drive_batched())

    assert per_page == batched
    assert array_a._data == array_b._data
    assert array_a.stats.page_programs == array_b.stats.page_programs == 16 + 24


def test_streaming_submissions_match_staggered_per_page_spawns():
    """Pages submitted at different instants (the pin/flush pacing shape)
    land identically to per-page processes spawned at those instants."""
    gap = 3e-6

    engine_a, array_a = _build(oracle=True)
    _populate(engine_a, array_a, 24)
    per_page = {}

    def reader(ppn):
        data = yield engine_a.process(array_a.read_page(ppn))
        per_page[ppn] = (engine_a.now, data[:4])

    def drive_per_page():
        for ppn in range(24):
            engine_a.process(reader(ppn))
            yield engine_a.timeout(gap)

    engine_a.run_process(drive_per_page())
    engine_a.run()

    engine_b, array_b = _build()
    _populate(engine_b, array_b, 24)
    batched = {}

    def drive_batched():
        batch = array_b.read_batch()
        for ppn in range(24):
            batch.submit(ppn,
                         on_data=lambda tok, data: batched.__setitem__(
                             tok, (engine_b.now, data[:4])),
                         token=ppn)
            yield engine_b.timeout(gap)
        yield from batch.drain()

    engine_b.run_process(drive_batched())

    assert per_page == batched


def test_read_pages_wrapper_matches_per_page_spawn_times():
    """A batch of pages submitted at one instant (:func:`read_pages`) is
    timing-identical to spawning one oracle ``read_page`` process per
    page at that instant — same final clock, same RNG draw sequence,
    same stats."""
    engine_a, array_a = _build(oracle=True)
    _populate(engine_a, array_a, 24)

    def drive_per_page():
        yield engine_a.all_of(
            [engine_a.process(array_a.read_page(p)) for p in range(24)])

    engine_a.run_process(drive_per_page())

    engine_b, array_b = _build()
    _populate(engine_b, array_b, 24)
    contents = engine_b.run_process(read_pages(array_b, list(range(24))))

    assert engine_a.now == engine_b.now  # exact float equality
    assert array_a._rng.getstate() == array_b._rng.getstate()
    assert array_a.stats.page_reads == array_b.stats.page_reads == 24
    assert contents == [array_b.peek(p) for p in range(24)]


def test_program_pages_wrapper_matches_per_page_spawn_times():
    engine_a, array_a = _build(oracle=True)

    def drive_per_page():
        yield engine_a.all_of([
            engine_a.process(array_a.program_page(p, bytes([p + 1]) * PAGE))
            for p in range(12)])

    engine_a.run_process(drive_per_page())

    engine_b, array_b = _build()
    engine_b.run_process(program_pages(
        array_b, [(p, bytes([p + 1]) * PAGE) for p in range(12)]))

    assert engine_a.now == engine_b.now
    assert array_a._rng.getstate() == array_b._rng.getstate()
    assert array_a._data == array_b._data


def test_batched_reads_on_slow_die_match_per_page():
    """Die-slowdown fault injection scales batched and per-page reads
    identically — the worker consults the slowdown map per operation."""
    def build_slow(factor, oracle=False):
        engine, array = _build(oracle=oracle)
        _populate(engine, array, 24)
        # Pages 0..23 all map to die (0, 0) in this geometry — slow the
        # die the workload actually touches.
        array.set_die_slowdown(array.die_index(0, 0), factor)
        return engine, array

    engine_a, array_a = build_slow(3.0, oracle=True)
    per_page = {}

    def reader(ppn):
        data = yield engine_a.process(array_a.read_page(ppn))
        per_page[ppn] = (engine_a.now, data[:2])

    def drive_per_page():
        yield engine_a.all_of([engine_a.process(reader(p)) for p in range(24)])

    engine_a.run_process(drive_per_page())

    engine_b, array_b = build_slow(3.0)
    batched = {}

    def drive_batched():
        batch = array_b.read_batch()
        for ppn in range(24):
            batch.submit(ppn,
                         on_data=lambda tok, data: batched.__setitem__(
                             tok, (engine_b.now, data[:2])),
                         token=ppn)
        yield from batch.drain()

    engine_b.run_process(drive_batched())

    assert per_page == batched
    # The slow die really did slow down relative to a healthy run.
    engine_c, array_c = _build()
    _populate(engine_c, array_c, 24)
    engine_c.run_process(read_pages(array_c, list(range(24))))
    assert engine_b.now > engine_c.now


def test_batched_ops_are_sanitizer_clean():
    """Batch workers keep every die/durability invariant the per-page
    paths are instrumented for — zero violations under simsan."""
    with simsan.activated() as state:
        engine, array = _build()
        _populate(engine, array, 16)
        engine.run_process(program_pages(
            array, [(p, bytes([p]) * PAGE) for p in range(16, 32)]))
        data = engine.run_process(read_pages(array, list(range(32))))
        assert data[20] == bytes([20]) * PAGE
        assert state.checks > 0
        assert state.violations == 0


def test_read_pages_returns_contents_in_request_order():
    engine, array = _build()
    _populate(engine, array, 8)
    ppns = [5, 0, 7, 3, 20]  # 20 was never programmed
    contents = engine.run_process(read_pages(array, ppns))
    assert contents == [array.peek(p) for p in ppns]
    assert contents[-1] == bytes(PAGE)


def test_program_pages_equivalent_to_sequential_state():
    engine, array = _build()
    pages = [(ppn, bytes([ppn + 1]) * PAGE) for ppn in range(12)]
    engine.run_process(program_pages(array, pages))
    for ppn, data in pages:
        assert array.peek(ppn) == data
    assert array.stats.page_programs == 12


def test_program_batch_failure_does_not_deadlock_the_die():
    engine, array = _build()
    _populate(engine, array, 1)  # page 0 programmed -> reprogram violates

    def drive():
        batch = array.program_batch()
        batch.submit(0, b"x" * PAGE)       # erase-before-program violation
        batch.submit(1, b"y" * PAGE)       # same die, queued behind it
        yield from batch.drain()

    with pytest.raises(NandProtocolError):
        engine.run_process(drive())
    # The die must be usable afterwards: the aborted batch released every
    # die claim it still held.
    data = engine.run_process(read_pages(array, [0]))
    assert data == [array.peek(0)]


@pytest.mark.parametrize("kind", ["read", "program"])
def test_a_raising_callback_does_not_deadlock_the_die(kind):
    """A completion callback that raises fails the batch; the page queued
    behind it on the same die gives its die claim back."""
    engine = Engine()
    array = FlashArray(engine, NandGeometry(channels=1, dies_per_channel=1,
                                            blocks_per_die=2, pages_per_block=4,
                                            page_size=PAGE), rng=RngStreams(3))

    def boom(*_args):
        raise RuntimeError("callback failed")

    def drive():
        if kind == "read":
            batch = array.read_batch()
            batch.submit(0, on_data=boom)
            batch.submit(1)
        else:
            batch = array.program_batch()
            batch.submit(0, b"x" * PAGE, on_done=boom)
            batch.submit(1, b"y" * PAGE)
        yield from batch.drain()

    with pytest.raises(RuntimeError, match="callback failed"):
        engine.run_process(drive())
    process = engine.process(read_page(array, 2))
    engine.run()
    assert process.processed and process.value == bytes(PAGE)


def test_submit_after_drain_raises():
    engine, array = _build()

    def drive():
        batch = array.read_batch()
        yield from batch.drain()
        batch.submit(0)

    with pytest.raises(SimulationBatchClosed):
        engine.run_process(drive())
    # The refused page claimed no slot on its die.
    process = engine.process(read_page(array, 0))
    engine.run()
    assert process.processed and process.value == bytes(PAGE)


def test_wear_summary_matches_brute_force_and_skips_untouched():
    engine, array = _build()
    _populate(engine, array, 8)

    def erase_some():
        yield engine.process(array.erase_block(0, 0, 0))
        yield engine.process(array.erase_block(0, 0, 0))
        yield engine.process(array.erase_block(0, 1, 2))

    engine.run_process(erase_some())
    summary = array.wear_summary()
    geometry = array.geometry
    # Only touched blocks may be materialized (the whole point) — checked
    # before the brute-force sweep below materializes every block.
    assert len(array._blocks) < geometry.blocks
    brute = [
        array.erase_count(channel, die, block)
        for channel in range(geometry.channels)
        for die in range(geometry.dies_per_channel)
        for block in range(geometry.blocks_per_die)
    ]
    assert summary["min"] == float(min(brute)) == 0.0
    assert summary["max"] == float(max(brute)) == 2.0
    assert summary["mean"] == sum(brute) / len(brute)
    assert summary["total"] == float(sum(brute)) == 3.0
