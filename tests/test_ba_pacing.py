"""``BA_PIN`` / ``BA_FLUSH`` firmware pacing against the per-page pacing it
replaced.

The BA-buffer manager used to claim the firmware core once per page, all
claims up front, and wake twice per page: on the claim's grant and on the
page's timeout.  It now holds one claim per job and wakes only where a
page has work at its own instant, computing every instant with the same
float additions the timeout chain made; a run of never-written pages in a
pin costs one bulk zero-fill and no wake-up.  ``oracle_pin`` and
``oracle_flush`` are the replaced bodies kept verbatim (as functions of a
``BaBufferManager``).  The property builds one scenario twice — on one
platform per implementation — and demands exact equality of every job's
completion time, the order in which jobs got the core, the BA-DRAM bytes,
the FTL map, the NAND / FTL / BA statistics and, when traced, the tracer's
snapshot; before and after a crash at a drawn instant.

``oracle_trim`` is the per-page ``BlockSSD.trim`` loop the range trim
replaced, held to the same standard.
"""

import contextlib
import hashlib
import itertools
import sys
import types
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer as simsan
from repro.core.errors import PinConflictError
from repro.core.faults import kill_in_flight
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.sim.engine import Event
from tests.helpers import Platform

pytestmark = pytest.mark.oracle

PAGE = 4096
MAX_PAGES = 512          # per job; three jobs fit the 8 MiB BA-buffer
BLOCK_WRITER_LBA = 8192  # the concurrent block writer's range, clear of the jobs


# -- the replaced implementation, kept as the oracle -----------------------------


def oracle_pin(self, entry_id, offset, lba, length):
    npages = -(-length // self.params.page_size)
    if lba + npages > self.device.logical_pages:
        raise PinConflictError(
            f"LBA range [{lba}, +{npages}) exceeds device of "
            f"{self.device.logical_pages} pages"
        )
    entry = self.table.add(entry_id, offset, lba, length)
    engine = self.engine
    device = self.device
    params = self.params
    page_size = params.page_size
    plans = []
    for index in range(npages):
        lpn = entry.lba + index
        cached = device.cached_page(lpn)
        mapped = cached is not None or device.ftl.map.lookup(lpn) is not None
        plans.append((index, lpn, cached, mapped, self._firmware_core.request()))

    batch = device.flash.read_batch()
    done = 0
    waiter = None

    def landed(index, data):
        nonlocal done, waiter
        self.dram.write(entry.offset + index * page_size, data)
        done += 1
        if waiter is not None and done == npages:
            waiter._succeed_processed()

    try:
        for position, (index, lpn, cached, mapped, core_req) in enumerate(plans):
            yield core_req
            try:
                cost = (params.firmware_per_page if mapped
                        else params.firmware_per_unmapped_page)
                yield engine.timeout(cost)
            finally:
                self._firmware_core.release(core_req)
            if cached is not None:
                landed(index, cached)
            else:
                device.ftl.read_submit(lpn, batch, landed, token=index)
    except BaseException:
        for plan in plans[position + 1:]:
            self._firmware_core.release(plan[4])
        batch.close()
        raise
    if done < npages:
        waiter = Event(engine)
        yield waiter
        waiter = None
    yield from batch.drain()
    if simsan.enabled:
        simsan.check_mapping_table(self.device)
    self.stats.pins += 1
    self.stats.pages_pinned += npages
    return entry


def oracle_flush(self, entry_id):
    entry = self.table.get(entry_id)
    engine = self.engine
    device = self.device
    params = self.params
    page_size = params.page_size
    npages = -(-entry.length // page_size)
    core_reqs = [self._firmware_core.request() for _ in range(npages)]

    batch = device.flash.program_batch()
    submitted = 0
    done = 0
    waiter = None
    fallbacks = []

    def written(_token):
        nonlocal done, waiter
        done += 1
        if waiter is not None and done == submitted:
            waiter._succeed_processed()

    try:
        for index in range(npages):
            lpn = entry.lba + index
            core_req = core_reqs[index]
            yield core_req
            try:
                yield engine.timeout(params.firmware_per_page)
            finally:
                self._firmware_core.release(core_req)
            device.supersede_page(lpn)
            if lpn in device._destaging:
                yield from device.wait_destage(lpn)
            data = self.dram.read(entry.offset + index * page_size, page_size)
            fallback = device.ftl.write_submit(lpn, data, batch, on_done=written)
            if fallback is None:
                submitted += 1
            else:
                fallbacks.append(fallback)
    except BaseException:
        for core_req in core_reqs[index + 1:]:
            self._firmware_core.release(core_req)
        batch.close()
        raise
    if done < submitted:
        waiter = Event(engine)
        yield waiter
        waiter = None
    yield from batch.drain()
    if fallbacks:
        yield engine.all_of(fallbacks)
    self.table.remove(entry_id)
    if simsan.enabled:
        simsan.check_mapping_table(self.device)
    self.stats.flushes += 1
    self.stats.pages_flushed += npages
    return entry


def oracle_trim(device, lpn, npages):
    device._check_range(lpn, npages)
    for page in range(lpn, lpn + npages):
        device._dirty.pop(page, None)
        if page in device._destaging:
            device._trimmed_during_destage.add(page)
        ftl = device.ftl
        ftl._check_lpn(page)
        ppn = ftl.map.unbind(page)
        if ppn is not None:
            ftl._invalidate(ppn)


# -- one scenario, run on either implementation --------------------------------

STATES = ("never", "written", "dirty", "destaging")


def pages_of(runs, npages):
    """Expand ``[(state, length), ...]`` to exactly ``npages`` states."""
    states = [state for state, length in runs for _ in range(length)]
    return (states + [runs[-1][0]] * npages)[:npages]


def content(lpn, generation):
    return bytes([(lpn * 7 + generation) % 251 + 1]) * PAGE


def _job_index():
    """The index of the ``job`` generator on the calling stack, if any."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code is job.__code__:
            return frame.f_locals["index"]
        frame = frame.f_back
    return None


def record_grants(core, grants):
    """Log ``(job, instant)`` of every firmware-core grant."""
    request = core.request

    def tagged():
        claim = request()
        index = _job_index()

        def granted(_event):
            grants.append((index, core.engine.now))

        if claim._processed:
            granted(claim)
        else:
            claim.callbacks.append(granted)
        return claim

    core.request = tagged


def job(index, api, kind, lba, npages, stagger, done):
    engine = api.engine
    if stagger:
        yield engine.timeout(stagger)
    if kind == "pin":
        yield from api.ba_pin(index, index * MAX_PAGES * PAGE, lba,
                              npages * PAGE)
    else:
        yield from api.ba_flush(index)
    done[index] = engine.now


def block_writer(device, writes, pages, gap):
    engine = device.engine
    for number in range(writes):
        lba = BLOCK_WRITER_LBA + number * pages
        yield from device.write(lba, b"".join(
            content(lba + page, 9) for page in range(pages)))
        yield engine.timeout(gap)


class Image(bytes):
    """BA-DRAM bytes: compared in full, printed as a digest."""

    def __repr__(self):
        return f"Image(blake2b={hashlib.blake2b(self).hexdigest()[:16]})"


# Mid-job, a pin's run of never-written pages is zero-filled and traced
# at the run's end rather than page by page, so a cut inside such a run
# finds the per-page path some unmapped-page reads ahead in the trace (the
# bytes agree: a fresh entry's buffer already reads as zeros).  Nothing
# reads an entry before its pin returns; observations at and after a cut
# leave those two trace entries out, every uncut run compares them.
UNMAPPED_READS = ("ftl.pagemap.lookups", "ftl.pagemap.read")


def observe(platform, done, grants, tracer, cut=False):
    device = platform.device
    traced = tracer.snapshot() if tracer is not None else None
    if traced is not None and cut:
        for section in traced.values():
            for name in UNMAPPED_READS:
                section.pop(name, None)
    first = {}
    for index, when in grants:
        first.setdefault(index, when)
    return {
        "now": platform.engine.now,
        "done": dict(done),
        "grants": list(first.items()),
        "dram": Image(device.ba_dram.snapshot()),
        "table": device.mapping_table.to_snapshot(),
        "l2p": dict(device.ftl.map._l2p),
        "nand": asdict(device.flash.stats),
        "ftl": asdict(device.ftl.stats),
        "ba": asdict(device.ba_manager.stats),
        "traced": traced,
    }


def run(scenario, oracle):
    """Build the scenario on a fresh platform; observations at the crash
    instant (or at quiescence) and after reboot and drain."""
    jobs, settle_us, writer, crash_us, traced = scenario
    platform = Platform(seed=11)
    engine, api, device = platform.engine, platform.api, platform.device
    manager = device.ba_manager
    if oracle:
        manager.pin = types.MethodType(oracle_pin, manager)
        manager.flush = types.MethodType(oracle_flush, manager)
    grants, done = [], {}
    record_grants(manager._firmware_core, grants)
    tracer = Tracer() if traced else None
    with tracing.activated(tracer) if traced else contextlib.nullcontext():
        layout = []
        for index, (kind, npages, runs, _stagger) in enumerate(jobs):
            lba = 1024 + index * (MAX_PAGES + 64)
            layout.append((lba, pages_of(runs, npages)))
        # Written pages reach NAND; mid-destage ones are written next and
        # given ``settle_us`` to be picked up; dirty ones land last.
        for state in ("written", "destaging", "dirty"):
            for lba, states in layout:
                page = 0
                for page_state, run_of in itertools.groupby(states):
                    length = len(list(run_of))
                    if page_state == state:
                        engine.run_process(device.write(lba + page, b"".join(
                            content(lba + page + i, 1) for i in range(length))))
                    page += length
            if state == "written":
                engine.run()
            if state == "destaging":
                engine.run(until=engine.now + settle_us * 1e-6)
        for index, (kind, npages, _runs, _stagger) in enumerate(jobs):
            if kind == "flush":
                lba = layout[index][0]
                engine.run_process(api.ba_pin(
                    index, index * MAX_PAGES * PAGE, lba, npages * PAGE))
                device.ba_dram.write(index * MAX_PAGES * PAGE, b"".join(
                    content(lba + page, 5) for page in range(npages)))
        started = engine.now
        for index, (kind, npages, _runs, stagger) in enumerate(jobs):
            engine.process(job(index, api, kind, layout[index][0], npages,
                               stagger * 1e-6, done))
        if writer is not None:
            engine.process(block_writer(device, *writer[:2], writer[2] * 1e-6))
        if crash_us is None:
            engine.run()
            return [observe(platform, done, grants, tracer)]
        engine.run(until=started + crash_us * 1e-6)
        at_crash = observe(platform, done, grants, tracer, cut=True)
        kill_in_flight(engine, [device])
        engine.run()
        return [at_crash, observe(platform, done, grants, tracer, cut=True)]


RUNS = st.lists(st.tuples(st.sampled_from(STATES), st.integers(1, 96)),
                min_size=1, max_size=8)
JOB = st.tuples(st.sampled_from(["pin", "flush"]),
                st.integers(1, 16) | st.integers(1, MAX_PAGES),
                RUNS, st.sampled_from([0, 0, 1, 3, 40]))
SCENARIO = st.tuples(
    st.lists(JOB, min_size=1, max_size=3),
    st.sampled_from([0, 2, 15, 60]),                       # settle, us
    st.none() | st.tuples(st.integers(1, 6), st.integers(1, 8),
                          st.sampled_from([0, 1, 5])),     # block writer
    st.none() | st.integers(0, 1500),                      # crash, us
    st.booleans(),                                         # traced
)


def check(scenario):
    assert run(scenario, oracle=False) == run(scenario, oracle=True)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(SCENARIO)
def test_pacing_matches_the_per_page_oracle(scenario):
    check(scenario)


@pytest.mark.soak
def test_pacing_matches_the_per_page_oracle_over_2000_examples():
    settings(max_examples=2000, deadline=None, derandomize=True,
             suppress_health_check=[HealthCheck.too_slow,
                                    HealthCheck.data_too_large])(
        given(SCENARIO)(check))()


class TestDirected:
    """Named shapes the property might draw rarely."""

    def test_three_queued_jobs_over_every_page_state(self):
        runs = [("never", 40), ("written", 9), ("dirty", 7), ("destaging", 5),
                ("never", 1), ("written", 1)]
        with simsan.activated():
            check(([("pin", 300, runs, 0), ("flush", 200, runs, 0),
                    ("pin", 1, [("never", 1)], 0)], 2, (4, 8, 0), None, True))

    def test_crash_while_a_job_waits_for_the_core(self):
        runs = [("written", 64)]
        check(([("pin", 512, runs, 0), ("pin", 512, runs, 0)], 0, None,
               100, False))

    def test_pin_of_a_never_written_range_wakes_once(self):
        platform = Platform(seed=11)
        engine = platform.engine
        before = engine._sequence
        engine.run_process(platform.api.ba_pin(0, 0, 1024, 256 * PAGE))
        # driver bootstrap, the ioctl, the core grant, the last page
        assert engine._sequence - before == 4
        assert platform.device.ba_dram._data is None  # nothing moved


# -- range trim -------------------------------------------------------------------


def trim_state(device):
    ftl = device.ftl
    return (list(device._dirty.items()), set(device._trimmed_during_destage),
            dict(ftl.map._l2p), dict(ftl.map._p2l),
            {key: set(pages) for key, pages in ftl._valid.items()})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 63), max_size=40), st.integers(0, 400),
       st.integers(0, 63), st.integers(0, 64))
def test_range_trim_matches_the_per_page_loop(written, settle_us, lpn, npages):
    npages = min(npages, 64 - lpn)
    states = []
    for trim in (lambda device: device.trim(lpn, npages),
                 lambda device: oracle_trim(device, lpn, npages)):
        platform = Platform(seed=3)
        engine, device = platform.engine, platform.device
        for page in written:
            engine.run_process(device.write(page, content(page, 2)))
        engine.run(until=engine.now + settle_us * 1e-6)
        trim(device)
        states.append(trim_state(device))
        engine.run()
        states.append(trim_state(device))
    assert states[0] == states[2] and states[1] == states[3]
