"""Host memory follows the bytes the model wrote.

``ByteRegion`` is backed by a private anonymous mapping: the OS backs a
page only once it is written, ``zero()`` hands whole pages back, and a
forked worker's writes stay in the worker.  ``FlashArray`` stores an
all-zero programmed page as its one shared zero page.

``OracleRegion`` is the ``bytearray`` region this replaced, kept verbatim.
The property drives the same operations — writes, zeros of ragged ends,
page-aligned runs and the whole region, reads, snapshots, restores,
clears, and posted bursts landing between them — through both, each on
its own engine and link, and demands every read and snapshot agree.
The budget tests read the page table (``scripts/_meter.py``'s
``resident_kib``) and skip where Linux's ``/proc`` is absent.
"""

import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer as simsan
from repro.cluster import DevicePool
from repro.db.memkv.commands import Command
from repro.gateway import GatewayConfig, GatewayServer, encode_request
from repro.gateway.protocol import FrameDecoder
from repro.host import ByteRegion
from repro.nand.array import FlashArray
from repro.pcie import PcieLink
from repro.sim import Engine
from repro.sim.units import NSEC

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))
from _meter import resident_kib  # noqa: E402  (scripts/_meter.py)

PAGE = 4096
MiB = 1 << 20
REGION_BYTES = 8 * PAGE
LINE = 64


# -- the replaced implementation, kept as the oracle ------------------------------


class OracleRegion:
    """``ByteRegion`` on a lazily allocated ``bytearray``, verbatim."""

    def __init__(self, name: str, size: int) -> None:
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.name = name
        self.size = size
        self._data: bytearray | None = None
        self._inbound = None

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"access [{offset}, +{nbytes}) outside region {self.name!r} of {self.size} bytes"
            )

    def _settle_inbound(self) -> None:
        """Bring the bytes up to date with the inbound link (which is set)."""
        link = self._inbound
        link.settle()
        if simsan.enabled:
            simsan.check_settled(link, self)

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            self._data = bytearray(self.size)
        self._data[offset:offset + len(data)] = data

    def zero(self, offset: int, nbytes: int) -> None:
        """A write of zeros that allocates nothing while the region is untouched."""
        if self._data is None and self._inbound is None:
            self._check(offset, nbytes)
        else:
            self.write(offset, bytes(nbytes))

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            return bytes(nbytes)
        return bytes(memoryview(self._data)[offset:offset + nbytes])

    def snapshot(self) -> bytes:
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            return bytes(self.size)
        return bytes(self._data)

    def restore(self, image: bytes) -> None:
        if len(image) != self.size:
            raise ValueError(
                f"restore image of {len(image)} bytes does not match region size {self.size}"
            )
        if self._inbound is not None:
            self._settle_inbound()
        if self._data is None:
            self._data = bytearray(image)
        else:
            self._data[:] = image

    def clear(self) -> None:
        if self._inbound is not None:
            self._settle_inbound()
        self._data = None


# -- the property -------------------------------------------------------------------


OFFSETS = st.integers(0, REGION_BYTES)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), OFFSETS, st.integers(0, 3 * PAGE),
                  st.integers(1, 255)),
        st.tuples(st.just("zero"), OFFSETS, st.integers(0, 3 * PAGE)),
        st.tuples(st.just("zero_pages"), st.integers(0, 8), st.integers(0, 8)),
        st.just(("zero_whole",)),
        st.tuples(st.just("read"), OFFSETS, st.integers(0, 3 * PAGE)),
        st.just(("snapshot",)),
        st.tuples(st.just("restore"), st.integers(0, 255)),
        st.just(("clear",)),
        # A posted run of 64-byte TLPs; the kernel then runs for a while,
        # so later operations meet it landed, in flight or half landed.
        st.tuples(st.just("burst"), st.integers(0, REGION_BYTES // LINE - 1),
                  st.integers(1, 40), st.integers(1, 255),
                  st.integers(0, 400)),
    ),
    min_size=1, max_size=30,
)


class _Twin:
    """One region on its own engine and link."""

    def __init__(self, region) -> None:
        self.engine = Engine()
        self.link = PcieLink(self.engine)
        self.region = region
        self.seen: list = []

    def step(self, op) -> None:
        region, kind = self.region, op[0]
        if kind == "write":
            _kind, offset, length, fill = op
            length = min(length, REGION_BYTES - offset)
            region.write(offset, bytes([fill]) * length)
        elif kind == "zero":
            _kind, offset, length = op
            region.zero(offset, min(length, REGION_BYTES - offset))
        elif kind == "zero_pages":
            first, last = sorted(op[1:])
            region.zero(first * PAGE, (last - first) * PAGE)
        elif kind == "zero_whole":
            region.zero(0, REGION_BYTES)
        elif kind == "read":
            _kind, offset, length = op
            self.seen.append(region.read(offset,
                                         min(length, REGION_BYTES - offset)))
        elif kind == "snapshot":
            self.seen.append(region.snapshot())
        elif kind == "restore":
            region.restore(bytes([op[1]]) * (REGION_BYTES // 2)
                           + bytes(REGION_BYTES // 2))
        elif kind == "clear":
            region.clear()
        else:
            _kind, line, lines, fill, run_ns = op
            lines = min(lines, REGION_BYTES // LINE - line)
            self.link.posted_burst([(LINE, region, line * LINE,
                                     bytes([fill]) * (lines * LINE))])
            self.engine.run(until=self.engine.now + run_ns * NSEC)


def check_against_the_oracle(ops) -> None:
    new = _Twin(ByteRegion("ba-dram", REGION_BYTES))
    old = _Twin(OracleRegion("ba-dram", REGION_BYTES))
    for op in ops:
        new.step(op)
        old.step(op)
        assert new.seen == old.seen
    assert new.region.snapshot() == old.region.snapshot()
    new.engine.run()
    old.engine.run()
    assert new.region.snapshot() == old.region.snapshot()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
def test_any_sequence_reads_what_the_bytearray_region_reads(ops):
    check_against_the_oracle(ops)


@pytest.mark.soak
def test_any_sequence_reads_what_the_bytearray_region_reads_over_2000_examples():
    settings(max_examples=2000, deadline=None, derandomize=True,
             suppress_health_check=[HealthCheck.too_slow])(
        given(OPS)(check_against_the_oracle))()


def test_zero_settles_first_so_only_later_landings_overwrite_it():
    """Half a posted run has landed when the zero comes: those lines are
    zeroed, the lines landing after it are not."""
    engine = Engine()
    link = PcieLink(engine)
    region = ByteRegion("ba-dram", REGION_BYTES)
    lines = 32
    link.posted_burst([(LINE, region, 0, b"\x5a" * (lines * LINE))])
    run = link._inflight[0]
    engine.run(until=(run.first + run.last) / 2)
    region.zero(0, REGION_BYTES)
    engine.run()
    image = region.snapshot()
    landed = image.index(b"\x5a")
    assert 0 < landed < lines * LINE and landed % LINE == 0
    assert image == bytes(landed) + b"\x5a" * (lines * LINE - landed) \
        + bytes(REGION_BYTES - lines * LINE)


# -- MAP_PRIVATE: a forked worker writes into its own copy ------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_cannot_write_into_its_parents_region():
    region = ByteRegion("ba-dram", REGION_BYTES)
    region.write(0, b"parent" * 1000)
    before = region.snapshot()
    pid = os.fork()
    if pid == 0:  # the child: write, zero, and report whether it saw both
        try:
            region.write(PAGE, b"child!" * 600)
            region.zero(0, PAGE)
            ok = (region.read(0, PAGE) == bytes(PAGE)
                  and region.read(PAGE, 6) == b"child!")
        finally:
            os._exit(0 if ok else 1)
    _pid, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert region.snapshot() == before


# -- NAND: one shared zero page ---------------------------------------------------


def test_an_all_zero_program_stores_the_shared_zero_page():
    engine = Engine()
    flash = FlashArray(engine)
    page = flash.geometry.page_size
    data = bytes(range(256)) * (page // 256)
    engine.run_process(flash.program_page(0, bytes(page)))
    engine.run_process(flash.program_page(1, bytearray(page // 2)))  # padded
    engine.run_process(flash.program_page(2, data))
    batch = flash.program_batch()
    batch.submit(3, memoryview(bytes(page)))
    batch.submit(4, data)
    engine.run_process(batch.drain())
    for ppn in (0, 1, 3):
        assert flash.peek(ppn) is flash._zero_page
    for ppn in (2, 4):
        assert flash.peek(ppn) == data and flash.peek(ppn) is not flash._zero_page
    assert flash.stats.page_programs == 5


# -- budgets: what the OS really backs --------------------------------------------


def _resident_or_skip(buffer) -> int:
    kib = resident_kib(buffer)
    if kib is None:
        pytest.skip("no /proc/self/pagemap: not Linux")
    return kib


def test_a_gateway_holds_only_the_bytes_it_logged():
    """300 SETs of 64 B through a default 3-node gateway: each node's 8 MiB
    BA-DRAM is resident at <= 128 KiB (a bytearray backing is 8 MiB)."""
    pool = DevicePool(devices=3, seed=1)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())

    def client():
        conn = yield from server.accept()
        decoder = FrameDecoder()
        for seq in range(300):
            conn.c2s.send(encode_request(Command.SET, f"k{seq}", b"v" * 64))
            while not decoder.feed((yield conn.s2c.recv(4096))):
                pass

    engine.run_process(client())
    engine.run()
    for node in pool.nodes.values():
        dram = node.platform.device.ba_dram
        assert dram.size == 8 * MiB
        assert _resident_or_skip(dram._data) <= 128, node.name


def test_zero_hands_a_written_half_back_to_the_os():
    region = ByteRegion("ba-dram", 8 * MiB)
    region.write(MiB, b"\xab" * MiB)
    assert _resident_or_skip(region._data) >= 1024
    region.zero(MiB, MiB)
    assert _resident_or_skip(region._data) <= 8
    assert region.read(MiB, MiB) == bytes(MiB)
