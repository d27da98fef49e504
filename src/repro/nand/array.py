"""Functional flash array with timing, wear, and protocol enforcement.

The array stores page contents sparsely: only programmed pages the FTL
still maps occupy memory (:meth:`FlashArray.discard`).  Channels and dies
are modeled as simulation resources so that concurrent operations contend
realistically: a die can run one operation at a time, and a channel is
occupied for the data-transfer portion of an operation while the die
continues the cell operation.

Protocol invariants enforced (violations raise :class:`NandProtocolError`):

* a page must be erased before it is programmed;
* pages within a block must be programmed in order (NAND constraint);
* erase operates on whole blocks;
* a block whose erase count exceeds the medium's endurance is worn out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.analysis import sanitizer as simsan
from repro.obs import tracing
from repro.sim import Engine, Resource, RngStreams, Store
from repro.sim.engine import Event, Process, Timeout
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming


class NandProtocolError(Exception):
    """Raised when an operation violates NAND programming rules."""


@dataclass(frozen=True)
class PageAddress:
    """Structured physical page coordinates."""

    channel: int
    die: int
    block: int
    page: int


@dataclass
class _BlockState:
    """Per-block bookkeeping: write pointer, erase count, liveness."""

    write_pointer: int = 0
    erase_count: int = 0
    programmed: set[int] = field(default_factory=set)


@dataclass
class FlashStats:
    """Operation counters for WAF / wear reporting."""

    page_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0
    read_retries: int = 0

    def reset(self) -> None:
        self.page_reads = 0
        self.page_programs = 0
        self.block_erases = 0
        self.read_retries = 0


class FlashArray:
    """A timing-accurate, data-bearing NAND flash array."""

    # Channel transfer: ONFI-class bus, ~800 MB/s per channel.
    CHANNEL_BYTES_PER_SEC = 800e6

    def __init__(
        self,
        engine: Engine,
        geometry: Optional[NandGeometry] = None,
        timing: Optional[NandTiming] = None,
        rng: Optional[RngStreams] = None,
        ecc: Optional["EccConfig"] = None,
    ) -> None:
        from repro.nand.ecc import EccConfig
        from repro.nand.timing import SLC_ZNAND

        self.engine = engine
        self.geometry = geometry or NandGeometry()
        self.timing = timing or SLC_ZNAND
        self.ecc = ecc or EccConfig()
        self._ecc_seed = (rng or RngStreams(0)).stream("ecc-seed").getrandbits(32)
        self._rng = (rng or RngStreams(0)).stream("nand")
        # Shared zero page: peek() returns it for a never-programmed page,
        # and an all-zero program stores it, instead of a page_size copy.
        self._zero_page = bytes(self.geometry.page_size)
        self._data: dict[int, bytes] = {}
        self._blocks: dict[tuple[int, int, int], _BlockState] = {}
        self._channels = [Resource(engine) for _ in range(self.geometry.channels)]
        self._dies = [
            Resource(engine)
            for _ in range(self.geometry.channels * self.geometry.dies_per_channel)
        ]
        # die index -> cell-op latency multiplier (fault injection: a
        # marginal die whose tR/tPROG/tBERS run slow).  Empty in normal
        # operation, and every timed site guards on that, so the healthy
        # path computes byte-identical timeouts with the dict absent.
        self._die_slowdown: dict[int, float] = {}
        # (ppn, erase_count) -> read retries.  raw_bit_errors is a pure
        # blake2b draw, so re-reads of a page at unchanged wear can reuse
        # the verdict instead of re-hashing on every submit.
        self._retry_cache: dict[tuple[int, int], int] = {}
        self.stats = FlashStats()
        # Geometry strides and a whole page's channel transfer time,
        # hoisted out of the per-page reservations and bodies.
        geometry = self.geometry
        self._pages = geometry.pages
        self._ppb = geometry.pages_per_block
        self._bpd = geometry.blocks_per_die
        self._dpc = geometry.dies_per_channel
        self._page_transfer = geometry.page_size / self.CHANNEL_BYTES_PER_SEC

    # -- helpers -------------------------------------------------------------

    def _block_state(self, channel: int, die: int, block: int) -> _BlockState:
        key = (channel, die, block)
        if key not in self._blocks:
            self._blocks[key] = _BlockState()
        return self._blocks[key]

    def _die_resource(self, channel: int, die: int) -> Resource:
        return self._dies[channel * self.geometry.dies_per_channel + die]

    def die_index(self, channel: int, die: int) -> int:
        """Flat die index (the key :meth:`set_die_slowdown` takes)."""
        return channel * self.geometry.dies_per_channel + die

    def set_die_slowdown(self, die_index: int, factor: float) -> None:
        """Multiply one die's cell-op latencies (tR/tPROG/tBERS) by
        ``factor``.  Channel transfer time is unaffected — the bus is
        healthy, the cells are slow.  Deterministic: the RNG draw per op
        is unchanged, only the sampled duration is scaled."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive, got {factor}")
        if not 0 <= die_index < len(self._dies):
            raise ValueError(f"die index {die_index} out of range")
        self._die_slowdown[die_index] = factor

    def clear_die_slowdown(self, die_index: Optional[int] = None) -> None:
        """Heal one slowed die (or all of them with no argument)."""
        if die_index is None:
            self._die_slowdown.clear()
        else:
            self._die_slowdown.pop(die_index, None)

    def reboot(self) -> None:
        """Reset transient controller state after a crash (bus/die arbiters
        whose holders died with the purged event queue)."""
        self._channels = [Resource(self.engine) for _ in range(self.geometry.channels)]
        self._dies = [
            Resource(self.engine)
            for _ in range(self.geometry.channels * self.geometry.dies_per_channel)
        ]

    def address(self, ppn: int) -> PageAddress:
        return PageAddress(*self.geometry.decompose(ppn))

    def _retries_for(self, ppn: int, erase_count: int) -> int:
        """Read retries needed for ``ppn`` at ``erase_count`` (memoized)."""
        key = (ppn, erase_count)
        cached = self._retry_cache.get(key)
        if cached is None:
            from repro.nand.ecc import raw_bit_errors, retries_needed

            errors = raw_bit_errors(self.ecc, ppn, erase_count,
                                    self.timing.endurance_cycles, self._ecc_seed)
            cached = retries_needed(self.ecc, errors)  # may raise UECC
            self._retry_cache[key] = cached
        return cached

    def wear_summary(self) -> dict[str, float]:
        """Erase-count distribution across all blocks (lifetime reporting).

        Only blocks that have seen activity carry state; the (possibly
        billions of) untouched blocks all sit at zero erases and are
        accounted for arithmetically instead of being materialized.
        """
        nblocks = self.geometry.blocks
        touched = [state.erase_count for state in self._blocks.values()]
        total = sum(touched)
        if touched:
            low = min(touched) if len(touched) == nblocks else 0
            high = max(touched)
        else:
            low = high = 0
        return {
            "min": float(low),
            "max": float(high),
            "mean": total / nblocks,
            "total": float(total),
        }

    def erase_count(self, channel: int, die: int, block: int) -> int:
        return self._block_state(channel, die, block).erase_count

    # -- state capture -------------------------------------------------------

    def capture_state(self) -> dict:
        """Snapshot array contents, wear state, stats, and the RNG stream.

        Plain data only (picklable); legal any time no timed operation is
        in flight — the platform-level snapshot enforces that by requiring
        kernel quiescence first.
        """
        return {
            "data": dict(self._data),
            "blocks": {
                key: (st.write_pointer, st.erase_count, sorted(st.programmed))
                for key, st in self._blocks.items()
            },
            "stats": {
                "page_reads": self.stats.page_reads,
                "page_programs": self.stats.page_programs,
                "block_erases": self.stats.block_erases,
                "read_retries": self.stats.read_retries,
            },
            "rng": self._rng.getstate(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore the plain-data state captured by :meth:`capture_state`.

        Pages are programmed strictly in write-pointer order, so
        re-inserting each ``programmed`` set in ascending page order
        reproduces the original insertion history exactly.
        """
        self._data = dict(state["data"])
        self._blocks = {
            key: _BlockState(wp, ec, set(prog))
            for key, (wp, ec, prog) in state["blocks"].items()
        }
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self._rng.setstate(state["rng"])

    def is_programmed(self, ppn: int) -> bool:
        addr = self.address(ppn)
        return addr.page in self._block_state(addr.channel, addr.die, addr.block).programmed

    def peek(self, ppn: int) -> bytes:
        """Read page contents without timing (for assertions and recovery
        dumps).  A never-programmed or discarded page reads as the shared
        zero page."""
        return self._data.get(ppn, self._zero_page)

    def discard(self, ppn: int) -> None:
        """Forget a programmed page's bytes (the FTL no longer maps it).
        Its protocol state stays: it is still programmed, so it refuses a
        program until its block is erased."""
        self._data.pop(ppn, None)

    def _page_image(self, data: bytes) -> bytes:
        """What a programmed page stores: ``data`` padded to a whole
        page — or the shared zero page when it is all zeros, so a flush
        of never-written buffer pages costs no host memory per page."""
        if len(data) != self.geometry.page_size:
            data = bytes(data) + bytes(self.geometry.page_size - len(data))
        elif type(data) is not bytes:
            data = bytes(data)
        return self._zero_page if data == self._zero_page else data

    # -- timed operations (simulation processes) ------------------------------
    #
    # Each page operation has one reservation step and one timed body, run
    # by a batch (below).  The reservation checks the page, fixes what the
    # operation will do (read retries, transfer time) and creates the die
    # request, which claims the page's FIFO slot on its die at that
    # instant: a batch reserves at ``submit()``.  The body, which the
    # batch's die worker runs, holds the die for the timed sequence, then
    # counts, traces and calls the completion callback.

    def _reserve_read(self, ppn: int, on_data=None, token=None) -> tuple:
        """Check ``ppn``, look up its read retries (may raise UECC) and
        claim its read slot on its die now: the item :meth:`_read` runs."""
        if not 0 <= ppn < self._pages:
            raise ValueError(f"ppn {ppn} out of range [0, {self._pages})")
        block_index, page = divmod(ppn, self._ppb)
        die_index, block = divmod(block_index, self._bpd)
        state = self._block_state(die_index // self._dpc, die_index % self._dpc, block)
        retries = 0
        if page in state.programmed:
            retries = self._retries_for(ppn, state.erase_count)
        t0 = self.engine.now if tracing.enabled else 0.0
        return (die_index, self._dies[die_index].request(), ppn, retries, t0,
                on_data, token)

    def _read(self, item: tuple) -> Iterator[Event]:
        """The timed body of one page read: sense (one more tR per retry)
        and transfer under the die hold, then stats, tracing and
        ``on_data(token, data)``.  Returns the page's contents."""
        die_index, die_req, ppn, retries, t0, on_data, token = item
        engine = self.engine
        die_res = die_req.resource
        # handoff: converting moves test_ftl racing-read-vs-GC instants
        yield die_req
        addr = None
        if simsan.enabled:
            addr = self.address(ppn)
            simsan.die_op_begin(self, addr, die_res, die_req, "read")
        try:
            # Consult the slowdown map per op: a die can sicken or heal
            # while a batch's pages wait for it.
            slow = self._die_slowdown
            factor = slow.get(die_index, 1.0) if slow else 1.0
            for _sense in range(1 + retries):
                sense = self.timing.sample_read(self._rng)
                if factor != 1.0:
                    sense *= factor
                yield Timeout(engine, sense)
            channel_res = self._channels[die_index // self._dpc]
            chan_req = channel_res.request()
            # handoff: converting renumbers test_nand_batch oracle sequences
            yield chan_req
            try:
                yield Timeout(engine, self._page_transfer)
            finally:
                channel_res.release(chan_req)
        finally:
            if addr is not None:
                simsan.die_op_end(self, addr, die_res, die_req, "read")
            die_res.release(die_req)
        stats = self.stats
        stats.page_reads += 1
        if retries:
            stats.read_retries += retries
        if tracing.enabled:
            tracing.observe("nand.array.read", engine.now - t0)
        data = self._data.get(ppn, self._zero_page)
        if on_data is not None:
            on_data(token, data)
        return data

    def _reserve_program(self, ppn: int, data: bytes, on_done=None,
                         token=None) -> tuple:
        """Check the payload and ``ppn`` and claim the program's slot on
        its die now: the item :meth:`_program` runs."""
        nbytes = len(data)
        if nbytes > self.geometry.page_size:
            raise ValueError(
                f"data of {nbytes} bytes exceeds page size {self.geometry.page_size}"
            )
        if not 0 <= ppn < self._pages:
            raise ValueError(f"ppn {ppn} out of range [0, {self._pages})")
        block_index, page = divmod(ppn, self._ppb)
        die_index, block = divmod(block_index, self._bpd)
        t0 = self.engine.now if tracing.enabled else 0.0
        return (die_index, self._dies[die_index].request(), ppn, block, page, data,
                nbytes / self.CHANNEL_BYTES_PER_SEC, t0, on_done, token)

    def _program(self, item: tuple) -> Iterator[Event]:
        """The timed body of one page program: protocol checks, transfer
        and tPROG under the die hold, then the page image, stats, tracing
        and ``on_done(token)``."""
        die_index, die_req, ppn, block, page, data, transfer, t0, on_done, token = item
        engine = self.engine
        channel, die = divmod(die_index, self._dpc)
        # Looked up as the body starts, not at reservation: a batch first
        # touches a block's state in the order its worker dequeues pages.
        state = self._block_state(channel, die, block)
        die_res = die_req.resource
        # handoff: converting moves test_ftl racing-read-vs-GC instants
        yield die_req
        addr = None
        if simsan.enabled:
            addr = PageAddress(channel, die, block, page)
            simsan.die_op_begin(self, addr, die_res, die_req, "program")
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
            # handoff: converting renumbers test_nand_batch oracle sequences
            yield chan_req
            try:
                yield Timeout(engine, transfer)
            finally:
                channel_res.release(chan_req)
            program = self.timing.sample_program(self._rng)
            slow = self._die_slowdown
            if slow:
                program *= slow.get(die_index, 1.0)
            yield Timeout(engine, program)
        finally:
            if addr is not None:
                simsan.die_op_end(self, addr, die_res, die_req, "program")
            die_res.release(die_req)
        self._data[ppn] = self._page_image(data)
        state.programmed.add(page)
        state.write_pointer = page + 1
        self.stats.page_programs += 1
        if tracing.enabled:
            tracing.observe("nand.array.program", engine.now - t0)
        if on_done is not None:
            on_done(token)

    # -- batched operations ---------------------------------------------------
    #
    # A batch runs its pages on one worker process per die touched, not
    # one process per page.  Completion values are delivered through
    # ``on_data``/``on_done`` callbacks invoked at each page's completion
    # instant, which lets callers stream submissions (BA pin/flush pacing,
    # destage, GC relocation) without one continuation process per page.

    def read_batch(self) -> "NandReadBatch":
        """Return a streaming batch for timed multi-page reads."""
        return NandReadBatch(self)

    def program_batch(self) -> "NandProgramBatch":
        """Return a streaming batch for timed multi-page programs."""
        return NandProgramBatch(self)

    def erase_block(self, channel: int, die: int, block: int) -> Iterator[Event]:
        """Process: erase a whole block, resetting its write pointer."""
        self.geometry.validate_address(channel, die, block, 0)
        state = self._block_state(channel, die, block)
        if state.erase_count >= self.timing.endurance_cycles:
            raise NandProtocolError(
                f"block ({channel},{die},{block}) worn out after "
                f"{state.erase_count} erase cycles"
            )
        if tracing.enabled:
            _t0 = self.engine.now
        die_res = self._die_resource(channel, die)
        die_req = die_res.request()
        # handoff: converting moves test_ftl racing-read-vs-GC instants
        yield die_req
        erase_addr = PageAddress(channel, die, block, 0)
        if simsan.enabled:
            simsan.die_op_begin(self, erase_addr, die_res, die_req, "erase")
        try:
            erase = self.timing.sample_erase(self._rng)
            slow = self._die_slowdown
            if slow:
                erase *= slow.get(self.die_index(channel, die), 1.0)
            yield self.engine.timeout(erase)
        finally:
            if simsan.enabled:
                simsan.die_op_end(self, erase_addr, die_res, die_req, "erase")
            die_res.release(die_req)
        base = self.geometry.ppn(channel, die, block, 0)
        for page in state.programmed:
            self._data.pop(base + page, None)
        state.programmed.clear()
        state.write_pointer = 0
        state.erase_count += 1
        self.stats.block_erases += 1
        if tracing.enabled:
            tracing.observe("nand.array.erase", self.engine.now - _t0)


class _NandBatch:
    """Shared fan-out plumbing for :class:`NandReadBatch`/:class:`NandProgramBatch`.

    One lazily spawned worker process per die touched; each worker drains
    a per-die FIFO of reserved page operations and runs the array's timed
    body on each.  Die slots are reserved at :meth:`submit` time, so a
    worker merely *consumes* an arbitration position its page already
    holds.  A failed body closes the batch: later submits raise, and the
    failed die's queued pages give their die slots back.
    """

    __slots__ = ("engine", "_queues", "_workers", "_closed", "_reserve", "_body")

    def __init__(self, array: FlashArray, reserve: Callable[..., tuple],
                 body: Callable[[tuple], Iterator[Event]]) -> None:
        self.engine = array.engine
        self._queues: dict[int, Store] = {}
        self._workers: list[Process] = []
        self._closed = False
        self._reserve = reserve
        self._body = body

    def _enqueue(self, *args) -> None:
        if self._closed:
            raise SimulationBatchClosed("submit() on a closed NAND batch")
        item = self._reserve(*args)
        queue = self._queues.get(item[0])
        if queue is None:
            queue = self._spawn(item[0])
        queue.put(item)

    def _spawn(self, die_index: int) -> Store:
        queue = self._queues[die_index] = Store(self.engine)
        self._workers.append(self.engine.process(
            self._worker(queue), name=f"{type(self).__name__}[die{die_index}]"))
        return queue

    def _worker(self, queue: Store) -> Iterator[Event]:
        body = self._body
        get = queue.get
        while True:
            got = get()
            item = got._value if got._processed else (yield got)
            if item is None:
                return
            try:
                yield from body(item)
            except BaseException:
                # The body failed or its completion callback raised.
                self.close()
                self._abort(queue)
                raise

    def prime(self, die_indices: "list[int]") -> None:
        """Recreate the per-die queue/worker pairs for ``die_indices``.

        Used by the snapshot/restore protocol: a lazily created worker
        costs two kernel sequence numbers on its first submission (process
        bootstrap plus the buffered get) where a parked worker costs one
        (the put-side wake-up).  Priming the dies that had workers at
        capture time — in captured order — makes every post-restore
        submission consume exactly the sequence numbers the original run
        would have, keeping same-time event ordering identical.
        """
        for die_index in die_indices:
            if die_index not in self._queues:
                self._spawn(die_index)

    def _abort(self, queue: Store) -> None:
        """Cancel the die reservations of not-yet-started items after a
        failure, so the die is not deadlocked for unrelated traffic."""
        while len(queue):
            item = queue.get()._value
            if item is not None:
                die_req = item[1]
                die_req.resource.release(die_req)

    def close(self) -> None:
        """Signal the end of submissions; idle workers terminate."""
        if self._closed:
            return
        self._closed = True
        for queue in self._queues.values():
            queue.put(None)

    def drain(self) -> Iterator[Event]:
        """Process fragment: close the batch and wait for every worker.

        Use via ``yield from batch.drain()`` inside the driving process.
        """
        self.close()
        if self._workers:
            yield self.engine.all_of(self._workers)


class SimulationBatchClosed(Exception):
    """Raised when pages are submitted to an already-drained batch."""


class NandReadBatch(_NandBatch):
    """Streaming multi-page read: submit pages as they become known.

    ``on_data(token, data)`` runs at the page's completion instant.
    """

    __slots__ = ()

    def __init__(self, array: FlashArray) -> None:
        super().__init__(array, array._reserve_read, array._read)

    def submit(self, ppn: int, on_data: Optional[Callable[[object, bytes], None]] = None,
               token: object = None) -> None:
        self._enqueue(ppn, on_data, token)


class NandProgramBatch(_NandBatch):
    """Streaming multi-page program: submit ``(ppn, data)`` as produced.

    ``on_done(token)`` runs at the page's completion instant.  Protocol
    checks run under the die hold.
    """

    __slots__ = ()

    def __init__(self, array: FlashArray) -> None:
        super().__init__(array, array._reserve_program, array._program)

    def submit(self, ppn: int, data: bytes,
               on_done: Optional[Callable[[object], None]] = None,
               token: object = None) -> None:
        self._enqueue(ppn, data, on_done, token)
