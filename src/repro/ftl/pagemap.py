"""Page-level FTL with out-of-place writes and greedy garbage collection.

Logical space is exposed as 4 KiB logical pages (the paper's LBA unit:
"one or multiple 4 KB pages", §III-C).  Host writes always go to fresh
physical pages; the previous physical page becomes stale and is reclaimed
by greedy GC (victim = fewest valid pages).  Relocations during GC count
toward write amplification:

    WAF = (host page programs + GC page programs) / host page programs

which is the quantity §IV-A argues BA-WAL improves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs import tracing
from repro.sim import Engine, Resource, Store
from repro.sim.engine import Event
from repro.nand.array import FlashArray
from repro.ftl.mapping import MappingTable, keys_in_range


class FtlCapacityError(Exception):
    """Raised when the logical space is exhausted or GC cannot reclaim."""


@dataclass
class FtlStats:
    """Write-amplification accounting."""

    host_pages_written: int = 0
    gc_pages_written: int = 0
    gc_runs: int = 0
    background_gc_runs: int = 0
    foreground_gc_stalls: int = 0
    pages_scrubbed: int = 0
    blocks_erased: int = 0

    @property
    def waf(self) -> float:
        if self.host_pages_written == 0:
            return 1.0
        return (self.host_pages_written + self.gc_pages_written) / self.host_pages_written


class _DieAllocator:
    """Per-die block pool: one active block plus a FIFO of free blocks."""

    def __init__(self, channel: int, die: int, blocks: list[int]) -> None:
        self.channel = channel
        self.die = die
        self.free_blocks: deque[int] = deque(blocks)
        self.active_block: Optional[int] = None
        self.next_page = 0

    def has_space(self, pages_per_block: int) -> bool:
        if self.active_block is not None and self.next_page < pages_per_block:
            return True
        return bool(self.free_blocks)


class PageMapFTL:
    """The translation layer mapping logical pages onto a :class:`FlashArray`."""

    def __init__(
        self,
        engine: Engine,
        flash: FlashArray,
        overprovision: float = 0.20,
    ) -> None:
        if not 0.05 <= overprovision < 0.9:
            raise ValueError(f"overprovision must be in [0.05, 0.9), got {overprovision}")
        self.engine = engine
        self.flash = flash
        geometry = flash.geometry
        self.page_size = geometry.page_size
        self.logical_pages = int(geometry.pages * (1.0 - overprovision))
        self.map = MappingTable()
        self.stats = FtlStats()
        self._valid: dict[tuple[int, int, int], set[int]] = {}
        self._full_blocks: list[tuple[int, int, int]] = []
        # Full blocks a crash left short of their last programs.
        self._stranded: set[tuple[int, int, int]] = set()
        # The GC victim taken off ``_full_blocks`` and not yet erased.
        self._victim: Optional[tuple[int, int, int]] = None
        self._dies: list[_DieAllocator] = []
        for channel in range(geometry.channels):
            for die in range(geometry.dies_per_channel):
                self._dies.append(
                    _DieAllocator(channel, die, list(range(geometry.blocks_per_die)))
                )
        # Free-block count maintained incrementally: the per-page submit
        # paths consult it on every page, so recomputing the sum across
        # dies each time dominates sustained-write profiles.
        self._free_block_count = sum(len(die.free_blocks) for die in self._dies)
        self._next_die = 0
        self._gc_lock = Resource(engine)
        self._gc_low_watermark = max(2, len(self._dies))
        self._gc_high_watermark = self._gc_low_watermark + len(self._dies)
        # Background GC starts reclaiming before the foreground watermark
        # is hit, so host writes rarely stall on inline collection.
        self._bg_watermark = self._gc_high_watermark + len(self._dies)
        self._bg_signal = Store(engine)
        self._bg_kicked = False
        # The program batch :meth:`write` streams through, created lazily
        # at its first call and reused for every page thereafter.
        self._fallback_batch = None
        engine.process(self._background_gc_loop(), name="ftl-background-gc")

    def reboot(self) -> None:
        """Rebuild transient state after a crash.

        Allocation pointers re-sync to the NAND blocks' actual write
        pointers (pages that were allocated but never programmed before
        the crash are skipped, as real firmware does on power-up), and
        the GC lock is recreated (its holder died with the event queue).
        A full block whose last programs died is stranded: those pages
        will never be programmed, so they no longer keep it from GC.  A
        GC victim whose erase never completed is full again: its valid
        set is intact, since each relocated page moves in one step.
        """
        self._gc_lock = Resource(self.engine)
        self._bg_signal = Store(self.engine)
        self._bg_kicked = False
        # The pre-crash fallback batch's die workers died with the purged
        # event queue; recreate lazily on the next stall.
        self._fallback_batch = None
        self.engine.process(self._background_gc_loop(), name="ftl-background-gc")
        self._return_victim()
        pages_per_block = self.flash.geometry.pages_per_block
        self._stranded.update(
            key for key in self._full_blocks
            if self.flash._block_state(*key).write_pointer < pages_per_block)
        for die in self._dies:
            if die.active_block is not None:
                state = self.flash._block_state(die.channel, die.die, die.active_block)
                # NAND programs strictly at its write pointer; allocated-
                # but-never-programmed pages are simply reused.
                die.next_page = state.write_pointer

    # -- state capture --------------------------------------------------------

    def capture_state(self) -> dict:
        """Snapshot mapping, valid sets, allocators, and GC bookkeeping.

        Legal only while no write/GC is in flight and the background loop
        sits parked on its signal store (``_bg_kicked`` False) — i.e. at
        kernel quiescence.  The L2P/P2L dicts are copied verbatim so
        ``live_pages()`` iteration order (which :meth:`scrub` depends on)
        survives the round trip, and ``_full_blocks`` order is preserved
        because victim selection breaks ties by scan position.
        """
        if self._bg_kicked:
            raise RuntimeError("FTL capture with background GC signalled")
        return {
            "l2p": dict(self.map._l2p),
            "p2l": dict(self.map._p2l),
            "stats": {
                "host_pages_written": self.stats.host_pages_written,
                "gc_pages_written": self.stats.gc_pages_written,
                "gc_runs": self.stats.gc_runs,
                "background_gc_runs": self.stats.background_gc_runs,
                "foreground_gc_stalls": self.stats.foreground_gc_stalls,
                "pages_scrubbed": self.stats.pages_scrubbed,
                "blocks_erased": self.stats.blocks_erased,
            },
            "valid": {key: sorted(pages) for key, pages in self._valid.items()},
            "full_blocks": list(self._full_blocks),
            "dies": [
                (list(die.free_blocks), die.active_block, die.next_page)
                for die in self._dies
            ],
            "next_die": self._next_die,
        }

    def restore_state(self, state: dict) -> None:
        """Restore the state captured by :meth:`capture_state` onto a
        freshly constructed FTL (same geometry, background loop parked)."""
        self.map._l2p = dict(state["l2p"])
        self.map._p2l = dict(state["p2l"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self._valid = {key: set(pages) for key, pages in state["valid"].items()}
        self._full_blocks = list(state["full_blocks"])
        for die, (free, active, next_page) in zip(self._dies, state["dies"]):
            die.free_blocks = deque(free)
            die.active_block = active
            die.next_page = next_page
        self._next_die = state["next_die"]
        self._free_block_count = sum(len(die.free_blocks) for die in self._dies)

    # -- introspection --------------------------------------------------------

    @property
    def total_free_blocks(self) -> int:
        return self._free_block_count

    def peek(self, lpn: int) -> bytes:
        """Read logical page contents without timing (assertion helper).
        An unmapped page reads as the flash's one shared zero page: a
        block read over never-written pages allocates nothing per page."""
        ppn = self.map.lookup(lpn)
        if ppn is None:
            return self.flash._zero_page
        return self.flash.peek(ppn)

    def check_consistency(self) -> None:
        """Assert map and valid-set invariants (used by property tests)."""
        self.map.check_consistency()
        counted = sum(len(pages) for pages in self._valid.values())
        if counted != len(self.map):
            raise AssertionError(
                f"valid-page count {counted} != mapped logical pages {len(self.map)}"
            )
        actual_free = sum(len(die.free_blocks) for die in self._dies)
        if actual_free != self._free_block_count:
            raise AssertionError(
                f"free-block counter {self._free_block_count} != actual {actual_free}"
            )
        # Every block is free, active, full or GC's victim, exactly once
        # (at quiescence there is no victim).
        blocks = list(self._full_blocks)
        if self._victim is not None:
            blocks.append(self._victim)
        for die in self._dies:
            blocks += [(die.channel, die.die, block) for block in
                       [*die.free_blocks, die.active_block] if block is not None]
        geometry = self.flash.geometry
        if sorted(blocks) != [(die.channel, die.die, block) for die in self._dies
                              for block in range(geometry.blocks_per_die)]:
            raise AssertionError(
                f"{len(blocks)} blocks free, active, full or collected "
                f"({len(set(blocks))} distinct) of "
                f"{len(self._dies) * geometry.blocks_per_die}")
        # At quiescence the array holds bytes for exactly the mapped pages.
        if self.flash._data.keys() != self.map._p2l.keys():
            raise AssertionError(
                f"{len(self.flash._data)} NAND page images != "
                f"{len(self.map)} mapped pages")

    # -- allocation ------------------------------------------------------------

    def _allocate_page(self) -> int:
        """Pick the next physical page, striping round-robin across dies."""
        geometry = self.flash.geometry
        for _ in range(len(self._dies)):
            die = self._dies[self._next_die]
            self._next_die = (self._next_die + 1) % len(self._dies)
            if die.active_block is not None and die.next_page >= geometry.pages_per_block:
                self._full_blocks.append((die.channel, die.die, die.active_block))
                die.active_block = None
            if die.active_block is None:
                if not die.free_blocks:
                    continue
                die.active_block = die.free_blocks.popleft()
                self._free_block_count -= 1
                die.next_page = 0
            page = die.next_page
            die.next_page += 1
            return geometry.ppn(die.channel, die.die, die.active_block, page)
        raise FtlCapacityError("no free physical pages; GC failed to keep up")

    def _invalidate(self, ppn: int) -> None:
        """``ppn`` is stale: nothing maps it, so its bytes go too.  Every
        read of NAND bytes names a mapped PPN and re-checks the mapping
        after the media read, so a dropped image is never delivered."""
        channel, die, block, page = self.flash.geometry.decompose(ppn)
        pages = self._valid.get((channel, die, block))
        if pages is not None:
            pages.discard(page)
        self.flash.discard(ppn)

    def _mark_valid(self, ppn: int) -> None:
        channel, die, block, page = self.flash.geometry.decompose(ppn)
        self._valid.setdefault((channel, die, block), set()).add(page)

    # -- host operations ---------------------------------------------------------

    def write(self, lpn: int, data: bytes) -> Iterator[Event]:
        """Process: write one logical page out-of-place.

        Background GC is nudged as the pool shrinks; only when it falls
        behind (below the low watermark) does the write stall on inline
        foreground collection.  The program streams through one shared
        batch (``_fallback_batch``, made at the first call and dropped at
        reboot), so a burst of writes — a flush or destage train stalling
        under the low watermark, which :meth:`write_submit` hands here —
        costs one GC plus O(dies) workers, not a process per page.
        """
        self._check_lpn(lpn)
        if len(data) > self.page_size:
            raise ValueError(f"page write of {len(data)} bytes exceeds {self.page_size}")
        t0 = self.engine.now if tracing.enabled else 0.0
        free = self._free_block_count
        if free < self._bg_watermark:
            self._kick_background_gc()
        if free < self._gc_low_watermark:
            self.stats.foreground_gc_stalls += 1
            yield from self._collect_garbage()
        batch = self._fallback_batch
        if batch is None:
            batch = self._fallback_batch = self.flash.program_batch()
        done = self.engine.event()
        self._submit_write(lpn, data, batch, t0, done._succeed_processed, None)
        yield done

    def read(self, lpn: int) -> Iterator[Event]:
        """Process: read one logical page, a batch of one over
        :meth:`read_submit`; an unmapped page returns zeros at once.

        If GC relocates the page mid-read (the mapping changed while the
        media access was in flight), the read retries against the new
        location, mirroring the read-retry path of production firmware.
        A retry resubmits to this batch, so it drains only once the data
        is in; a read that keeps racing fails the batch's worker, and
        this process with it.
        """
        got = self.engine.event()
        batch = self.flash.read_batch()
        self.read_submit(lpn, batch, lambda _token, data: got._succeed_processed(data))
        if not got.processed:
            yield self.engine.any_of([got, *batch._workers])
        yield from batch.drain()
        return got._value

    # -- batched host operations ------------------------------------------------
    #
    # The logical-page steps for callers that drive many pages through a
    # NAND batch (BA pin/flush, destage, and :meth:`read`'s batch of one):
    # unmapped fast path, GC-race read retry, watermark checks at issue
    # time, map binding at program completion — no process per page.

    def read_submit(self, lpn: int, batch, on_data, token=None) -> None:
        """Submit a logical-page read to a :class:`NandReadBatch`.

        ``on_data(token, data)`` fires synchronously for unmapped pages,
        at media-read completion otherwise.
        """
        self._check_lpn(lpn)
        t0 = self.engine.now if tracing.enabled else 0.0
        self._read_attempt(lpn, batch, on_data, token, t0, 4)

    def _read_attempt(self, lpn: int, batch, on_data, token, t0: float,
                      attempts: int) -> None:
        if attempts == 0:
            raise FtlCapacityError(f"read of logical page {lpn} kept racing with GC")
        if tracing.enabled:
            tracing.count("ftl.pagemap.lookups")
        ppn = self.map.lookup(lpn)
        if ppn is None:
            if tracing.enabled:
                tracing.observe("ftl.pagemap.read", self.engine.now - t0)
            on_data(token, bytes(self.page_size))
            return

        def _sensed(_token, data: bytes) -> None:
            # GC relocated the page mid-read: the resubmission claims a
            # fresh die slot at retry time.
            if self.map.lookup(lpn) == ppn:
                if tracing.enabled:
                    tracing.observe("ftl.pagemap.read", self.engine.now - t0)
                on_data(token, data)
            else:
                self._read_attempt(lpn, batch, on_data, token, t0, attempts - 1)

        batch.submit(ppn, on_data=_sensed)

    def note_unmapped_reads(self, npages: int) -> None:
        """Trace ``npages`` unmapped reads served elsewhere, as :meth:`read_submit` would."""
        if tracing.enabled:
            tracing.count("ftl.pagemap.lookups", npages)
            for _ in range(npages):
                tracing.observe("ftl.pagemap.read", 0.0)

    def write_submit(self, lpn: int, data: bytes, batch,
                     on_done=None, token=None) -> None:
        """Submit a logical-page write to a :class:`NandProgramBatch`;
        ``on_done(token)`` fires once the page is in.

        A write that must stall on foreground GC runs :meth:`write` in a
        process of its own instead, so the stall blocks only this page
        and every stalled page streams through that method's one shared
        batch; ``on_done(token)`` then fires when that write completes.
        """
        self._check_lpn(lpn)
        if len(data) > self.page_size:
            raise ValueError(f"page write of {len(data)} bytes exceeds {self.page_size}")
        free = self._free_block_count
        if free < self._gc_low_watermark:
            self.engine.process(self._stalled_write(lpn, data, on_done, token))
            return
        if free < self._bg_watermark:
            self._kick_background_gc()
        t0 = self.engine.now if tracing.enabled else 0.0
        self._submit_write(lpn, data, batch, t0, on_done, token)

    def _stalled_write(self, lpn: int, data: bytes, on_done, token) -> Iterator[Event]:
        yield from self.write(lpn, data)
        if on_done is not None:
            on_done(token)

    def _submit_write(self, lpn: int, data: bytes, batch, t0: float,
                      on_done, token) -> None:
        """Allocate a page for ``lpn`` and submit its program to ``batch``.
        At program completion the map points ``lpn`` at the new page, the
        page it replaces goes stale, and ``on_done(token)`` runs."""
        ppn = self._allocate_page()

        def _programmed(_token) -> None:
            previous = self.map.bind(lpn, ppn)
            self._mark_valid(ppn)
            if previous is not None:
                self._invalidate(previous)
            if tracing.enabled:
                tracing.observe("ftl.pagemap.write", self.engine.now - t0)
            self.stats.host_pages_written += 1
            if on_done is not None:
                on_done(token)

        batch.submit(ppn, data, on_done=_programmed)

    def trim(self, lpn: int, npages: int = 1) -> None:
        """Drop the mappings of ``[lpn, +npages)``; their physical pages
        become stale.  Costs O(mapped pages), not O(range)."""
        if lpn < 0 or lpn + npages > self.logical_pages:
            raise ValueError(f"logical pages [{lpn}, +{npages}) out of range "
                             f"[0, {self.logical_pages})")
        for page in keys_in_range(self.map._l2p, lpn, lpn + npages):
            ppn = self.map.unbind(page)
            if ppn is not None:
                self._invalidate(ppn)

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"logical page {lpn} out of range [0, {self.logical_pages})")

    def scrub(self, retry_threshold: int = 1) -> Iterator[Event]:
        """Process: media patrol — relocate pages whose reads already need
        ``retry_threshold`` or more ECC read retries, before they decay to
        uncorrectable.  Returns the number of pages relocated.

        Production firmware runs this during idle time; tests and
        maintenance windows invoke it directly.
        """
        from repro.nand.ecc import UncorrectableError, raw_bit_errors, retries_needed

        relocated = 0
        for ppn in list(self.map.live_pages()):
            lpn = self.map.reverse_lookup(ppn)
            if lpn is None:
                continue  # moved under us
            channel, die, block, _page = self.flash.geometry.decompose(ppn)
            erases = self.flash.erase_count(channel, die, block)
            errors = raw_bit_errors(self.flash.ecc, ppn, erases,
                                    self.flash.timing.endurance_cycles,
                                    self.flash._ecc_seed)
            try:
                retries = retries_needed(self.flash.ecc, errors)
            except UncorrectableError:
                retries = self.flash.ecc.max_read_retries + 1
            if retries < retry_threshold:
                continue
            data = self.flash.peek(ppn)  # rescue copy (pre-UECC snapshot)
            yield from self.write(lpn, data)
            relocated += 1
        self.stats.pages_scrubbed += relocated
        return relocated

    # -- garbage collection ---------------------------------------------------------

    def _pick_victim(self) -> Optional[tuple[int, tuple[int, int, int]]]:
        """Greedy victim selection with a wear-aware tiebreak: among
        blocks with the fewest valid pages, prefer the least-worn one so
        hot blocks don't absorb all the erases.

        A block whose last allocated pages are still being programmed is
        no candidate: its valid set does not list them yet, so the erase
        would destroy pages the map is about to point at.  Pages a crash
        left unprogrammed (``_stranded``) never will be, and do not hold
        their block back."""
        best: Optional[tuple[int, int]] = None
        best_index = -1
        pages_per_block = self.flash.geometry.pages_per_block
        for index, key in enumerate(self._full_blocks):
            if (self.flash._block_state(*key).write_pointer < pages_per_block
                    and key not in self._stranded):
                continue
            candidate = (len(self._valid.get(key, ())), self.flash.erase_count(*key))
            # Strict < keeps the first-encountered minimum on ties — the
            # same victim the old remove()-based scan picked.
            if best is None or candidate < best:
                best = candidate
                best_index = index
        if best is None:
            return None
        key = self._victim = self._full_blocks.pop(best_index)
        return best[0], key

    def _return_victim(self) -> None:
        """Hand an unerased GC victim back to the full blocks."""
        if self._victim is not None:
            self._full_blocks.append(self._victim)
            self._victim = None

    def _kick_background_gc(self) -> None:
        if not self._bg_kicked:
            self._bg_kicked = True
            self._bg_signal.put(True)

    def _background_gc_loop(self) -> Iterator[Event]:
        """Process: reclaim blocks opportunistically, one victim at a time,
        whenever the free pool dips below the background watermark."""
        while True:
            yield self._bg_signal.get()
            self._bg_kicked = False
            while self.total_free_blocks < self._bg_watermark:
                lock = self._gc_lock.request()
                yield lock
                try:
                    victim = self._pick_victim()
                    if victim is None:
                        break
                    yield from self._relocate_block(victim[1])
                    self.stats.background_gc_runs += 1
                finally:
                    self._gc_lock.release(lock)

    def _collect_garbage(self) -> Iterator[Event]:
        """Process: greedy GC until the free pool reaches the high watermark."""
        lock_req = self._gc_lock.request()
        yield lock_req
        try:
            while self.total_free_blocks < self._gc_high_watermark:
                victim = self._pick_victim()
                if victim is None:
                    if self.total_free_blocks == 0:
                        raise FtlCapacityError("GC found no reclaimable blocks")
                    break
                _valid_count, key = victim
                yield from self._relocate_block(key)
                self.stats.gc_runs += 1
        finally:
            self._gc_lock.release(lock_req)

    def _relocate_block(self, key: tuple[int, int, int]) -> Iterator[Event]:
        """Process: move the victim's valid pages, then erase it.

        Every valid page goes to one read batch at once; each page's data
        goes to one program batch as it is sensed, at the PPN
        :meth:`_allocate_page` stripes it to, so the programs run on all
        dies at once.  A failure (an uncorrectable page, a protocol
        error) fails the GC with both batches closed: a page still in
        flight then either lands and is re-checked as below, or is
        dropped and stays on the victim, which is not erased but goes
        back to the full blocks for a later GC."""
        channel, die, block = key
        geometry = self.flash.geometry
        pages = sorted(self._valid.get(key, set()))
        reads = self.flash.read_batch()
        programs = self.flash.program_batch()

        def _sensed(token, data: bytes) -> None:
            if not programs._closed:
                new_ppn = self._allocate_page()
                programs.submit(new_ppn, data, _programmed, (*token, new_ppn))

        def _programmed(token) -> None:
            lpn, old_ppn, new_ppn = token
            # Re-check: the host may have overwritten this LPN mid-relocation.
            if self.map.lookup(lpn) == old_ppn:
                self.map.bind(lpn, new_ppn)
                self._mark_valid(new_ppn)
                self._invalidate(old_ppn)
            else:
                self._invalidate(new_ppn)

        try:
            for page in pages:
                old_ppn = geometry.ppn(channel, die, block, page)
                lpn = self.map.reverse_lookup(old_ppn)
                if lpn is None:
                    continue  # invalidated while GC was running
                reads.submit(old_ppn, _sensed, (lpn, old_ppn))
            yield from reads.drain()
            yield from programs.drain()
        except BaseException:
            reads.close()
            programs.close()
            self._return_victim()
            raise
        yield from self.flash.erase_block(channel, die, block)
        self._victim = None
        self._valid.pop(key, None)
        self._stranded.discard(key)
        owner = self._dies[channel * geometry.dies_per_channel + die]
        owner.free_blocks.append(block)
        self._free_block_count += 1
        self.stats.blocks_erased += 1
        self.stats.gc_pages_written += len(pages)
