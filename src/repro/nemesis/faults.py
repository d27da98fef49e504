"""The fault catalog: composable, deterministic nemeses.

Each nemesis is a small class with a ``kind`` (its catalog key) and an
``inject(ctx)`` hook the campaign scheduler calls at the fault's
scheduled simulated time, *between* engine segments — never from inside
a running event callback, so crash faults may purge the kernel safely.
Faults with a duration schedule their own heal through ``ctx.at``; the
pending-action queue lives in the campaign (plain Python state), so
heals survive the purges the faults themselves cause.

Everything here is deterministic: victim choice resolves from explicit
role expressions (``"primary:wal0"``), timings come from the campaign
spec, and the only randomness is the pool's own seeded simulation.

The catalog (ISSUE 6 / ROADMAP item 3):

==================  ========================================================
``power_loss``      one node loses power; staged failover promotes survivors
``failover_crash``  a second node dies *mid-promotion*; retry must recover
``partition``       interconnect blackholes one node, heals after a delay
``degrade``         fabric-wide wire-occupancy multiplier (congestion)
``slow_die``        one NAND die's cell ops slow down (tail-latency storm)
``gc_storm``        sustained overwrites of a hot LPN band force GC churn
``map_pressure``    thief pins exhaust the mapping table -> typed
                    ``MappingTableFullError`` fallback on a new stream
``quorum_loss``     crash nodes until failover is impossible (NoSpareError)
==================  ========================================================
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.obs import events
from repro.sim.units import USEC

PAGE = 4096


def _emit(kind: str, ctx, **data) -> None:
    if events.enabled:
        events.emit(kind, ctx.engine.now, **data)


class Fault:
    """Base nemesis: subclasses define ``kind`` and ``inject``."""

    kind = "fault"

    def inject(self, ctx) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-safe identity for campaign results and replay bundles."""
        payload = {"kind": self.kind}
        payload.update({key: value for key, value in vars(self).items()
                        if not key.startswith("_")})
        return payload


class NodePowerLoss(Fault):
    """Kill one node; failover re-replicates every stream it carried."""

    kind = "power_loss"

    def __init__(self, victim: str = "primary:wal0") -> None:
        self.victim = victim

    def inject(self, ctx) -> None:
        victim = ctx.resolve_victim(self.victim)
        _emit("nemesis.fault.injected", ctx, fault=self.kind, victim=victim)
        ctx.crash_node(victim)


class CrashDuringFailover(Fault):
    """Kill a *second* node partway through the first crash's promotion.

    The staged-promotion contract (``FailoverManager.fail_over``) says a
    crash mid-promotion leaves the old stream registered and a retry
    re-recovers from scratch; this nemesis is that contract's adversary.
    ``delay_us`` picks how deep into the promotion the second crash
    lands; the second victim resolves *at crash time* (e.g. the node
    just promoted to).
    """

    kind = "failover_crash"

    def __init__(self, victim: str = "primary:wal0",
                 second_victim: str = "replica:wal0",
                 delay_us: float = 40.0) -> None:
        self.victim = victim
        self.second_victim = second_victim
        self.delay_us = delay_us

    def inject(self, ctx) -> None:
        victim = ctx.resolve_victim(self.victim)
        _emit("nemesis.fault.injected", ctx, fault=self.kind, victim=victim,
              delay_us=self.delay_us)
        ctx.crash_node(victim, interrupt=(self.second_victim,
                                          self.delay_us * USEC))


class InterconnectPartition(Fault):
    """Blackhole one node's fabric traffic for ``duration_us``."""

    kind = "partition"

    def __init__(self, victim: str = "replica:wal0",
                 duration_us: float = 400.0) -> None:
        self.victim = victim
        self.duration_us = duration_us

    def inject(self, ctx) -> None:
        victim = ctx.resolve_victim(self.victim)
        ctx.pool.net.isolate(victim)
        _emit("nemesis.fault.injected", ctx, fault=self.kind, victim=victim,
              duration_us=self.duration_us)

        def heal() -> None:
            ctx.pool.net.heal(victim)
            _emit("nemesis.fault.healed", ctx, fault=self.kind, victim=victim)

        ctx.at(ctx.engine.now + self.duration_us * USEC, heal,
               label=f"heal:{self.kind}:{victim}")


class InterconnectDegrade(Fault):
    """Scale every message's wire occupancy by ``factor`` for a while."""

    kind = "degrade"

    def __init__(self, factor: float = 8.0,
                 duration_us: float = 500.0) -> None:
        self.factor = factor
        self.duration_us = duration_us

    def inject(self, ctx) -> None:
        ctx.pool.net.set_degradation(self.factor)
        _emit("nemesis.fault.injected", ctx, fault=self.kind,
              factor=self.factor, duration_us=self.duration_us)

        def heal() -> None:
            ctx.pool.net.clear_degradation()
            _emit("nemesis.fault.healed", ctx, fault=self.kind)

        ctx.at(ctx.engine.now + self.duration_us * USEC, heal,
               label=f"heal:{self.kind}")


class SlowNandDie(Fault):
    """One die's cell ops (tR/tPROG/tBERS) run ``factor`` x slower."""

    kind = "slow_die"

    def __init__(self, victim: str = "primary:wal0", die_index: int = 0,
                 factor: float = 6.0, duration_us: float = 600.0) -> None:
        self.victim = victim
        self.die_index = die_index
        self.factor = factor
        self.duration_us = duration_us

    def inject(self, ctx) -> None:
        victim = ctx.resolve_victim(self.victim)
        flash = ctx.pool.nodes[victim].platform.device.flash
        flash.set_die_slowdown(self.die_index, self.factor)
        _emit("nemesis.fault.injected", ctx, fault=self.kind, victim=victim,
              die_index=self.die_index, factor=self.factor)

        def heal() -> None:
            # The node (hence its flash array) may have been replaced by
            # a crash since injection; healing is idempotent either way.
            node = ctx.pool.nodes[victim]
            node.platform.device.flash.clear_die_slowdown(self.die_index)
            _emit("nemesis.fault.healed", ctx, fault=self.kind, victim=victim)

        ctx.at(ctx.engine.now + self.duration_us * USEC, heal,
               label=f"heal:{self.kind}:{victim}")


class GcStorm(Fault):
    """Sustained overwrites of a hot high-LPN band on one node.

    The FMMU observation (PAPERS.md): durability invariants are most
    likely to crack under sustained map-management load.  This nemesis
    manufactures that load — repeated whole-band rewrites invalidate
    pages, pull destage workers, and (on small geometries) force fore-
    and background GC to compete with WAL traffic for the same dies.
    The writer is an ordinary engine process, so a node crash kills it
    like any other in-flight work.
    """

    kind = "gc_storm"

    def __init__(self, victim: str = "replica:wal0", band_pages: int = 64,
                 rewrites: int = 12) -> None:
        self.victim = victim
        self.band_pages = band_pages
        self.rewrites = rewrites

    def inject(self, ctx) -> None:
        victim = ctx.resolve_victim(self.victim)
        device = ctx.pool.nodes[victim].platform.device
        base = device.logical_pages - self.band_pages
        _emit("nemesis.fault.injected", ctx, fault=self.kind, victim=victim,
              band_pages=self.band_pages, rewrites=self.rewrites)

        def storm() -> Iterator:
            engine = ctx.engine
            for round_no in range(self.rewrites):
                for lpn in range(base, base + self.band_pages, 4):
                    payload = bytes([round_no & 0xFF]) * (4 * PAGE)
                    yield from device.write(lpn, payload)
            _emit("nemesis.fault.healed", ctx, fault=self.kind, victim=victim)
            return None

        ctx.engine.process(storm(), name=f"nemesis-gc-storm-{victim}")


class MappingTablePressure(Fault):
    """Exhaust the victim's mapping table, then open streams through it.

    Thief pins (outside the pool's pair bookkeeping — exactly the case
    the typed :class:`~repro.core.errors.MappingTableFullError` exists
    to distinguish) occupy every remaining slot-but-a-few, then two
    single-leg streams race to start on the victim.  Both pass the
    pool's optimistic ``try_reserve_pair`` budget check, but the table
    cannot seat all four of their pins: one leg hits the typed error
    mid-``wal.start``, unwinds its half-pinned entry, and falls back to
    the block path — the full degraded-mode ladder under contention.
    """

    kind = "map_pressure"

    def __init__(self, victim: str = "replica:wal0",
                 spare_slots: int = 3) -> None:
        self.victim = victim
        self.spare_slots = spare_slots

    def inject(self, ctx) -> None:
        pool = ctx.pool
        victim = ctx.resolve_victim(self.victim)
        node = pool.nodes[victim]
        api = node.platform.api
        table = node.platform.device.mapping_table
        segment = pool.segment_bytes
        # Thieves pin one page each, anywhere the buffer is free — except
        # the slices of the two pairs the racing streams below will
        # reserve: a thief squatting there would turn the intended typed
        # table-full error into a buffer-overlap PinConflictError.
        blocked = [(entry.offset, entry.offset + entry.length)
                   for entry in table.entries()]
        for pair in node._free_pairs[:2]:
            base = pair * 2 * segment
            blocked.append((base, base + 2 * segment))
        free_offsets = [
            offset for offset in range(0, table.buffer_bytes, PAGE)
            if all(offset + PAGE <= lo or offset >= hi
                   for lo, hi in blocked)
        ]
        # High LBAs: far above any WAL area, clear of the GC-storm band.
        lba_base = node.platform.device.logical_pages - 8192
        thieves = max(0, min(table.slots_free() - self.spare_slots,
                             len(free_offsets)))
        engine = ctx.engine
        for index in range(thieves):
            entry_id = 1000 + index
            engine.run_process(api.ba_pin(entry_id, free_offsets[index],
                                          lba_base + 2 * index, PAGE))
            ctx.thief_pins.setdefault(victim, []).append(entry_id)
        _emit("nemesis.fault.injected", ctx, fault=self.kind, victim=victim,
              thieves=thieves, slots_free=table.slots_free())
        # Two fresh single-leg streams race for the remaining slots; the
        # loser takes the typed-error fallback.  No clients attach, so a
        # later crash can simply drop them (nothing acked to lose).
        fallbacks_before = pool.ba_fallbacks
        names = []
        opens = []
        for tag in ("a", "b"):
            name = f"pressure-{ctx.pressure_streams}-{tag}"
            ctx.pressure_streams += 1
            names.append(name)
            opens.append(engine.process(
                pool.open_stream(name, replicas=1, on_nodes=[victim]),
                name=f"nemesis-open-{name}"))
        engine.run(until=engine.all_of(opens))
        _emit("nemesis.fault.healed", ctx, fault=self.kind, victim=victim,
              streams=tuple(names),
              fallbacks=pool.ba_fallbacks - fallbacks_before)


class QuorumLoss(Fault):
    """Crash nodes back-to-back until promotion runs out of spares.

    Each crash goes through the normal failover path; once no healthy
    node outside a stream's old leg set remains, ``fail_over`` raises
    :class:`~repro.cluster.errors.NoSpareError`, the campaign records
    ``cluster.failover.impossible``, and the stream's clients stall (or
    surface ``QuorumLossError``) — availability lost, durability not:
    the analyzer still checks every acked record against the surviving
    legs at campaign end.
    """

    kind = "quorum_loss"

    def __init__(self, victims: tuple = ("primary:wal0", "replica:wal0"),
                 gap_us: float = 50.0) -> None:
        self.victims = tuple(victims)
        self.gap_us = gap_us

    def inject(self, ctx) -> None:
        _emit("nemesis.fault.injected", ctx, fault=self.kind,
              victims=self.victims)
        for index, victim in enumerate(self.victims):
            name: Optional[str] = None
            try:
                name = ctx.resolve_victim(victim)
            except KeyError:
                continue  # role no longer resolvable (stream dropped)
            if name is None or not ctx.pool.nodes[name].up:
                continue
            if index:
                ctx.engine.run(until=ctx.engine.now + self.gap_us * USEC)
            ctx.crash_node(name)


#: kind -> fault class; the campaign spec references faults by kind.
CATALOG: dict[str, type] = {
    cls.kind: cls
    for cls in (NodePowerLoss, CrashDuringFailover, InterconnectPartition,
                InterconnectDegrade, SlowNandDie, GcStorm,
                MappingTablePressure, QuorumLoss)
}
