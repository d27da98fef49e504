"""simsan: runtime invariant sanitizer for the dual-path simulator.

The paper's correctness story rests on ordering invariants that ordinary
tests cannot see being *almost* broken: the two-step MMIO durability
protocol (WC drain via clflush+mfence before the write-verify read,
§III-B), the <=8-entry BA mapping table with non-overlapping pinned LBA
ranges gated by the LBA checker (§III-A2), and per-die exclusivity in
the NAND array.  A future refactor can bypass a die reservation or
reorder the durability handshake and every tier-1 test still passes —
the simulated numbers just quietly stop meaning what the paper means.

``simsan`` makes those invariants fail loudly.  Instrumented call sites
(the sim kernel, :mod:`repro.sim.resources`, :mod:`repro.nand.array`,
the host CPU path, and the BA-buffer manager) check
``sanitizer.enabled`` — one module-level bool, the exact pattern
:mod:`repro.obs.tracing` uses, so disabled mode costs one flag test —
and report state transitions here.  The sanitizer never interacts with
the engine (no events, no timeouts, bookkeeping only), so enabling it
cannot change simulated behaviour; the golden determinism fixtures are
byte-for-byte identical with it on.

Invariants checked (IDs appear in :class:`SanitizerError`):

========================  =====================================================
``die.unreserved``        a timed NAND op ran without a granted request
``die.wrong-resource``    the held request belongs to another die
``die.exclusivity``       concurrent timed ops exceeded the die's capacity
``sync.reordered``        write-verify read before the entry's WC drain
``sync.dirty-lines``      write-verify read with the entry's lines still staged
``table.invariant``       mapping-table capacity/alignment/overlap violated
``table.checker-split``   the LBA checker gates against a different table
``pcie.unsettled-read``   BAR-target memory accessed with a landed TLP still queued
``lsm.wal-truncation``    a manifest truncates the WAL past a record not yet in a memtable
``kernel.past-event``     an event was scheduled before the current sim time
``kernel.time-reversal``  a continuation would move simulated time backwards
========================  =====================================================

Enable via :func:`enable` / :func:`activated` (tests), the ``--sanitize``
CLI flag, or ``REPRO_SANITIZE=1`` in the environment.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # import cycle: sim.resources imports this module
    from repro.core.device import TwoBSSD
    from repro.host.cpu import HostCPU
    from repro.host.memory import ByteRegion
    from repro.pcie.link import PcieLink
    from repro.sim.resources import Request

# The module-level enable flag every hook checks.  Mutated only via
# enable()/disable()/activated(); call sites read `sanitizer.enabled`.
enabled: bool = False


class SanitizerError(Exception):
    """A machine-checked invariant of the simulation was violated.

    Carries the invariant ID, the simulated time of the violation, and
    the sanitizer's view of the operations in flight (its op stack plus
    any detail the checking site supplied), so the report reads like a
    span trace of the offending moment rather than a bare assert.
    """

    def __init__(self, invariant: str, message: str, *,
                 sim_time: Optional[float] = None,
                 context: Optional[dict[str, Any]] = None) -> None:
        self.invariant = invariant
        self.sim_time = sim_time
        self.context = dict(context or {})
        parts = [f"[{invariant}] {message}"]
        if sim_time is not None:
            parts.append(f"at t={sim_time:.9f}s")
        if self.context:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
            parts.append(f"({detail})")
        super().__init__(" ".join(parts))


class _SyncScope:
    """One in-flight BA_SYNC: which bytes must drain before the WVR."""

    __slots__ = ("entry_id", "region", "offset", "length", "flushed", "label")

    def __init__(self, entry_id: int, region: "ByteRegion",
                 offset: int, length: int) -> None:
        self.entry_id = entry_id
        self.region = region
        self.offset = offset
        self.length = length
        self.flushed = False
        self.label = f"core.api.ba_sync[{entry_id}]"


class _State:
    """All sanitizer bookkeeping; recreated on every :func:`enable`."""

    def __init__(self) -> None:
        # id(request) -> request, for every currently granted Resource
        # slot.  Strong references keep ids stable while an entry lives.
        self.granted: dict[int, "Request"] = {}
        # id(resource) -> number of timed NAND ops currently inside the
        # die-held section (lockset begin/end pairs).
        self.active_die_ops: dict[int, int] = {}
        # Innermost-last labels of the operations in flight; attached to
        # every violation as the "span context" of the failure.
        self.op_stack: list[str] = []
        # Active BA_SYNC protocol scopes.  Not keyed by entry id: the
        # devices of a pool reuse entry ids, so two scopes may share one.
        self.syncs: list[_SyncScope] = []
        self.checks = 0
        self.violations = 0


_state = _State()


def _violation(invariant: str, message: str, *, sim_time: Optional[float] = None,
               context: Optional[dict[str, Any]] = None) -> SanitizerError:
    _state.violations += 1
    merged = {"ops": list(_state.op_stack)}
    merged.update(context or {})
    return SanitizerError(invariant, message, sim_time=sim_time, context=merged)


# -- enablement ---------------------------------------------------------------


def enable() -> None:
    """Turn the sanitizer on with fresh bookkeeping."""
    global enabled, _state
    _state = _State()
    enabled = True


def disable() -> None:
    global enabled
    enabled = False


def env_requested() -> bool:
    """True when ``REPRO_SANITIZE`` asks for the sanitizer (1/true/yes/on)."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def enable_from_env() -> bool:
    """Enable iff the environment requests it; returns the resulting state."""
    if env_requested():
        enable()
    return enabled


@contextlib.contextmanager
def activated() -> Iterator[_State]:
    """Scope: enable the sanitizer, restore the previous flag on exit."""
    global enabled, _state
    previous_flag, previous_state = enabled, _state
    _state = _State()
    enabled = True
    try:
        yield _state
    finally:
        enabled = previous_flag
        _state = previous_state


def stats() -> dict[str, int]:
    """Check/violation counters (observability and overhead tests)."""
    return {"checks": _state.checks, "violations": _state.violations}


def crash_reset() -> None:
    """Void all in-flight protocol state after a simulated crash.

    A kernel ``purge()`` cancels every live process at once, so lockset
    entries, die-op counts, and open BA_SYNC scopes belong to processes
    that no longer exist — a stale unflushed scope would flag
    the *next* write-verify read as reordered when the real protocol
    around it is sound.  Counters survive: the crash does not un-happen
    the checks that ran before it.
    """
    _state.granted.clear()
    _state.active_die_ops.clear()
    _state.op_stack.clear()
    _state.syncs.clear()


# -- resource lockset ---------------------------------------------------------


def on_grant(request: "Request") -> None:
    """A Resource slot was granted (sync fast path or release hand-off)."""
    _state.granted[id(request)] = request


def on_release(request: "Request") -> None:
    """A granted Resource slot was returned."""
    _state.granted.pop(id(request), None)


def is_granted(request: "Request") -> bool:
    return id(request) in _state.granted


# -- NAND die access (lockset-style checker) ---------------------------------


def die_op_begin(array, addr, die_res, die_req, op: str) -> None:
    """A timed NAND ``op`` on ``addr`` is entering its die-held section.

    Asserts the three per-die exclusivity invariants: the claimed request
    is currently granted, it was granted by *this die's* resource, and
    the die's capacity is not exceeded by concurrent timed sections.
    """
    _state.checks += 1
    now = array.engine.now
    where = f"({addr.channel},{addr.die},{addr.block},{addr.page})"
    if id(die_req) not in _state.granted:
        raise _violation(
            "die.unreserved",
            f"NAND {op} at {where} entered its timed section without holding "
            "a granted die reservation",
            sim_time=now, context={"op": op, "page": where},
        )
    expected = array._die_resource(addr.channel, addr.die)
    if die_req.resource is not expected:
        raise _violation(
            "die.wrong-resource",
            f"NAND {op} at {where} holds a request granted by a different "
            "die's resource",
            sim_time=now, context={"op": op, "page": where},
        )
    key = id(expected)
    active = _state.active_die_ops.get(key, 0)
    if active >= expected.capacity:
        raise _violation(
            "die.exclusivity",
            f"NAND {op} at {where} overlaps {active} other timed operation(s) "
            f"on a die of capacity {expected.capacity}",
            sim_time=now, context={"op": op, "page": where},
        )
    _state.active_die_ops[key] = active + 1
    _state.op_stack.append(f"nand.{op}{where}")


def die_op_end(array, addr, die_res, die_req, op: str) -> None:
    """The timed section of a NAND op finished (still holding the die)."""
    key = id(die_req.resource)
    active = _state.active_die_ops.get(key, 0)
    if active > 0:
        _state.active_die_ops[key] = active - 1
    label = f"nand.{op}({addr.channel},{addr.die},{addr.block},{addr.page})"
    if label in _state.op_stack:
        _state.op_stack.remove(label)


# -- durability protocol (host CPU / PCIe path) -------------------------------


def sync_begin(entry_id: int, region: "ByteRegion", offset: int,
               length: int) -> _SyncScope:
    """BA_SYNC started for ``entry_id``: its lines must drain before the
    WVR.  Returns the scope; hand exactly it to :func:`sync_end`."""
    scope = _SyncScope(entry_id, region, offset, length)
    _state.syncs.append(scope)
    _state.op_stack.append(scope.label)
    return scope


def sync_end(scope: _SyncScope) -> None:
    """BA_SYNC finished: drop exactly ``scope`` — a no-op once a crash
    reset or another sanitizer state (a process closed after its
    recording scope ended) voided it."""
    if scope in _state.syncs:
        _state.syncs.remove(scope)
        _state.op_stack.remove(scope.label)


def on_wc_flush(region: "ByteRegion", offset: int, nbytes: Optional[int]) -> None:
    """clflush+mfence covered ``region[offset:offset+nbytes]``."""
    for scope in tuple(_state.syncs):
        if scope.region is not region:
            continue
        if nbytes is None:
            scope.flushed = True
        elif offset <= scope.offset and scope.offset + scope.length <= offset + nbytes:
            scope.flushed = True


def on_write_verify_read(cpu: "HostCPU") -> None:
    """A write-verify read was issued; every active sync must have drained.

    Two layers of defence: the protocol *order* (the flush step must have
    run), and the WC buffer *contents* (no line overlapping the entry's
    range may still be staged — catches a flush that ran but missed).
    """
    _state.checks += 1
    now = cpu.engine.now
    for scope in tuple(_state.syncs):
        if not scope.flushed:
            raise _violation(
                "sync.reordered",
                f"write-verify read issued for entry {scope.entry_id} before "
                "its WC lines were drained (clflush+mfence must precede the "
                "verify read, §III-B)",
                sim_time=now, context={"entry_id": scope.entry_id},
            )
        staged = cpu.wc.dirty_lines_in_range(scope.region, scope.offset,
                                             scope.length)
        if staged:
            raise _violation(
                "sync.dirty-lines",
                f"write-verify read issued for entry {scope.entry_id} while "
                f"{staged} WC line(s) of its range are still staged in the "
                "CPU (a power failure here loses acknowledged bytes)",
                sim_time=now, context={"entry_id": scope.entry_id,
                                       "staged_lines": staged},
            )


def check_settled(link: "PcieLink", region: "ByteRegion") -> None:
    """BAR-target ``region`` is being accessed; no landed TLP may be queued.

    A posted write is part of device memory from its landing time on, so
    an access that finds one still in the link's in-flight FIFO would read
    (or overwrite) bytes the hardware had already replaced.  Not counted
    in ``checks``: it runs on every region access, which would drown the
    per-operation counters the goldens pin.
    """
    if link.unsettled():
        raise _violation(
            "pcie.unsettled-read",
            f"region {region.name!r} accessed while a posted write that has "
            "already landed is still queued on the link (settle before "
            "touching BAR-target memory)",
            sim_time=link.engine.now,
            context={"region": region.name, "in_flight": link.in_flight},
        )


# -- BA mapping table ---------------------------------------------------------


def check_mapping_table(device: "TwoBSSD") -> None:
    """Revalidate the full mapping-table contract after a pin/flush.

    Recomputes every invariant from the raw entries — deliberately not
    trusting :meth:`BaMappingTable.add` — and checks that the LBA checker
    snoops the same table object (a checker bound to a stale table would
    silently stop gating block writes into pinned ranges).
    """
    _state.checks += 1
    table = device.mapping_table
    now = device.engine.now
    problems = table.validate()
    if problems:
        raise _violation(
            "table.invariant",
            f"mapping-table invariant broken after pin/flush: {problems[0]}",
            sim_time=now, context={"problems": problems},
        )
    if device.lba_gate.table is not table:
        raise _violation(
            "table.checker-split",
            "LBA checker is gating block writes against a different table "
            "object than the BA-buffer manager mutates",
            sim_time=now,
        )
    for entry in table.entries():
        if not device.lba_gate.would_gate(entry.lba, 1):
            raise _violation(
                "table.checker-split",
                f"LBA checker does not gate writes to pinned LBA {entry.lba} "
                f"(entry {entry.entry_id})",
                sim_time=now, context={"entry_id": entry.entry_id},
            )


# -- LSM write-ahead log truncation -------------------------------------------


def check_wal_truncation(engine, wal_start: int, unapplied) -> None:
    """A manifest is about to record ``wal_start``: recovery replays the
    WAL from there, so no record still on its way into a memtable (start
    LSNs in ``unapplied``) may sit below it."""
    _state.checks += 1
    lowest = min(unapplied, default=wal_start)
    if lowest < wal_start:
        raise _violation(
            "lsm.wal-truncation",
            f"manifest truncates the WAL at {wal_start}, past the record at "
            f"{lowest} that is logged but not yet in a memtable (recovery "
            "would skip an acknowledged write)",
            sim_time=engine.now,
            context={"wal_start": wal_start, "record": lowest},
        )


# -- sim kernel ---------------------------------------------------------------


def check_schedule(engine, delay: float) -> None:
    """An event is being scheduled ``delay`` from now; reject the past."""
    _state.checks += 1
    if delay < 0:
        raise _violation(
            "kernel.past-event",
            f"event scheduled {-delay:.9f}s in the past",
            sim_time=engine.now, context={"delay": delay},
        )


def past_continuation(engine, when: float) -> SanitizerError:
    """Build the violation for a deferred continuation behind ``now``."""
    return _violation(
        "kernel.time-reversal",
        f"deferred continuation at t={when:.9f}s would move simulated time "
        f"backwards from t={engine.now:.9f}s",
        sim_time=engine.now, context={"when": when},
    )
