"""Transaction-level PCIe link with root-complex ordering.

The link tracks when the downstream path is next free (TLPs serialize on
the wire) and the landing time of the most recent posted write.  Posted
writes return immediately to the issuer and *land* — i.e. deposit their
payload in device memory — after wire occupancy plus propagation.
Non-posted reads wait for every earlier posted write to land (PCIe
producer/consumer ordering at the root complex) before their round trip
begins, which is exactly the mechanism the paper's write-verify read
exploits for durability (§III-B).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from repro.analysis import sanitizer as simsan
from repro.obs import tracing
from repro.sim import Engine
from repro.sim.engine import Event
from repro.sim.units import NSEC

if TYPE_CHECKING:  # import cycle: repro.host imports this module
    from repro.host.memory import ByteRegion

# One entry of a :meth:`PcieLink.posted_burst`: ``(nbytes, region, offset,
# payload)``.  With a region, ``payload`` is the bytes written at
# ``region[offset:]`` on landing, carried by a run of TLPs cut where the
# region's offsets pass a multiple of ``nbytes`` (for the WC buffer, at line
# boundaries): a first TLP up to the next multiple, full ``nbytes`` ones,
# then a short last one.  Without a region it is one TLP whose payload is a
# callable run on landing, or ``None`` for a TLP that only occupies the wire.
PostedTlp = tuple[int, Optional["ByteRegion"], int,
                  Union[bytes, Callable[[], None], None]]


@dataclass(frozen=True)
class PcieParams:
    """Link constants for PCIe Gen3 x4 (the paper's host interface, Table I)."""

    # Effective payload bandwidth; Gen3 x4 ~3.938 GB/s raw, ~3.2 GB/s effective.
    bandwidth_bytes_per_sec: float = 3.2e9
    # Per-TLP wire/header overhead.
    tlp_overhead: float = 8 * NSEC
    # One-way propagation through switch fabric to device memory.
    propagation: float = 100 * NSEC
    # Latency of one uncacheable (split, max 8-byte) read TLP round trip.
    # Calibrated so a 4 KiB MMIO read costs ~150 us (Fig. 7(a)): 512 * 293 ns.
    mmio_read_tlp_latency: float = 293 * NSEC
    # Uncacheable reads are split into at most this many bytes per TLP ([48]).
    read_split_bytes: int = 8
    # Write-combining buffer line size (x86 WC buffer, [47]).
    wc_line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if self.read_split_bytes < 1 or self.wc_line_bytes < 1:
            raise ValueError("split sizes must be >= 1")
        # posted_burst wakes the kernel at a burst's last landing, which is
        # its latest only while the wire never runs backwards.
        if self.tlp_overhead < 0 or self.propagation < 0:
            raise ValueError("link delays must be >= 0")


class PostedRun:
    """One burst entry on the wire: TLPs issued back to back.

    The TLPs carry consecutive pieces of ``payload`` to ``region[offset:]``,
    cut at the multiples of ``size`` in the region; without a region the
    run is one TLP whose payload is a callable.
    :meth:`PcieLink.posted_burst` works out the landing keys of the first
    and the last TLP only; the run is a sequence of every TLP's key,
    obtained on first use by replaying the additions the burst made when
    it serialized the run.
    """

    __slots__ = ("region", "offset", "payload", "size", "count", "first",
                 "last", "_replay", "_keys")

    def __init__(self, region: Optional["ByteRegion"], offset: int, payload,
                 size: int, count: int, first: float, last: float,
                 replay: tuple[float, float, int, float, Optional[float], float],
                 ) -> None:
        self.region = region
        self.offset = offset
        self.payload = payload
        self.size = size
        self.count = count
        self.first = first
        self.last = last
        # (issue time, wire-free time after the first TLP, full TLPs after
        # it, occupancy of a full TLP, occupancy of a short last TLP or
        # None, propagation)
        self._replay = replay
        self._keys: Optional[list[float]] = None

    def flights(self) -> Iterator[float]:
        """Issue-to-landing delay of every TLP the run was issued with."""
        issued, free_at, full, occupancy, short, propagation = self._replay
        yield free_at + propagation - issued
        for _ in range(full):
            free_at += occupancy
            yield free_at + propagation - issued
        if short is not None:
            yield free_at + short + propagation - issued

    def keys(self) -> list[float]:
        """Landing key of each TLP still in flight, in issue order.

        A key is what the heap was handed for the TLP's landing event:
        issue time plus flight, not the landing time itself.
        """
        if self._keys is None:
            issued = self._replay[0]
            self._keys = [issued + flight for flight in self.flights()]
        return self._keys

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[float]:
        return iter(self.keys())

    def take_landed(self, now: float) -> bytes:
        """Split off the payload of the TLPs landed by ``now`` (some, not
        all); the rest stays in flight."""
        keys = self.keys()
        landed = bisect_right(keys, now)
        # Up to the next multiple of size, then whole ones.
        cut = landed * self.size - self.offset % self.size
        payload = self.payload[:cut]
        self.payload = self.payload[cut:]
        self.offset += cut
        self.count -= landed
        self._keys = keys[landed:]
        self.first = self._keys[0]
        return payload


class PcieLink:
    """One host-to-device link: posted writes down, split reads up."""

    def __init__(self, engine: Engine, params: Optional[PcieParams] = None) -> None:
        self.engine = engine
        self.params = params or PcieParams()
        self._down_free_at = 0.0
        self._last_posted_landing = 0.0
        self.posted_writes_issued = 0
        self.read_tlps_issued = 0
        self.posted_writes_lost = 0
        # Posted TLPs still on the wire, in issue order, one run per burst
        # entry.  A TLP is part of device memory from its landing time on
        # because settle() runs before anything can observe the target
        # region.
        self._inflight: deque[PostedRun] = deque()
        self._settling = False
        engine.on_purge(self._drop_unlanded)

    # -- posted writes ------------------------------------------------------

    def posted_write(self, nbytes: int, deposit: Optional[Callable[[], None]] = None) -> float:
        """Issue a posted write; returns the landing time (caller does not wait).

        ``deposit`` runs at landing time — that is when the payload becomes
        part of device memory (and hence durable if the device memory is
        power-protected).  A power failure before landing loses the write,
        which is why the durability protocol ends with a write-verify read.
        """
        if nbytes < 0:
            raise ValueError(f"posted write size must be >= 0, got {nbytes}")
        return self.posted_burst(((nbytes, None, 0, deposit),))

    def posted_burst(self, tlps: Iterable[PostedTlp]) -> float:
        """Issue posted writes back to back; returns the last landing time.

        Each TLP serializes on the wire behind the previous one and lands
        at its own time; the whole burst costs the kernel one wake-up, at
        the last landing.  A malformed entry raises with nothing of the
        burst issued.
        """
        engine = self.engine
        now = engine.now
        params = self.params
        overhead = params.tlp_overhead
        bandwidth = params.bandwidth_bytes_per_sec
        propagation = params.propagation
        free_at = self._down_free_at
        issued = total_bytes = 0
        wake = landing = None
        runs: list[PostedRun] = []      # every entry, in issue order
        queued: list[PostedRun] = []    # those with something to deposit
        fresh: list["ByteRegion"] = []  # regions not yet marked as this link's
        for nbytes, region, offset, payload in tlps:
            # The first TLP's bytes, the full ones behind it, the occupancy
            # of a short last one.
            length = size = nbytes
            count, full, short = 1, 0, None
            if region is not None:
                length = len(payload)
                if nbytes < 1 or not 0 <= offset < offset + length <= region.size:
                    region._check(offset, length)   # out of range raises here
                    raise ValueError(
                        f"payload of {length} bytes is not a run of "
                        f"{nbytes}-byte TLPs")
                if region._inbound is not self:
                    if region._inbound is not None:
                        raise ValueError(
                            f"region {region.name!r} already takes posted "
                            "writes from another link")
                    fresh.append(region)
                size = nbytes - offset % nbytes
                if size < length:
                    full, rest = divmod(length - size, nbytes)
                    count += full
                    if rest:
                        short = overhead + rest / bandwidth
                        count += 1
                else:
                    size = length
            # The wire arithmetic, per TLP: start when the wire is free,
            # hold it for the occupancy, land one propagation later.  Only
            # the wire-free time is carried through a run; flights() is
            # the same additions with the landing taken at every step.
            occupancy = overhead + nbytes / bandwidth
            head = free_at = ((free_at if free_at > now else now)
                              + (overhead + size / bandwidth))
            landing = free_at + propagation
            first = last = now + (landing - now)
            if count > 1:
                for _ in range(full):
                    free_at += occupancy
                if short is not None:
                    free_at += short
                landing = free_at + propagation
                last = now + (landing - now)
            issued += count
            total_bytes += length
            run = PostedRun(region, offset, payload, nbytes, count, first, last,
                            (now, head, full, occupancy, short, propagation))
            runs.append(run)
            if payload is not None:
                queued.append(run)
                wake = landing
        if not runs:
            return self._last_posted_landing
        # Nothing above touched the link; nothing below can raise.
        self._down_free_at = free_at
        self._last_posted_landing = max(self._last_posted_landing, landing)
        self.posted_writes_issued += issued
        for region in fresh:
            region._inbound = self
        if tracing.enabled:
            for run in runs:
                for flight in run.flights():
                    tracing.observe("pcie.link.posted_write_flight", flight)
            tracing.count("pcie.link.posted_writes", issued)
            tracing.count("pcie.link.posted_bytes", total_bytes)
        if queued:
            self._inflight.extend(queued)
            if simsan.enabled:
                # kernel.past-event stays a per-TLP check; the wake-up's
                # own _schedule() checks the last one.
                flights = [flight for run in queued for flight in run.flights()]
                for flight in flights[:-1]:
                    simsan.check_schedule(engine, flight)
            # One wake-up, at the burst's latest landing — its last one:
            # every step from wire-free time to key adds a constant, and
            # a rounded addition is monotone.
            event = Event(engine)
            event._triggered = True
            event.callbacks.append(self._wake)
            engine._schedule(event, delay=wake - now)
        return landing

    def _wake(self, _event: Event) -> None:
        self.settle()

    def settle(self) -> None:
        """Deposit every in-flight TLP whose landing time has come, in order.

        Runs from the burst's wake-up and from every access to a region
        this link writes (:class:`~repro.host.memory.ByteRegion`), so a
        TLP is never observed un-landed after its landing time.  Deposits
        go through ``region.write``, which calls back here; the flag makes
        that inner call a no-op so it cannot deposit a later TLP first.
        """
        inflight = self._inflight
        if self._settling or not inflight:
            return
        now = self.engine.now
        self._settling = True
        try:
            while inflight:
                run = inflight[0]
                if run.first > now:
                    break
                region, offset = run.region, run.offset
                if run.last <= now:
                    inflight.popleft()
                    payload = run.payload
                else:
                    # Now falls inside the run: only here are its per-TLP
                    # keys needed.
                    payload = run.take_landed(now)
                if region is None:
                    payload()
                else:
                    region.write(offset, payload)
        finally:
            self._settling = False

    def unsettled(self) -> bool:
        """True when a landed TLP is still queued outside a settle()."""
        inflight = self._inflight
        return (not self._settling and bool(inflight)
                and inflight[0].first <= self.engine.now)

    @property
    def in_flight(self) -> int:
        """Posted TLPs issued but not yet deposited."""
        return sum(run.count for run in self._inflight)

    def _drop_unlanded(self) -> None:
        """Deposit what has landed, lose the rest (power loss, kernel purge)."""
        self.settle()
        self.posted_writes_lost += self.in_flight
        self._inflight.clear()

    def power_loss(self) -> None:
        """Discard in-flight posted writes: they never reach device memory."""
        self._drop_unlanded()
        self._last_posted_landing = self.engine.now
        self._down_free_at = self.engine.now

    @property
    def pending_posted_until(self) -> float:
        """Simulation time by which all posted writes issued so far have landed."""
        return self._last_posted_landing

    # -- non-posted reads ---------------------------------------------------

    def non_posted_read(self, nbytes: int) -> Iterator[Event]:
        """Process: a read transaction of up to ``read_split_bytes`` bytes.

        Ordering: completes no earlier than the landing of every posted
        write issued before it.  A zero-byte read is the paper's
        write-verify read: pure ordering, minimal cost.
        """
        if nbytes < 0 or nbytes > self.params.read_split_bytes:
            raise ValueError(
                f"read TLP carries 0..{self.params.read_split_bytes} bytes, got {nbytes}"
            )
        with tracing.span("pcie.link.non_posted_read", self.engine):
            barrier = self._last_posted_landing
            if barrier > self.engine.now:
                yield self.engine.timeout(barrier - self.engine.now)
            if nbytes > 0:
                yield self.engine.timeout(self.params.mmio_read_tlp_latency)
                self.read_tlps_issued += 1
        return None

    def mmio_read_latency(self, nbytes: int) -> float:
        """Pure-latency helper: cost of an uncacheable MMIO read of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"read size must be >= 0, got {nbytes}")
        tlps = -(-nbytes // self.params.read_split_bytes)
        return tlps * self.params.mmio_read_tlp_latency
