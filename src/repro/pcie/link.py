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
# ``region[offset:]`` on landing; a payload of several times ``nbytes`` is a
# run of that many equal TLPs at consecutive offsets.  Without a region it
# is one TLP whose payload is a callable run on landing, or ``None`` for a
# TLP that only occupies the wire.
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
        # Posted TLPs still on the wire, in issue order, one record per
        # burst entry: (region, offset, payload, landing time of each TLP).
        # A TLP is part of device memory from its landing time on because
        # settle() runs before anything can observe the target region.
        self._inflight: deque[tuple] = deque()
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
        the last landing.
        """
        engine = self.engine
        now = engine.now
        params = self.params
        overhead = params.tlp_overhead
        bandwidth = params.bandwidth_bytes_per_sec
        propagation = params.propagation
        inflight = self._inflight
        free_at = self._down_free_at
        landing = self._last_posted_landing
        issued = total_bytes = 0
        wake = unchecked = None
        for nbytes, region, offset, payload in tlps:
            if region is None:
                count = 1
            else:
                if nbytes < 1 or len(payload) % nbytes:
                    raise ValueError(
                        f"payload of {len(payload)} bytes is not a run of "
                        f"{nbytes}-byte TLPs")
                count = len(payload) // nbytes
                if region._inbound is not self:
                    if region._inbound is not None:
                        raise ValueError(
                            f"region {region.name!r} already takes posted "
                            "writes from another link")
                    region._inbound = self
            occupancy = overhead + nbytes / bandwidth
            whens = []
            for _ in range(count):
                start = free_at if free_at > now else now
                free_at = start + occupancy
                landing = free_at + propagation
                delay = landing - now
                if tracing.enabled:
                    tracing.observe("pcie.link.posted_write_flight", delay)
                if payload is not None:
                    # kernel.past-event stays a per-TLP check; the
                    # wake-up's own _schedule() checks the last one.
                    if simsan.enabled and unchecked is not None:
                        simsan.check_schedule(engine, unchecked)
                    unchecked = delay
                    # The latest landing: the last one, unless rounding
                    # put two keys out of order.
                    if wake is None or delay > wake:
                        wake = delay
                    whens.append(now + delay)
            issued += count
            total_bytes += count * nbytes
            if payload is not None:
                inflight.append((region, offset, payload, whens))
        self._down_free_at = free_at
        self._last_posted_landing = max(self._last_posted_landing, landing)
        self.posted_writes_issued += issued
        if tracing.enabled:
            tracing.count("pcie.link.posted_writes", issued)
            tracing.count("pcie.link.posted_bytes", total_bytes)
        if wake is not None:
            event = Event(engine)
            event._triggered = True
            event.callbacks.append(self._wake)
            engine._schedule(event, delay=wake)
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
                region, offset, payload, whens = inflight[0]
                if whens[0] > now:
                    break
                if whens[-1] <= now:
                    inflight.popleft()
                else:
                    # The landed head of a run; the rest stays in flight.
                    landed = bisect_right(whens, now)
                    cut = landed * (len(payload) // len(whens))
                    inflight[0] = (region, offset + cut, payload[cut:],
                                   whens[landed:])
                    payload = payload[:cut]
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
                and inflight[0][3][0] <= self.engine.now)

    @property
    def in_flight(self) -> int:
        """Posted TLPs issued but not yet deposited."""
        return sum(len(record[3]) for record in self._inflight)

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
