"""Simulated host-to-host network link between pool nodes.

Modeled like :mod:`repro.pcie.link`, one layer up: each node has an
egress port that serializes outbound messages (wire occupancy = per-
message overhead + bytes / bandwidth), and every message then takes a
propagation delay to reach the destination host.  All timing runs on the
shared simulation kernel, so cluster runs are exactly as deterministic as
single-platform ones.

Replication traffic (the only current user) is small-message dominated:
WAL records of a few hundred bytes plus fixed-size commit/ack control
messages, so per-message overhead matters as much as bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs import tracing
from repro.sim import Engine
from repro.sim.engine import Event
from repro.sim.units import USEC


@dataclass(frozen=True)
class NetParams:
    """Link constants for a datacenter fabric (25 GbE class, kernel-bypass
    transport — the tier a log-serving pool would actually sit on)."""

    # Effective payload bandwidth; 25 GbE ~3.1 GB/s raw, ~2.5 GB/s effective.
    bandwidth_bytes_per_sec: float = 2.5e9
    # Per-message serialization overhead (NIC doorbell + header build).
    message_overhead: float = 0.3 * USEC
    # One-way propagation host-to-host (ToR switch hop, kernel-bypass RX).
    propagation: float = 1.5 * USEC
    # Fixed size of control messages (commit requests and acks).
    control_bytes: int = 64

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if self.message_overhead < 0 or self.propagation < 0:
            raise ValueError("latencies must be non-negative")
        if self.control_bytes < 0:
            raise ValueError("control message size must be non-negative")


@dataclass
class NetStats:
    """Counters the interconnect maintains."""

    messages: int = 0
    bytes_sent: int = 0
    control_messages: int = 0


class Interconnect:
    """The pool's fabric: per-node serialized egress, shared clock."""

    def __init__(self, engine: Engine, params: Optional[NetParams] = None) -> None:
        self.engine = engine
        self.params = params or NetParams()
        self.stats = NetStats()
        self._egress_free_at: dict[str, float] = {}
        # Fault injection (see repro.nemesis): an isolated node blackholes
        # traffic — senders park on its barrier event until heal() fires
        # it.  A degradation factor > 1 scales wire occupancy fabric-wide
        # (congestion, a flapping optic).  Both empty/1.0 in healthy runs,
        # so the fast path is untouched.
        self._isolated: dict[str, Event] = {}
        self._degradation = 1.0
        engine.on_purge(self._rearm_partitions)

    # -- fault hooks ---------------------------------------------------------

    def isolate(self, node: str) -> None:
        """Partition ``node`` off the fabric: transfers touching it park
        until :meth:`heal`.  Idempotent."""
        if node not in self._isolated:
            self._isolated[node] = self.engine.event()

    def heal(self, node: Optional[str] = None) -> None:
        """End a partition (all of them with no argument); parked
        transfers resume in their original send order."""
        names = [node] if node is not None else sorted(self._isolated)
        for name in names:
            barrier = self._isolated.pop(name, None)
            if barrier is not None and not barrier.triggered:
                barrier.succeed()

    def is_isolated(self, node: str) -> bool:
        return node in self._isolated

    def isolated_nodes(self) -> list[str]:
        return sorted(self._isolated)

    def _rearm_partitions(self) -> None:
        """Purge hook: the senders parked on a barrier were cancelled, so
        a fresh barrier keeps a later heal from handing off to them; the
        partitions themselves (physical network state) persist."""
        for node in self._isolated:
            self._isolated[node] = self.engine.event()

    def set_degradation(self, factor: float) -> None:
        """Scale per-message wire occupancy by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor}")
        self._degradation = factor

    def clear_degradation(self) -> None:
        self._degradation = 1.0

    # -- timed transfers -----------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: int) -> Iterator[Event]:
        """Process: move ``nbytes`` from host ``src`` to host ``dst``.

        Completes when the last byte has arrived at ``dst``.  Egress wire
        occupancy is reserved up front (before any timed yield), so
        concurrent senders on one node serialize deterministically in
        call order; senders parked behind a partition barrier resume (and
        reserve) in that same order.
        """
        if nbytes < 0:
            raise ValueError(f"transfer size must be >= 0, got {nbytes}")
        if src == dst:
            raise ValueError(f"transfer from {src!r} to itself")
        params = self.params
        with tracing.span("cluster.net.send", self.engine):
            barrier = self._isolated.get(src) or self._isolated.get(dst)
            while barrier is not None:
                yield barrier
                # Re-check: the other endpoint may have been isolated
                # while this sender was parked.
                barrier = self._isolated.get(src) or self._isolated.get(dst)
            start = max(self.engine.now, self._egress_free_at.get(src, 0.0))
            occupancy = (params.message_overhead
                         + nbytes / params.bandwidth_bytes_per_sec)
            if self._degradation != 1.0:
                occupancy *= self._degradation
            self._egress_free_at[src] = start + occupancy
            arrival = start + occupancy + params.propagation
            yield self.engine.timeout(arrival - self.engine.now)
        self.stats.messages += 1
        self.stats.bytes_sent += nbytes
        if tracing.enabled:
            tracing.count("cluster.net.messages")
            tracing.count("cluster.net.bytes", nbytes)
        return None

    def send_control(self, src: str, dst: str) -> Iterator[Event]:
        """Process: one fixed-size control message (commit request / ack)."""
        self.stats.control_messages += 1
        yield from self.transfer(src, dst, self.params.control_bytes)
        return None

    def stats_dict(self) -> dict:
        """JSON-serializable counters for the merged cluster stats report."""
        return {
            "messages": self.stats.messages,
            "bytes_sent": self.stats.bytes_sent,
            "control_messages": self.stats.control_messages,
        }
