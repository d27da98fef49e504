"""Device failure and stream promotion over the pool.

:class:`ClusterCrashHarness` adapts the single-platform
:class:`~repro.core.faults.CrashHarness` sequence to a shared engine:
the *victim* node takes the full power-loss path (capacitor-backed
BA-buffer dump, PLP destage, posted writes lost), while every node —
healthy ones included — is fenced (``halt``) before the one global
purge and rebooted after it.  Fencing first matters: the purge cancels
every live process, and their cleanup runs against fenced devices.
Healthy nodes keep their DRAM, mapping tables, and pinned BA-buffer
contents; only their in-flight work dies, exactly like hosts that lost
a peer, not power.

:class:`FailoverManager` then runs the promotion: pick a surviving leg,
replay its recovered log into a fresh stream placed on the survivor (as
new primary) plus a spare, and commit the replay at quorum.  The
durability contract across the whole dance: **no acked record is lost,
no un-acked record is resurrected as acked** — the crash-sweep property
test pins this at every crash time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cluster.errors import ClusterError, NoSpareError
from repro.cluster.pool import DevicePool, PoolNode, StreamLeg
from repro.cluster.replicated import ReplicatedBaWAL
from repro.core.faults import kill_in_flight
from repro.core.power import PowerLossReport
from repro.obs import events, tracing
from repro.sim.engine import Event, Process


@dataclass
class ClusterCrashOutcome:
    """What happened around one injected node crash."""

    crash_time: float
    victim: str
    workload_finished: bool
    report: PowerLossReport
    events_discarded: int


@dataclass
class FailoverResult:
    """What a completed promotion produced."""

    stream: ReplicatedBaWAL
    recovered: list[bytes]
    promoted: str
    spare: str
    source_kind: str  # which kind of leg the log was recovered from


class ClusterCrashHarness:
    """Kill one node mid-stream; the rest of the pool survives fenced."""

    def __init__(self, pool: DevicePool) -> None:
        self.pool = pool
        self.engine = pool.engine

    def crash_node_at(self, victim: str, crash_time: float,
                      workload: Optional[Iterator[Event]] = None,
                      ) -> ClusterCrashOutcome:
        """Run ``workload`` until ``now + crash_time``, then fail ``victim``."""
        engine = self.engine
        node = self.pool.nodes[victim]
        if not node.up:
            raise ClusterError(f"node {victim!r} is already down")
        process: Optional[Process] = None
        if workload is not None:
            process = engine.process(workload, name="cluster-crash-workload")
        target = engine.now + crash_time
        engine.run(until=target)
        finished = process is None or process.processed
        report, discarded = self.crash_node_now(victim)
        return ClusterCrashOutcome(
            crash_time=target,
            victim=victim,
            workload_finished=finished,
            report=report,
            events_discarded=discarded,
        )

    def crash_node_now(self, victim: str) -> tuple[PowerLossReport, int]:
        """Fail ``victim`` at the current instant (no workload bookkeeping
        — the nemesis scheduler owns its own timeline).  Returns the
        victim's power-loss report and the purged-event count."""
        engine = self.engine
        node = self.pool.nodes[victim]
        if not node.up:
            raise ClusterError(f"node {victim!r} is already down")
        # The victim loses power: WC lines, in-flight posted writes, and
        # un-dumped BA-buffer bytes die; capacitors save what they can.
        report = node.platform.power.power_loss()
        # EVERY device is fenced, purged and rebooted (shared engine).
        discarded = kill_in_flight(
            engine, [device for pool_node in self.pool.nodes.values()
                     for device in pool_node.platform.power._devices])
        # The victim comes back up as hardware but stays fenced out of the
        # pool until an operator (or test) re-admits it.
        node.platform.power.power_on()
        self.pool.mark_down(victim)
        if events.enabled:
            events.emit("cluster.node.crashed", engine.now,
                        victim=victim, events_discarded=discarded,
                        up_nodes=len(self.pool.up_nodes()))
        if tracing.enabled:
            tracing.count("cluster.node_crashes")
        return report, discarded


class FailoverManager:
    """Promote a surviving replica of a stream whose node set was hit."""

    def __init__(self, pool: DevicePool) -> None:
        self.pool = pool
        self.engine = pool.engine

    def fail_over(self, stream_name: str,
                  spare: Optional[str] = None) -> Iterator[Event]:
        """Process: recover, promote, re-replicate.  Returns a
        :class:`FailoverResult` whose ``stream`` replaces the old one in
        ``pool.streams`` under the same name.

        The promotion is *crash-safe*: the new stream is staged under a
        temporary name and takes over only after the replay is quorum-
        durable.  A node crash anywhere mid-promotion (purging this very
        process) leaves the old stream registered, so a retried
        ``fail_over`` re-recovers the complete old log — the staged
        half-replay is discarded, never trusted.
        """
        stream = self.pool.streams[stream_name]
        with tracing.span("cluster.failover", self.engine):
            survivor_leg = self._pick_survivor(stream)
            spare_node = self._pick_spare(stream, spare)
            if events.enabled:
                events.emit("cluster.failover.staged", self.engine.now,
                            stream=stream_name,
                            survivor=survivor_leg.node.name,
                            spare=spare_node.name)
            new_stream, recovered = yield from self.pool.restage(
                stream_name, survivor_leg,
                [survivor_leg.node.name, spare_node.name], "promote")
            if events.enabled:
                events.emit("cluster.failover.promoted", self.engine.now,
                            stream=stream_name,
                            nodes=tuple(leg.node.name
                                        for leg in new_stream.legs()),
                            recovered=len(recovered))
        if tracing.enabled:
            tracing.count("cluster.failovers")
        return FailoverResult(
            stream=new_stream,
            recovered=recovered,
            promoted=survivor_leg.node.name,
            spare=spare_node.name,
            source_kind=survivor_leg.kind,
        )

    def _pick_survivor(self, stream: ReplicatedBaWAL) -> StreamLeg:
        """The stream's first still-up leg, primary preferred (its log is
        a superset of every ack the stream ever issued)."""
        for leg in stream.legs():
            if leg.node.up:
                return leg
        raise ClusterError(
            f"stream {stream.name!r} has no surviving leg to promote"
        )

    def _pick_spare(self, stream: ReplicatedBaWAL,
                    requested: Optional[str]) -> PoolNode:
        old_nodes = {leg.node.name for leg in stream.legs()}
        if requested is not None:
            node = self.pool.nodes[requested]
            if not node.up:
                raise NoSpareError(f"requested spare {requested!r} is down")
            if requested in old_nodes:
                raise NoSpareError(
                    f"requested spare {requested!r} already carries "
                    f"{stream.name!r}"
                )
            return node
        candidates = [node for node in self.pool.up_nodes()
                      if node.name not in old_nodes]
        if not candidates:
            raise NoSpareError(
                f"no healthy node outside {sorted(old_nodes)} to "
                f"re-replicate {stream.name!r} onto"
            )
        # Prefer a spare with byte-path budget left; break ties by index
        # so the choice is deterministic.
        candidates.sort(
            key=lambda node: (node.try_peek_pair() is None, node.index)
        )
        return candidates[0]
