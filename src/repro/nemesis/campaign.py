"""Campaign scheduler: compose nemeses over a long simulated timeline.

A :class:`CampaignSpec` is a frozen, seeded description of one chaos
scenario: pool shape, client load, a fault schedule, an optional latency
SLO.  :func:`run_campaign` builds the pool, opens replicated streams,
spawns crash-tolerant clients, and drives the simulation in *segments* —
``engine.run(until=next_action)`` — applying each fault (and each heal a
fault scheduled) between segments, never from inside a running event
callback.  That discipline is what lets crash faults ``purge()`` the
kernel safely, and it keeps the whole campaign a deterministic function
of the spec: same spec, same seed -> byte-identical result, which is how
campaign legs ride the run-matrix executor's ``--jobs`` fan-out.

The streaming analyzer subscribes to the event bus for the whole run;
simsan (:mod:`repro.analysis.sanitizer`) is active throughout, and the
final verdict folds in its counters plus the end-of-campaign recovery
and SLO checks.  A failing campaign writes a replayable bundle — spec,
seed, verdict, and the full event log — so any red run reproduces with
``repro nemesis --campaign <name> --seed <seed>``.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import pathlib
from typing import Callable, Iterator, Optional

from repro.analysis import sanitizer as simsan
from repro.analysis.sanitizer import SanitizerError
from repro.cluster import (
    ClusterCrashHarness,
    ClusterError,
    DevicePool,
    FailoverManager,
    NoSpareError,
    QuorumLossError,
    make_payload,
)
from repro.core import BaParams
from repro.nemesis.analyzer import StreamingAnalyzer
from repro.nemesis.faults import CATALOG
from repro.obs import events
from repro.obs.tracing import Tracer, activated as tracing_activated
from repro.wal.base import PartialAppendError
from repro.sim.units import KiB, USEC


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scheduled nemesis: catalog kind, injection time, kwargs."""

    kind: str
    at_us: float
    kwargs: tuple = ()

    def build(self):
        return CATALOG[self.kind](**dict(self.kwargs))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "at_us": self.at_us,
                "kwargs": dict(self.kwargs)}


def fault(kind: str, at_us: float, **kwargs) -> FaultSpec:
    """Convenience constructor mirroring :func:`repro.bench.runner.leg`."""
    if kind not in CATALOG:
        raise KeyError(f"unknown fault kind {kind!r}; catalog has "
                       f"{sorted(CATALOG)}")
    return FaultSpec(kind=kind, at_us=at_us,
                     kwargs=tuple(sorted(kwargs.items())))


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A full scenario: pool shape, load, fault schedule, SLOs."""

    name: str
    seed: int = 0
    devices: int = 4
    streams: int = 2
    clients_per_stream: int = 2
    records_per_client: int = 10_000  # effectively "until the clock runs out"
    payload_bytes: int = 256
    #: Records per client iteration: each iteration appends a batch and
    #: covers it with one quorum barrier before acking any member (the
    #: gateway group-commit pattern under chaos); 1 is per-record commit.
    batch: int = 1
    replicas: int = 2
    quorum: Optional[int] = None
    duration_us: float = 3000.0
    drain_us: float = 800.0
    area_pages: int = 64
    ba_buffer_kib: int = 64
    faults: tuple = ()
    #: (histogram name, percentile, max seconds) ceilings.
    slo: tuple = ()
    fail_fast: bool = True

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["faults"] = [spec.to_dict() for spec in self.faults]
        payload["slo"] = [list(ceiling) for ceiling in self.slo]
        return payload


class CampaignContext:
    """Mutable campaign state shared between the driver and the faults."""

    def __init__(self, spec: CampaignSpec, pool: DevicePool,
                 analyzer: StreamingAnalyzer) -> None:
        self.spec = spec
        self.pool = pool
        self.engine = pool.engine
        self.analyzer = analyzer
        self.harness = ClusterCrashHarness(pool)
        self.manager = FailoverManager(pool)
        self.stopped = False
        # stream -> [(ack_time, payload)]; (stream, client) -> next seq.
        self.acked: dict[str, list] = {}
        self.next_seq: dict[tuple[str, int], int] = {}
        self.quorum_losses = 0
        self.respawns = 0
        self.dropped_streams: list[str] = []
        self.thief_pins: dict[str, list] = {}
        self.pressure_streams = 0
        self._pending: list = []  # heap of (time, tiebreak, label, fn)
        self._action_seq = 0

    # -- scheduling ---------------------------------------------------------

    def at(self, when: float, action: Callable[[], None],
           label: str = "") -> None:
        """Queue ``action`` for the campaign's segment loop at ``when``.

        Plain Python state, deliberately not an engine event: a crash
        fault purges the kernel, but a heal scheduled here must still
        fire (partitions are physical network state, not in-flight sim
        work).
        """
        self._action_seq += 1
        heapq.heappush(self._pending, (when, self._action_seq, label, action))

    def pop_due(self) -> Optional[tuple[float, str, Callable[[], None]]]:
        if not self._pending:
            return None
        when, _seq, label, action = heapq.heappop(self._pending)
        return when, label, action

    # -- victims ------------------------------------------------------------

    def resolve_victim(self, victim: str) -> str:
        """``"node2"`` literal, or a role: ``"primary:wal0"``,
        ``"replica:wal0"``, ``"other:wal0"`` (an up node carrying no leg
        of the stream) — resolved against the *current* topology."""
        if ":" not in victim:
            if victim not in self.pool.nodes:
                raise KeyError(f"unknown victim node {victim!r}")
            return victim
        role, _, stream_name = victim.partition(":")
        stream = self.pool.streams.get(stream_name)
        if stream is None:
            raise KeyError(f"victim role {victim!r}: stream is gone")
        if role == "primary":
            return stream.primary.node.name
        if role == "replica":
            for leg in stream.replica_legs:
                return leg.node.name
            raise KeyError(f"victim role {victim!r}: stream has no replicas")
        if role == "other":
            members = {leg.node.name for leg in stream.legs()}
            for node in self.pool.up_nodes():
                if node.name not in members:
                    return node.name
            raise KeyError(f"victim role {victim!r}: no node outside "
                           f"{sorted(members)} is up")
        raise KeyError(f"unknown victim role {role!r} in {victim!r}")

    # -- crash + failover + respawn -----------------------------------------

    def crash_node(self, victim: str,
                   interrupt: Optional[tuple[str, float]] = None) -> None:
        """The full crash dance: purge, fail over every wounded stream,
        respawn the clients the purge killed.

        ``interrupt=(second_victim_role, delay_seconds)`` crashes another
        node that far into the *first* wounded stream's promotion — the
        crash-during-failover nemesis — after which the loop retries.
        """
        self.harness.crash_node_now(victim)
        self._fail_over_all(interrupt)
        self.respawn_clients()

    def _fail_over_all(self,
                       interrupt: Optional[tuple[str, float]] = None) -> None:
        engine = self.engine
        # A promotion can itself crash a second node (the failover_crash
        # nemesis), wounding streams an earlier iteration already passed
        # over — so sweep until the topology is stable.  Each stream is
        # attempted at most once per crash: one that stays wounded after
        # its attempt (no spare) is unavailability, not forward progress.
        attempted: set[str] = set()
        while True:
            pending = [
                name for name in self.pool.streams
                if "@" not in name and name not in attempted
                and not all(leg.node.up
                            for leg in self.pool.streams[name].legs())
            ]
            if not pending:
                break
            for name in pending:
                attempted.add(name)
                stream = self.pool.streams.get(name)
                if stream is None:
                    continue
                if not any(leg.node.up for leg in stream.legs()):
                    # Nothing to promote from.  Pressure streams carry no
                    # clients; client streams losing every leg is a
                    # quorum-loss outcome the analyzer accounts for.
                    self._drop_stream(name)
                    continue
                try:
                    if interrupt is not None:
                        self._interrupted_fail_over(name, interrupt)
                        interrupt = None  # only the first wounded stream
                        stream = self.pool.streams.get(name)
                        if stream is not None and \
                                any(not leg.node.up
                                    for leg in stream.legs()):
                            engine.run_process(self.manager.fail_over(name))
                    else:
                        engine.run_process(self.manager.fail_over(name))
                except (NoSpareError, ClusterError) as exc:
                    if events.enabled:
                        events.emit("cluster.failover.impossible",
                                    engine.now, stream=name,
                                    reason=type(exc).__name__)
                    if not any(leg.node.up
                               for leg in self.pool.streams[name].legs()):
                        self._drop_stream(name)
        # The purge also killed pipelines of streams the crash never
        # touched (shared engine): revive any dead replica worker on a
        # fully-up stream.  Wounded survivors are deliberately left dead
        # — reconnecting a "down" node's pipeline would let its acks
        # satisfy quorum, the exact false durability the analyzer hunts.
        for name, stream in self.pool.streams.items():
            if "@" in name:
                continue
            if all(leg.node.up for leg in stream.legs()):
                stream.respawn_workers()

    def _interrupted_fail_over(self, name: str,
                               interrupt: tuple[str, float]) -> None:
        """Start the promotion, crash the second victim mid-flight, and
        leave the retry to the caller."""
        second_role, delay = interrupt
        engine = self.engine
        promotion = engine.process(self.manager.fail_over(name),
                                   name=f"nemesis-failover-{name}")
        try:
            engine.run(until=engine.now + delay)
        except (NoSpareError, ClusterError) as exc:
            # The unawaited promotion failed before the second crash hit.
            if events.enabled:
                events.emit("cluster.failover.impossible", engine.now,
                            stream=name, reason=type(exc).__name__)
            return None
        if not promotion.processed:
            try:
                second = self.resolve_victim(second_role)
            except KeyError:
                return None
            if self.pool.nodes[second].up:
                if events.enabled:
                    events.emit("nemesis.fault.injected", engine.now,
                                fault="failover_crash.second",
                                victim=second, stream=name)
                # The purge kills the in-flight promotion; the staged
                # stream (if any) is stale and the retry discards it.
                self.harness.crash_node_now(second)
        return None

    def _drop_stream(self, name: str) -> None:
        stream = self.pool.streams.pop(name, None)
        if stream is None:
            return
        self.dropped_streams.append(name)
        for leg in stream.legs():
            if leg.node.up and leg.kind == "ba" and leg.pair is not None:
                # Budget bookkeeping only — the purge killed any in-
                # flight pin work, and recovery never trusts the buffer.
                self.engine.run_process(self.pool.release_leg(leg))

    # -- clients ------------------------------------------------------------

    def _client(self, stream_name: str, client: int) -> Iterator:
        engine = self.engine
        spec = self.spec
        key = (stream_name, client)
        while not self.stopped:
            seq = self.next_seq[key]
            if seq >= spec.records_per_client:
                return None
            stream = self.pool.streams.get(stream_name)
            if stream is None:
                return None
            count = min(spec.batch, spec.records_per_client - seq)
            payloads = [make_payload(stream_name, client, seq + i,
                                     spec.payload_bytes)
                        for i in range(count)]
            try:
                lsns = yield from stream.append_batch(payloads)
            except PartialAppendError as exc:
                # Only the durable prefix may ever be acked.
                lsns = exc.lsns
                payloads = payloads[:len(lsns)]
            try:
                yield from stream.commit_batch(lsns)
            except QuorumLossError:
                self.quorum_losses += 1
                return None
            now = engine.now
            for payload in payloads:
                self.acked[stream_name].append((now, payload))
            self.next_seq[key] = seq + len(payloads)
        return None

    def open_streams(self) -> None:
        for index in range(self.spec.streams):
            name = f"wal{index}"
            self.engine.run_process(self.pool.open_stream(
                name, replicas=self.spec.replicas, quorum=self.spec.quorum))
            self.acked[name] = []

    def spawn_clients(self) -> None:
        for index in range(self.spec.streams):
            name = f"wal{index}"
            for client in range(self.spec.clients_per_stream):
                self.next_seq.setdefault((name, client), 0)
                self.engine.process(self._client(name, client),
                                    name=f"nemesis-client-{name}-{client}")

    def respawn_clients(self) -> None:
        """Restart every client the purge killed, resuming each at its
        last acked sequence number (at-least-once: an append whose ack
        the crash swallowed may be retried and deduplicated later)."""
        if self.stopped:
            return
        for (name, client) in sorted(self.next_seq):
            if name not in self.pool.streams:
                continue
            self.respawns += 1
            self.engine.process(self._client(name, client),
                                name=f"nemesis-client-{name}-{client}-r")


def build_pool(spec: CampaignSpec) -> DevicePool:
    return DevicePool(
        devices=spec.devices,
        seed=spec.seed,
        ba_params=BaParams(buffer_bytes=spec.ba_buffer_kib * KiB),
        area_pages=spec.area_pages,
    )


def run_campaign(spec: CampaignSpec, pool: Optional[DevicePool] = None,
                 bundle_dir: Optional[str] = None) -> dict:
    """Run one campaign; returns a JSON-safe verdict.

    ``pool`` lets run-matrix legs pass a warm (snapshot-restored) pool;
    the default builds a fresh one from the spec.  ``bundle_dir``
    receives a replay bundle when the campaign fails.
    """
    if pool is None:
        pool = build_pool(spec)
    engine = pool.engine
    analyzer = StreamingAnalyzer()
    bus = events.EventBus()
    bus.subscribe(analyzer.on_event)
    tracer = Tracer()
    outer_san = simsan.enabled
    san_before = simsan.stats() if outer_san else {"checks": 0,
                                                   "violations": 0}
    sanitizer_error: Optional[str] = None

    def guarded_run(until: float) -> None:
        nonlocal sanitizer_error
        if until <= engine.now:
            return
        try:
            engine.run(until=until)
        except SanitizerError as exc:
            sanitizer_error = str(exc)
            analyzer._violate(engine.now, "simsan." + exc.invariant,
                              str(exc))

    with events.activated(bus), tracing_activated(tracer):
        if outer_san:
            san_scope = None
        else:
            san_scope = simsan.activated()
            san_scope.__enter__()
        try:
            ctx = CampaignContext(spec, pool, analyzer)
            # All campaign times are offsets from here: a warm
            # (snapshot-restored) pool starts with now > 0.
            start = engine.now
            ctx.open_streams()
            ctx.spawn_clients()
            for fault_spec in spec.faults:
                nemesis = fault_spec.build()
                ctx.at(start + fault_spec.at_us * USEC,
                       (lambda n=nemesis: n.inject(ctx)),
                       label=f"inject:{fault_spec.kind}")
            end = start + spec.duration_us * USEC
            while True:
                if spec.fail_fast and not analyzer.ok():
                    break
                entry = ctx.pop_due()
                if entry is None:
                    break
                when, _label, action = entry
                if when > end:
                    break  # scheduled past the campaign horizon
                guarded_run(when)
                if sanitizer_error is not None and spec.fail_fast:
                    break
                try:
                    action()
                except SanitizerError as exc:
                    sanitizer_error = str(exc)
                    analyzer._violate(engine.now,
                                      "simsan." + exc.invariant, str(exc))
            if analyzer.ok() or not spec.fail_fast:
                guarded_run(end)
                # Let in-flight commits settle, then stop the clients.
                ctx.stopped = True
                guarded_run(end + spec.drain_us * USEC)
            else:
                ctx.stopped = True
            recovery = analyzer.check_recovery(pool, ctx.acked)
            slo = analyzer.check_slo(tracer, spec.slo)
            san_after = simsan.stats()
        finally:
            if san_scope is not None:
                san_scope.__exit__(None, None, None)
    san = {
        "checks": san_after["checks"] - san_before["checks"],
        "violations": san_after["violations"] - san_before["violations"],
    }
    if san["violations"]:
        analyzer._violate(engine.now, "simsan.violations",
                          f"sanitizer recorded {san['violations']} "
                          f"violation(s) during the campaign")
    result = {
        "campaign": spec.name,
        "seed": spec.seed,
        "ok": analyzer.ok(),
        "sim_seconds": round(engine.now - start, 9),
        "records_acked": {name: len(entries)
                          for name, entries in sorted(ctx.acked.items())},
        "quorum_losses": ctx.quorum_losses,
        "respawns": ctx.respawns,
        "dropped_streams": sorted(ctx.dropped_streams),
        "ba_fallbacks": pool.ba_fallbacks,
        "nodes": {name: ("up" if node.up else "down")
                  for name, node in sorted(pool.nodes.items())},
        "events": bus.counts(),
        "analysis": analyzer.summary(),
        "recovery": recovery,
        "slo": slo,
        "sanitizer": san,
    }
    if not result["ok"] and bundle_dir is not None:
        result["bundle"] = write_bundle(spec, result, bus, bundle_dir)
    return result


def write_bundle(spec: CampaignSpec, result: dict, bus: events.EventBus,
                 bundle_dir: str) -> str:
    """Persist the replay bundle for a failed campaign.

    One JSON file: the spec (replay recipe), the verdict, and the full
    typed event log.  The file name is deterministic (campaign + seed),
    so CI re-runs overwrite rather than accumulate.
    """
    directory = pathlib.Path(bundle_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{spec.name}-seed{spec.seed}.json"
    payload = {
        "replay": {
            "command": f"repro nemesis --campaign {spec.name} "
                       f"--seed {spec.seed}",
            "spec": spec.to_dict(),
        },
        "result": result,
        "events": bus.to_json(),
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return str(path)
