"""The device pool: N platforms, one clock, one shard placement map.

A :class:`DevicePool` owns N :class:`~repro.platform.Platform` instances
that share a single simulation engine (so replication traffic between
them is kernel-timed) and a :class:`~repro.cluster.placement.Placement`
ring that routes WAL streams to nodes by consistent hashing.

Per-node byte-path budget (Table I): the mapping table holds eight
entries and each BA-WAL stream needs two (double buffering), so a node
carries at most four BA streams.  The pool slices the 8 MiB BA-buffer
into ``max_entries`` equal segments and hands each stream one *pair* of
adjacent slices.  When a node's pairs are exhausted — or a ``BA_PIN``
comes back :class:`~repro.core.errors.MappingTableFullError` because
something else grabbed the slots first — the leg falls back to a
conventional :class:`~repro.wal.block_wal.BlockWAL` on the same device's
block path: slower commits, same durability contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.cluster.errors import ClusterError
from repro.cluster.interconnect import Interconnect, NetParams
from repro.cluster.placement import Placement
from repro.cluster.replicated import ReplicatedBaWAL
from repro.core import BaParams, MappingTableFullError
from repro.obs import events, tracing
from repro.platform import Platform
from repro.sim import Engine, RngStreams
from repro.sim.engine import Event
from repro.wal.ba_wal import BaWAL
from repro.wal.base import CommitMode, WriteAheadLog
from repro.wal.block_wal import BlockWAL


class PoolNode:
    """One pool member: a platform plus the pool's bookkeeping about it."""

    def __init__(self, name: str, index: int, platform: Platform,
                 entry_pairs: int) -> None:
        self.name = name
        self.index = index
        self.platform = platform
        self.up = True
        # Free BA entry-id pairs, lowest first (pair i owns ids 2i, 2i+1).
        self._free_pairs = list(range(entry_pairs))
        self._next_area_lpn = 0

    def try_reserve_pair(self) -> Optional[int]:
        """Claim a mapping-entry pair, or ``None`` when the byte path is
        out of budget (no free pair, or the table itself lacks two slots —
        something outside the pool may be pinning entries too)."""
        if not self._free_pairs:
            return None
        if self.platform.device.mapping_table.slots_free() < 2:
            return None
        return self._free_pairs.pop(0)

    def try_peek_pair(self) -> Optional[int]:
        """Like :meth:`try_reserve_pair` but without claiming — spare
        selection ranks candidates by remaining byte-path budget."""
        if not self._free_pairs:
            return None
        if self.platform.device.mapping_table.slots_free() < 2:
            return None
        return self._free_pairs[0]

    def release_pair(self, pair: int) -> None:
        if pair in self._free_pairs:
            raise ClusterError(f"pair {pair} on {self.name} is already free")
        self._free_pairs.append(pair)
        self._free_pairs.sort()

    def alloc_area(self, area_pages: int) -> int:
        """Reserve the next log area on this node's NAND address space."""
        geometry = self.platform.device.profile.geometry
        total_pages = (geometry.channels * geometry.dies_per_channel
                       * geometry.blocks_per_die * geometry.pages_per_block)
        lpn = self._next_area_lpn
        if lpn + area_pages > total_pages:
            raise ClusterError(
                f"node {self.name} out of log area: {lpn} + {area_pages} "
                f"pages exceeds {total_pages}"
            )
        self._next_area_lpn += area_pages
        return lpn


@dataclass
class PoolSnapshot:
    """A whole pool's post-warm-up state as plain, picklable data.

    The cluster counterpart of :class:`~repro.platform.PlatformSnapshot`:
    one engine capture (the clock is shared), one platform snapshot per
    node plus the pool's own bookkeeping about it, and the interconnect's
    egress reservations.  Same contract — capture at quiescence, restore
    onto a freshly constructed identical pool — which is what lets warm
    nemesis-campaign pools ride the run-matrix snapshot cache.
    """

    fingerprint: dict
    engine: dict
    nodes: list  # [(PlatformSnapshot, free_pairs, next_area_lpn), ...]
    net_egress: dict
    net_stats: dict
    ba_fallbacks: int


@dataclass
class StreamLeg:
    """One stream's WAL on one node: byte-path (``ba``) or fallback
    (``block``)."""

    node: PoolNode
    wal: WriteAheadLog
    kind: str  # "ba" | "block"
    start_lpn: int
    area_pages: int
    pair: Optional[int] = None
    entry_ids: tuple[int, ...] = field(default_factory=tuple)


class DevicePool:
    """N platforms behind one placement ring, producing replicated WALs."""

    def __init__(
        self,
        devices: int = 4,
        seed: int = 0,
        ba_params: Optional[BaParams] = None,
        net_params: Optional[NetParams] = None,
        area_pages: int = 2048,
        vnodes: int = 64,
    ) -> None:
        if devices < 1:
            raise ClusterError("a pool needs at least one device")
        self.engine = Engine()
        self.rng = RngStreams(seed)
        params = ba_params or BaParams()
        if params.max_entries % 2:
            raise ClusterError("BA streams pin entry pairs; max_entries must be even")
        self.entry_pairs = params.max_entries // 2
        # One buffer slice per mapping entry; a stream's pair is two
        # adjacent slices (its double-buffered halves).
        self.segment_bytes = params.buffer_bytes // params.max_entries
        segment_pages = self.segment_bytes // params.page_size
        if self.segment_bytes % params.page_size:
            raise ClusterError("buffer slice must be page-aligned; "
                               "pick buffer_bytes divisible by max_entries pages")
        if area_pages % segment_pages:
            raise ClusterError(
                f"area_pages must be a multiple of {segment_pages} "
                f"(one buffer slice)"
            )
        self.area_pages = area_pages
        self.nodes: dict[str, PoolNode] = {}
        for index in range(devices):
            name = f"node{index}"
            platform = Platform(ba_params=params, engine=self.engine,
                                rng=self.rng.fork(name))
            self.nodes[name] = PoolNode(name, index, platform,
                                        self.entry_pairs)
        self.net = Interconnect(self.engine, net_params)
        self.placement = Placement(list(self.nodes), vnodes=vnodes)
        self.streams: dict[str, ReplicatedBaWAL] = {}
        self.ba_fallbacks = 0

    # -- membership ---------------------------------------------------------

    def up_nodes(self) -> list[PoolNode]:
        return [node for node in self.nodes.values() if node.up]

    def mark_down(self, name: str) -> None:
        """Fence a failed node: off the ring, out of future placements."""
        node = self.nodes[name]
        if node.up:
            node.up = False
            self.placement.remove_node(name)

    # -- stream lifecycle ---------------------------------------------------

    def open_stream(self, name: str, replicas: int = 2,
                    on_nodes: Optional[list[str]] = None,
                    quorum: Optional[int] = None) -> Iterator[Event]:
        """Process: place, pin, and start a replicated WAL stream.

        ``replicas`` counts every copy including the primary.  Placement
        follows the ring unless ``on_nodes`` names the legs explicitly
        (failover uses this to keep the promoted survivor primary).
        Returns the started :class:`ReplicatedBaWAL`.
        """
        if name in self.streams:
            raise ClusterError(f"stream {name!r} is already open")
        if on_nodes is None:
            node_names = self.placement.nodes_for(name, replicas)
        else:
            node_names = list(on_nodes)
        legs: list[StreamLeg] = []
        for node_name in node_names:
            node = self.nodes[node_name]
            if not node.up:
                raise ClusterError(f"cannot place {name!r} on downed node "
                                   f"{node_name!r}")
            leg = yield from self._start_leg(node)
            legs.append(leg)
        stream = ReplicatedBaWAL(self.engine, self.net, name,
                                 legs[0], legs[1:], quorum=quorum)
        self.streams[name] = stream
        if events.enabled:
            events.emit("cluster.stream.opened", self.engine.now,
                        stream=name,
                        nodes=tuple(leg.node.name for leg in legs),
                        kinds=tuple(leg.kind for leg in legs),
                        quorum=stream.quorum)
        return stream

    def _start_leg(self, node: PoolNode) -> Iterator[Event]:
        """Process: one WAL leg on ``node`` — byte path if the budget
        allows, block path otherwise."""
        pair = node.try_reserve_pair()
        if pair is not None:
            entry_ids = (2 * pair, 2 * pair + 1)
            start_lpn = node.alloc_area(self.area_pages)
            wal = BaWAL(
                self.engine,
                node.platform.api,
                start_lpn=start_lpn,
                area_pages=self.area_pages,
                segment_bytes=self.segment_bytes,
                entry_ids=entry_ids,
                buffer_base=pair * 2 * self.segment_bytes,
            )
            # A fresh stream must never resurrect a prior tenant's records:
            # discard the whole area before the first pin.
            yield from node.platform.api.trim(start_lpn, self.area_pages)
            try:
                yield from wal.start()
            except MappingTableFullError:
                # Lost the slots to a pin outside the pool's bookkeeping
                # (exactly what the typed error exists to distinguish).
                # Unwind any half that did get pinned, then fall back.
                for entry_id in entry_ids:
                    if entry_id in node.platform.device.mapping_table:
                        yield from node.platform.api.ba_flush(entry_id)
                node.release_pair(pair)
            else:
                return StreamLeg(node=node, wal=wal, kind="ba",
                                 start_lpn=start_lpn,
                                 area_pages=self.area_pages,
                                 pair=pair, entry_ids=entry_ids)
        self.ba_fallbacks += 1
        if tracing.enabled:
            tracing.count("cluster.pool.ba_fallbacks")
        if events.enabled:
            events.emit("cluster.stream.fallback", self.engine.now,
                        node=node.name)
        start_lpn = node.alloc_area(self.area_pages)
        wal = BlockWAL(
            self.engine,
            node.platform.device,
            node.platform.cpu,
            mode=CommitMode.SYNCHRONOUS,
            start_lpn=start_lpn,
            area_pages=self.area_pages,
        )
        return StreamLeg(node=node, wal=wal, kind="block",
                         start_lpn=start_lpn, area_pages=self.area_pages)

    def release_leg(self, leg: StreamLeg) -> Iterator[Event]:
        """Process: return a leg's byte-path budget to its node (flushing
        still-pinned entries to NAND first).  Block legs only release
        bookkeeping."""
        if leg.kind == "ba" and leg.pair is not None:
            for entry_id in leg.entry_ids:
                if entry_id in leg.node.platform.device.mapping_table:
                    yield from leg.node.platform.api.ba_flush(entry_id)
            leg.node.release_pair(leg.pair)
            leg.pair = None
        return None

    def close_stream(self, name: str) -> Iterator[Event]:
        """Process: drop a stream and release every leg's budget."""
        stream = self.streams.pop(name)
        for leg in stream.legs():
            yield from self.release_leg(leg)
        return None

    def restage(self, name: str, source: StreamLeg, on_nodes: list[str],
                suffix: str) -> Iterator[Event]:
        """Process: move stream ``name``'s log onto a fresh stream on
        ``on_nodes`` (the first is its primary) without losing an acked
        record — failover and degrade.  Returns the new stream and the
        payloads replayed into it.

        The swap is staged, so a crash anywhere in it is harmless:
        ``source``'s log is replayed (recovery reads only device state,
        so a leg whose host-side processes died with a crash still
        scans) onto a stream opened as ``name@suffix``, one record at a
        time, and committed at quorum.  Only then does the new stream
        take the name, and only then are the old stream's legs on up
        nodes released (flushing still-pinned entries; a downed node's
        budget is unreachable anyway).  Until the swap the old stream
        stays registered, and a retry first discards the stale staging.
        """
        old = self.streams[name]
        staging = f"{name}@{suffix}"
        if staging in self.streams:
            yield from self.close_stream(staging)
        recovered: list[bytes] = []
        yield from source.wal.replay(
            0, lambda _lsn, payload: recovered.append(payload.tobytes()))
        stream = yield from self.open_stream(staging, on_nodes=on_nodes,
                                             quorum=old.quorum)
        lsn = 0
        for payload in recovered:
            lsn = yield from stream.append(payload)
        if recovered:
            yield from stream.commit(lsn)
        stream.name = name
        self.streams[name] = stream
        del self.streams[staging]
        for leg in old.legs():
            if leg.node.up:
                yield from self.release_leg(leg)
        return stream, recovered

    # -- warm-state snapshots -----------------------------------------------

    def _fingerprint(self) -> dict:
        return {
            "nodes": [node.platform._fingerprint()
                      for node in self.nodes.values()],
            "area_pages": self.area_pages,
            "entry_pairs": self.entry_pairs,
        }

    def snapshot(self) -> PoolSnapshot:
        """Capture the pool at kernel quiescence, streams closed, all
        nodes up.  Open streams hold live WAL objects and parked replica
        workers — per-process state a snapshot cannot carry — so warm a
        pool (age the devices, exercise the placement ring), close its
        streams, run the engine dry, then capture."""
        if not self.engine.quiescent():
            raise ClusterError(
                "pool snapshot requires a quiescent engine; run it dry first")
        if self.streams:
            raise ClusterError(
                f"pool snapshot with open streams {sorted(self.streams)}; "
                "close them first")
        if len(self.up_nodes()) != len(self.nodes):
            raise ClusterError("pool snapshot requires every node up")
        return PoolSnapshot(
            fingerprint=self._fingerprint(),
            engine=self.engine.capture_state(),
            nodes=[(node.platform.snapshot(),
                    list(node._free_pairs),
                    node._next_area_lpn)
                   for node in self.nodes.values()],
            net_egress=dict(self.net._egress_free_at),
            net_stats=self.net.stats_dict(),
            ba_fallbacks=self.ba_fallbacks,
        )

    def restore(self, snap: PoolSnapshot) -> None:
        """Adopt ``snap`` on a freshly constructed, identical pool.

        Same load-bearing ordering as :meth:`Platform.restore`, with the
        engine dance hoisted to pool level because the clock is shared:
        run once (bootstraps park), restore every node's components, run
        again (primed workers park), then advance the kernel state once.
        """
        self.engine.run()
        if self.engine.now > 0.0:
            raise ClusterError(
                "pool snapshot restore requires a freshly constructed pool")
        fingerprint = self._fingerprint()
        if fingerprint != snap.fingerprint:
            raise ClusterError(
                f"pool snapshot fingerprint mismatch: captured "
                f"{snap.fingerprint}, restoring onto {fingerprint}")
        for node, (platform_snap, free_pairs, next_lpn) in zip(
                self.nodes.values(), snap.nodes):
            node.platform.restore_components(platform_snap)
            node._free_pairs = list(free_pairs)
            node._next_area_lpn = next_lpn
        self.net._egress_free_at = dict(snap.net_egress)
        self.net.stats.messages = snap.net_stats["messages"]
        self.net.stats.bytes_sent = snap.net_stats["bytes_sent"]
        self.net.stats.control_messages = snap.net_stats["control_messages"]
        self.ba_fallbacks = snap.ba_fallbacks
        self.engine.run()
        self.engine.restore_state(snap.engine)

    # -- observability ------------------------------------------------------

    def platforms(self) -> dict[str, Platform]:
        return {name: node.platform for name, node in self.nodes.items()}

    def collect_stats(self, tracer=None) -> dict:
        """One merged report across every node (see
        :func:`repro.observability.collect_cluster_stats`)."""
        from repro.observability import collect_cluster_stats

        return collect_cluster_stats(self.platforms(), tracer=tracer,
                                     interconnect=self.net)
