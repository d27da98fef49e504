"""Quorum-replicated WAL over the device pool (primary + R-1 replicas).

``append_batch`` writes the primary leg and ships the records to each
replica's queue; replica workers apply them in arrival order, so every
leg holds the same payload sequence though legs assign their *own* LSNs (a
block-path fallback leg has no segment padding, so its offsets diverge
from a byte-path primary's).  ``commit`` fans a sync request to every
leg — ``BA_SYNC`` on byte-path legs, write+fsync on block legs — and
acks once a quorum of legs (primary included) reports durable.

Pipelining: appends stream ahead over the interconnect without waiting,
so a commit's quorum wait overlaps replica apply work — the same overlap
BA-WAL's double buffering buys inside one device, lifted to the pool.

Crash semantics come from the kernel: a node crash purges in-flight
events, which kills replica workers and drops queued-but-unapplied
records exactly like a real host losing its socket buffers.  Whatever a
commit acked was durable on a quorum before the ack — that is the
contract :class:`~repro.cluster.failover.FailoverManager` leans on.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cluster.errors import QuorumLossError
from repro.cluster.interconnect import Interconnect
from repro.obs import events, tracing
from repro.sim import Engine, Store
from repro.sim.engine import Event
from repro.wal.base import PartialAppendError, WalStats, WriteAheadLog
from repro.wal.record import RECORD_HEADER_BYTES


class _ReplicaLeg:
    """One replica: a queue and a worker applying it on the remote node."""

    def __init__(self, engine: Engine, net: Interconnect, src_name: str,
                 leg) -> None:
        self.engine = engine
        self.net = net
        self.src_name = src_name
        self.leg = leg
        self.queue = Store(engine)
        self.local_lsn = 0
        self.worker = engine.process(self._worker(),
                                     name=f"replica-{leg.node.name}")

    def parked(self) -> bool:
        """True while the worker is blocked on an *empty* queue — the only
        worker state that survives a kernel purge, because the getter
        event is Store bookkeeping, not scheduled work.  A worker caught
        mid-apply (transfer, append, commit) dies with the purge and can
        never be woken again."""
        return self.worker._waiting_on in self.queue._getters

    def _worker(self) -> Iterator[Event]:
        while True:
            item = yield self.queue.get()
            if item[0] == "append":
                # One interconnect message and one replica-side append
                # pass cover the whole batch (group commit's replication
                # half).  Apply order matches primary LSN order: batches
                # are enqueued atomically after the primary batch.
                _kind, payloads, nbytes = item
                yield from self.net.transfer(
                    self.src_name, self.leg.node.name, nbytes)
                lsns = yield from self.leg.wal.append_batch(payloads)
                self.local_lsn = lsns[-1]
            else:  # ("commit", ack_event)
                ack = item[1]
                yield from self.net.send_control(
                    self.src_name, self.leg.node.name)
                try:
                    # Commit the replica's own tail: its LSNs need not
                    # match the primary's (block-path legs diverge).
                    yield from self.leg.wal.commit(self.local_lsn)
                except Exception as exc:  # noqa: BLE001 - fault reaches the quorum
                    if not ack.triggered:
                        ack.fail(exc)
                else:
                    yield from self.net.send_control(
                        self.leg.node.name, self.src_name)
                    if not ack.triggered:
                        ack.succeed()


class ReplicatedBaWAL(WriteAheadLog):
    """A WAL stream whose durability point is a quorum of devices."""

    def __init__(self, engine: Engine, net: Interconnect, name: str,
                 primary, replicas: list, quorum: Optional[int] = None) -> None:
        self.engine = engine
        self.net = net
        self.name = name
        self.primary = primary
        self.replica_legs = list(replicas)
        total = 1 + len(self.replica_legs)
        self.quorum = quorum if quorum is not None else total // 2 + 1
        if not 1 <= self.quorum <= total:
            raise ValueError(
                f"quorum {self.quorum} out of range for {total} legs"
            )
        self.stats = WalStats()
        self._quorum_durable = 0
        self._replicas = [
            _ReplicaLeg(engine, net, primary.node.name, leg)
            for leg in self.replica_legs
        ]

    def legs(self) -> list:
        return [self.primary, *self.replica_legs]

    def respawn_workers(self) -> int:
        """Re-create every replica pipeline whose worker died in a kernel
        purge (any node crash purges the *shared* engine, so even streams
        whose legs are all healthy can lose their pipelines mid-apply).

        Records still queued to a dead worker are dropped with it — the
        socket-buffer semantics the module docstring promises — which is
        safe because nothing queued-but-unapplied was ever quorum-acked.
        Idle workers (parked on an empty queue) survive purges and are
        left alone.  Every leg's WAL host object is also repaired
        (``crash_reset``): a purge strands insert locks and half-recycles
        whose holders died.  Returns the number of pipelines re-created.

        Call from *outside* the kernel only (WAL repair drives the engine
        through ``run_process``).
        """
        for leg in self.legs():
            reset = getattr(leg.wal, "crash_reset", None)
            if reset is not None:
                reset()
        respawned = 0
        for index, replica in enumerate(self._replicas):
            if replica.parked():
                continue
            self._replicas[index] = _ReplicaLeg(
                self.engine, self.net, self.primary.node.name, replica.leg
            )
            respawned += 1
        return respawned

    # -- WriteAheadLog interface --------------------------------------------

    @property
    def durable_lsn(self) -> int:
        """Primary-stream offset below which a quorum has acknowledged."""
        return self._quorum_durable

    @property
    def tail_lsn(self) -> int:
        return self.primary.wal.tail_lsn

    @property
    def low_water_lsn(self) -> int:
        return self.primary.wal.low_water_lsn

    @low_water_lsn.setter
    def low_water_lsn(self, lsn: int) -> None:
        """Every leg holds the same records, so every leg may recycle
        below the same point."""
        for leg in self.legs():
            leg.wal.low_water_lsn = lsn

    def append_batch(self, payloads: list[bytes]) -> Iterator[Event]:
        """Process: the primary logs the batch in one pass, then ONE
        queue message per replica ships it (one interconnect transfer,
        one replica-side append pass).

        Returns the *primary* leg's end LSNs — the stream's public
        offsets.  Enqueueing happens with no intervening yield after the
        primary batch lands, so replica apply order always matches
        primary LSN order even under concurrent appenders.  If the
        primary stops part-way (:class:`PartialAppendError`), the
        appended *prefix* is still shipped to every replica before the
        error re-raises — legs must hold identical payload sequences or
        a failover could promote a replica missing records the primary
        holds.
        """
        if not payloads:
            return []
        if tracing.enabled:
            _t0 = self.engine.now
        try:
            lsns = yield from self.primary.wal.append_batch(payloads)
        except PartialAppendError as exc:
            self._ship(payloads[:len(exc.lsns)])
            raise
        self._ship(payloads)
        if tracing.enabled:
            tracing.observe("cluster.append", self.engine.now - _t0)
            tracing.count("cluster.appends", len(payloads))
        return lsns

    def _ship(self, payloads: list[bytes]) -> None:
        """Queue appended records to every replica; the wire size is
        computed once here, not per leg."""
        payload_bytes = sum(map(len, payloads))
        message = ("append", payloads,
                   payload_bytes + RECORD_HEADER_BYTES * len(payloads))
        for replica in self._replicas:
            replica.queue.put(message)
        self.stats.appends += len(payloads)
        self.stats.bytes_appended += payload_bytes

    def commit(self, lsn: int) -> Iterator[Event]:
        """Process: make the stream durable on a quorum of legs.

        The primary syncs locally while each replica receives a commit
        message, syncs its own tail, and acks back over the interconnect.
        Returns once ``quorum`` legs (in any combination) confirmed; the
        stragglers keep running in the background.
        """
        self.stats.commits += 1
        if lsn <= self._quorum_durable:
            return None
        if tracing.enabled:
            _t0 = self.engine.now
        acks: list[Event] = []
        primary_ack = self.engine.event()
        self.engine.process(self._primary_commit(lsn, primary_ack),
                            name=f"{self.name}-primary-commit")
        acks.append(primary_ack)
        for replica in self._replicas:
            ack = self.engine.event()
            replica.queue.put(("commit", ack))
            acks.append(ack)
        yield from self._await_quorum(acks)
        self._quorum_durable = max(self._quorum_durable, lsn)
        if events.enabled:
            events.emit("cluster.commit.acked", self.engine.now,
                        stream=self.name, lsn=lsn, quorum=self.quorum,
                        up_legs=sum(1 for leg in self.legs()
                                    if leg.node.up))
        if tracing.enabled:
            tracing.observe("cluster.quorum_wait", self.engine.now - _t0)
            tracing.count("cluster.commits")
        return None

    def _primary_commit(self, lsn: int, ack: Event) -> Iterator[Event]:
        try:
            yield from self.primary.wal.commit(lsn)
        except Exception as exc:  # noqa: BLE001 - fault reaches the quorum
            if not ack.triggered:
                ack.fail(exc)
        else:
            if not ack.triggered:
                ack.succeed()
        return None

    def _await_quorum(self, acks: list[Event]) -> Iterator[Event]:
        """Process: wait until ``self.quorum`` acks succeed, or fail with
        :class:`QuorumLossError` once success has become impossible."""
        need = self.quorum
        done = self.engine.event()
        state = {"ok": 0, "failed": 0}

        def settled(event: Event) -> None:
            if event.exception is not None:
                # Observe the failure so the kernel does not re-raise it
                # as an unhandled event error at the end of the run.
                try:
                    event.value
                except BaseException:  # noqa: BLE001 - recorded via counters
                    pass
                state["failed"] += 1
                if (not done.triggered
                        and len(acks) - state["failed"] < need):
                    done.fail(QuorumLossError(
                        f"stream {self.name!r}: {state['failed']} of "
                        f"{len(acks)} legs failed; quorum of {need} "
                        f"unreachable"
                    ))
                return
            state["ok"] += 1
            if not done.triggered and state["ok"] >= need:
                done.succeed()

        for ack in acks:
            if ack.processed:
                settled(ack)
            else:
                ack.callbacks.append(settled)
        yield done
        return None

    def recover(self, start_lsn: int = 0) -> Iterator[Event]:
        """Process: recover from the *primary* leg (failover recovers a
        surviving replica leg instead; see ``FailoverManager``)."""
        records = yield from self.primary.wal.recover(start_lsn)
        return records
