"""Closed-loop replicated-logging driver for benches, tests, and the CLI.

Mirrors :mod:`repro.bench.drivers`: each client appends and quorum-commits
records back-to-back on its stream, recording ``(ack_time, payload)`` at
every successful commit.  The acked log is the ground truth the crash
tests compare recovery output against — anything acked before a crash
must survive failover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.cluster.pool import DevicePool
from repro.cluster.replicated import ReplicatedBaWAL
from repro.sim.engine import Event


def make_payload(stream: str, client: int, seq: int, payload_bytes: int) -> bytes:
    """A self-describing record body, padded to ``payload_bytes``."""
    stamp = f"{stream}:c{client}:r{seq}:".encode()
    if len(stamp) > payload_bytes:
        raise ValueError(
            f"payload_bytes={payload_bytes} too small for the record stamp "
            f"of {len(stamp)} bytes"
        )
    return stamp + bytes(payload_bytes - len(stamp))


@dataclass
class ClusterRunResult:
    """Aggregate outcome of one replicated-logging run."""

    devices: int
    streams: int
    clients_per_stream: int
    records_per_client: int
    payload_bytes: int
    replicas: int
    sim_seconds: float
    records_acked: int
    ba_legs: int
    block_legs: int
    # stream name -> [(ack_time, payload), ...] in ack order.
    acked: dict[str, list[tuple[float, bytes]]] = field(repr=False,
                                                        default_factory=dict)

    @property
    def records_per_sec(self) -> float:
        """Aggregate acked-append throughput over simulated time."""
        return self.records_acked / self.sim_seconds if self.sim_seconds else 0.0


def client_process(stream: ReplicatedBaWAL, stream_name: str, client: int,
                   records: int, payload_bytes: int,
                   acked: dict[str, list[tuple[float, bytes]]],
                   ) -> Iterator[Event]:
    """Process: one closed-loop client — append, quorum-commit, record ack."""
    engine = stream.engine
    for seq in range(records):
        payload = make_payload(stream_name, client, seq, payload_bytes)
        lsn = yield from stream.append(payload)
        yield from stream.commit(lsn)
        acked[stream_name].append((engine.now, payload))
    return None


def open_streams(pool: DevicePool, streams: int, replicas: int,
                 prefix: str = "wal") -> dict[str, ReplicatedBaWAL]:
    """Open ``streams`` replicated WALs through the placement ring."""
    opened: dict[str, ReplicatedBaWAL] = {}
    for index in range(streams):
        name = f"{prefix}{index}"
        opened[name] = pool.engine.run_process(
            pool.open_stream(name, replicas=replicas)
        )
    return opened


def spawn_clients(pool: DevicePool, streams: dict[str, ReplicatedBaWAL],
                  clients_per_stream: int, records_per_client: int,
                  payload_bytes: int,
                  acked: dict[str, list[tuple[float, bytes]]]) -> list:
    """Start every client process; returns them for ``engine.all_of``."""
    processes = []
    for name, stream in streams.items():
        acked.setdefault(name, [])
        for client in range(clients_per_stream):
            processes.append(pool.engine.process(
                client_process(stream, name, client, records_per_client,
                               payload_bytes, acked),
                name=f"client-{name}-{client}",
            ))
    return processes


def run_replicated_logging(
    pool: DevicePool,
    streams: int = 2,
    clients_per_stream: int = 2,
    records_per_client: int = 8,
    payload_bytes: int = 512,
    replicas: int = 2,
    prefix: str = "wal",
    until: Optional[float] = None,
) -> ClusterRunResult:
    """Open streams, run all clients to completion (or ``until`` seconds),
    and return the aggregate result."""
    opened = open_streams(pool, streams, replicas, prefix=prefix)
    acked: dict[str, list[tuple[float, bytes]]] = {}
    start = pool.engine.now
    processes = spawn_clients(pool, opened, clients_per_stream,
                              records_per_client, payload_bytes, acked)
    if until is None:
        pool.engine.run(until=pool.engine.all_of(processes))
    else:
        pool.engine.run(until=start + until)
    legs = [leg for stream in opened.values() for leg in stream.legs()]
    return ClusterRunResult(
        devices=len(pool.nodes),
        streams=streams,
        clients_per_stream=clients_per_stream,
        records_per_client=records_per_client,
        payload_bytes=payload_bytes,
        replicas=replicas,
        sim_seconds=pool.engine.now - start,
        records_acked=sum(len(entries) for entries in acked.values()),
        ba_legs=sum(1 for leg in legs if leg.kind == "ba"),
        block_legs=sum(1 for leg in legs if leg.kind == "block"),
        acked=acked,
    )
