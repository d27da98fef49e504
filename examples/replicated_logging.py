"""Replicated BA-WAL across a device pool: quorum commits and failover.

Builds a four-device pool sharing one simulation kernel, opens a WAL
stream replicated across two devices, and drives closed-loop clients
whose commits ack only once a quorum of replicas has BA_SYNCed the
record.  Then the crash harness kills the primary's device mid-stream;
the failover manager promotes the surviving replica, replays its
recovered log onto a spare, and the stream keeps appending — with every
record that was acked before the crash still present afterwards.

Run:  python examples/replicated_logging.py
"""

from repro.cluster import ClusterCrashHarness, DevicePool, FailoverManager
from repro.cluster.driver import make_payload


def drive_clients(pool, stream, clients=3, records=8, payload_bytes=512):
    """Closed-loop append+commit clients; returns the acked payload list."""
    engine = pool.engine
    acked = []

    def client(cid):
        for seq in range(records):
            payload = make_payload("wal0", cid, seq, payload_bytes)
            lsn = yield from stream.append(payload)
            yield from stream.commit(lsn)
            acked.append(payload)

    procs = [engine.process(client(c)) for c in range(clients)]
    for proc in procs:
        engine.run(until=proc)
    return acked


def main() -> None:
    pool = DevicePool(devices=4, seed=7)
    stream = pool.engine.run_process(pool.open_stream("wal0", replicas=2))
    legs = ", ".join(f"{leg.node.name}({leg.kind})" for leg in stream.legs())
    print(f"== stream wal0 on [{legs}], quorum {stream.quorum}/2")

    acked = drive_clients(pool, stream)
    print(f"   acked {len(acked)} records, durable LSN {stream.durable_lsn}")

    victim = stream.primary.node.name
    print(f"== crash harness kills {victim} (the primary's device)")
    harness = ClusterCrashHarness(pool)
    harness.crash_node_at(victim, crash_time=1e-6)

    result = pool.engine.run_process(FailoverManager(pool).fail_over("wal0"))
    stream = pool.streams["wal0"]
    print(f"   promoted {result.promoted}, re-replicated to spare "
          f"{result.spare}, recovered {len(result.recovered)} records")

    survivors = {bytes(r) for r in result.recovered}
    lost = [p for p in acked if p not in survivors]
    assert not lost, f"{len(lost)} acked records lost in failover"
    print(f"   all {len(acked)} acked records survived")

    more = drive_clients(pool, stream, clients=2, records=4)
    print(f"   post-failover stream acked {len(more)} more records "
          f"(durable LSN {stream.durable_lsn})")
    print("replicated logging example OK")


if __name__ == "__main__":
    main()
