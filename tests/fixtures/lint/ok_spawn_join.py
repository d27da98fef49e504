"""Fixture: what SIM106 must leave alone.

Delegated callees, processes that run *beside* their parent, and kept
spawn-and-join sites that say which referee check would move.
"""


def delegated(engine, wal, payload):
    lsn = yield from wal.append(payload)
    yield from wal.commit(lsn)
    return lsn


def concurrent(engine, wal, payloads):
    legs = [engine.process(wal.append(payload)) for payload in payloads]
    yield engine.all_of(legs)
    background = engine.process(wal.commit(0), name="background-commit")
    yield engine.timeout(1e-6)
    yield background  # a stored process is shared, not spawn-and-join
    yield engine.process(legs)  # not a call: nothing to delegate to


def kept(engine, shard, target):
    yield engine.process(shard.stream.commit(target))  # spawn: moves the gateway_group_commit golden
    # spawn: moves gw-get sim_capacity_ops_per_s by 1e-5
    yield engine.process(
        shard.execute_batch(target))
