"""Fixture: SIM106 spawn-and-join sites, bare and badly justified."""


def bare(engine, wal, payload):
    lsn = yield engine.process(wal.append(payload))  # SIM106
    yield engine.process(wal.commit(lsn), name="commit")  # SIM106: named too
    return lsn


def nested(self, stream, record):
    got = [(yield self.engine.process(  # SIM106: awaited inside an expression
        stream.append(record)))]
    return got


def unjustified(engine, wal, lsn):
    # spawn:
    yield engine.process(wal.commit(lsn))  # SIM106: empty reason above
    yield engine.process(wal.commit(lsn))  # spawn: TODO say why
    # spawn: moves the gateway_group_commit golden

    yield engine.process(wal.commit(lsn))  # SIM106: reason is two lines up
