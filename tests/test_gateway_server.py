"""Gateway serving tests: correctness, pipelining, backpressure bounds,
degradation under byte-path pressure, and crash durability."""

import gc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCrashHarness, DevicePool, FailoverManager
from repro.core import MappingTableFullError
from repro.db.memkv.commands import (
    Command,
    Reply,
    apply,
    decode_command,
    decode_value,
)
from repro.gateway import (
    BoundedQueue,
    GatewayConfig,
    GatewayError,
    GatewayLoad,
    GatewayServer,
    SimPipe,
    decode_gateway_record,
    decode_reply_frame,
    encode_request,
    run_serving,
)
from repro.gateway.protocol import FrameDecoder
from repro.nemesis.analyzer import StreamingAnalyzer
from repro.obs import events
from repro.sim import Engine
from repro.sim.engine import Event
from repro.wal.record import RECORD_HEADER_BYTES


# -- flow-control primitives --------------------------------------------------


def test_simpipe_blocks_writer_at_capacity():
    engine = Engine()
    pipe = SimPipe(engine, capacity=4)
    first = pipe.send(b"abcd")
    assert first._processed  # fits exactly
    second = pipe.send(b"ef")
    assert not second._processed  # buffer full: writer parks
    assert pipe.stalls == 1
    got = pipe.recv(3)
    assert got._processed and got._value == b"abc"
    assert second._processed  # space freed; parked sender admitted
    assert pipe.recv(16)._value == b"def"


def test_simpipe_eof_semantics():
    engine = Engine()
    pipe = SimPipe(engine, capacity=8)
    pipe.send(b"tail")
    pipe.close()
    assert pipe.recv(16)._value == b"tail"  # buffered bytes drain first
    assert pipe.recv(16)._value == b""  # then EOF
    with pytest.raises(GatewayError):
        pipe.send(b"x")


def test_bounded_queue_parks_putter_at_capacity():
    engine = Engine()
    queue = BoundedQueue(engine, capacity=2)
    assert queue.put("a")._processed
    assert queue.put("b")._processed
    third = queue.put("c")
    assert not third._processed
    assert queue.stalls == 1
    assert queue.get()._value == "a"
    assert third._processed  # freed slot admits the parked putter
    assert len(queue) == 2


# -- serving correctness ------------------------------------------------------


def _pool(devices=3, seed=777):
    return DevicePool(devices=devices, seed=seed)


def test_serving_answers_every_pipelined_command():
    result = run_serving(_pool(), GatewayConfig(pipeline_depth=4,
                                                queue_depth=8),
                         clients=16, commands_per_client=8)
    assert result.replies == result.commands == 16 * 8
    assert result.server_stats["open_conns"] == 0
    assert result.ok and result.values  # both writes and reads served
    assert result.server_stats["requests"] == result.commands
    # Every shard stream landed on byte-path legs (budget was free).
    for kinds in result.server_stats["shard_kinds"]:
        assert all(kind == "ba" for kind in kinds)


def test_serving_is_deterministic():
    first = run_serving(_pool(), clients=12, commands_per_client=6)
    second = run_serving(_pool(), clients=12, commands_per_client=6)
    assert first.to_dict() == second.to_dict()


def test_get_observes_prior_writes_in_order():
    """SET then GET on one pipelined connection returns the set value."""
    pool = _pool(devices=2)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig(replicas=2, pipeline_depth=4))
    engine.run_process(server.start())
    replies = []

    def client():
        conn = yield engine.process(server.accept())
        conn.c2s.send(encode_request(Command.SET, "k", b"v1"))
        conn.c2s.send(encode_request(Command.GET, "k"))
        conn.c2s.send(encode_request(Command.APPEND, "k", b"+v2"))
        conn.c2s.send(encode_request(Command.GET, "k"))
        conn.c2s.send(encode_request(Command.GET, "absent"))
        decoder = FrameDecoder()
        while len(replies) < 5:
            chunk = yield conn.s2c.recv(4096)
            for body in decoder.feed(chunk):
                replies.append(decode_reply_frame(body))
        conn.close()
        return None

    engine.run(until=engine.process(client()))
    engine.run()
    assert replies[0] == (Reply.OK, b"")
    assert replies[1][0] is Reply.VALUE
    assert decode_value(replies[1][1]) == b"v1"
    assert decode_value(replies[3][1]) == b"v1+v2"
    assert decode_value(replies[4][1]) is None  # miss, not empty


def test_pipelining_overlaps_commits():
    """Depth 8 finishes the same per-client workload in less simulated
    time than depth 1 — in-flight commands overlap WAL commits."""
    deep = run_serving(_pool(seed=31), GatewayConfig(pipeline_depth=8),
                       clients=4, commands_per_client=16)
    shallow = run_serving(_pool(seed=31), GatewayConfig(pipeline_depth=1),
                          clients=4, commands_per_client=16)
    assert deep.replies == shallow.replies
    assert deep.sim_seconds < shallow.sim_seconds


def test_malformed_frame_kills_connection_after_ordered_error():
    pool = _pool(devices=2)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig(replicas=2))
    engine.run_process(server.start())
    replies = []

    def client():
        conn = yield engine.process(server.accept())
        conn.c2s.send(encode_request(Command.SET, "k", b"v"))
        # A hostile length prefix: framing is unrecoverable.
        conn.c2s.send((1 << 31).to_bytes(4, "little") + b"junk")
        decoder = FrameDecoder()
        while True:
            chunk = yield conn.s2c.recv(4096)
            if not chunk:
                break  # server hung up
            for body in decoder.feed(chunk):
                replies.append(decode_reply_frame(body))
        return None

    engine.run(until=engine.process(client()))
    engine.run()
    assert replies[0] == (Reply.OK, b"")  # the good command still acked
    assert replies[1][0] is Reply.ERR  # then the framing error, in order
    assert server.errors == 1
    assert server.stats()["open_conns"] == 0


def test_connection_limit_refuses_with_gateway_error():
    pool = _pool(devices=2)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig(replicas=2, max_conns=2))
    engine.run_process(server.start())
    engine.run_process(server.accept())
    engine.run_process(server.accept())
    with pytest.raises(GatewayError):
        engine.run_process(server.accept())
    assert server.refused == 1


# -- backpressure -------------------------------------------------------------


def test_slowloris_reader_is_bounded_not_buffered():
    """A slow reader engages the whole chain — full reply pipe, stalled
    writer, exhausted window, stalled shard queue — while every buffer
    stays at its configured bound."""
    pool = _pool(devices=2, seed=55)
    engine = pool.engine
    config = GatewayConfig(replicas=2, pipeline_depth=4, queue_depth=4,
                           socket_buffer_bytes=64)
    server = GatewayServer(pool, config)
    engine.run_process(server.start())
    load = GatewayLoad(server, value_bytes=48)
    sessions = [
        engine.process(load.client(client_id, 12,
                                   recv_delay=3e-4 if client_id == 0 else 0.0))
        for client_id in range(8)
    ]
    # Pause mid-run and check the bounds while backpressure is live.
    engine.run(until=engine.timeout(2e-4))
    for shard in server.shards:
        for queue in shard.queues:
            assert len(queue) <= config.queue_depth
    for conn in server._conns.values():
        assert len(conn.c2s._buffer) <= config.socket_buffer_bytes
        assert len(conn.s2c._buffer) <= config.socket_buffer_bytes
    engine.run(until=engine.all_of(sessions))
    engine.run()
    stats = server.stats()
    assert stats["queue_stalls"] > 0  # queue pushed back on readers
    assert stats["socket_stalls"] > 0  # full pipes pushed back on writers
    assert load.replies == load.commands  # and yet nothing was lost
    assert stats["open_conns"] == 0


# -- degradation under byte-path pressure -------------------------------------


def test_mapping_pressure_degrades_shard_to_block_wal():
    """Mid-run ``MappingTableFullError`` with the BA budget exhausted:
    the shard replays onto block-WAL legs and the command retries —
    slower commits, no lost data."""
    pool = _pool(devices=2, seed=91)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig(
        shards=1, replicas=2, pipeline_depth=4))
    engine.run_process(server.start())
    shard = server.shards[0]
    assert all(leg.kind == "ba" for leg in shard.stream.legs())
    # Exhaust the remaining byte-path budget on both nodes.
    for index in range(3):
        engine.run_process(pool.open_stream(f"filler-{index}", replicas=2))
    # Inject byte-path pressure on the next append only (both entry
    # points are armed; the gateway calls append_batch).
    real_append = shard.stream.append
    real_append_batch = shard.stream.append_batch
    state = {"armed": True}

    def flaky_append(payload):
        if state["armed"]:
            state["armed"] = False
            raise MappingTableFullError("mapping table exhausted")
        return real_append(payload)

    def flaky_append_batch(payloads):
        if state["armed"]:
            state["armed"] = False
            raise MappingTableFullError("mapping table exhausted")
        return real_append_batch(payloads)

    shard.stream.append = flaky_append
    shard.stream.append_batch = flaky_append_batch
    load = GatewayLoad(server, value_bytes=32)
    sessions = [engine.process(load.client(client_id, 8))
                for client_id in range(4)]
    engine.run(until=engine.all_of(sessions))
    engine.run()
    assert server.degrades == 1
    assert load.replies == load.commands
    stats = server.stats()
    assert any(kind == "block" for kind in stats["shard_kinds"][0])
    # The replayed log still holds every acked write: recover and count.
    records = engine.run_process(server.shards[0].stream.recover())
    assert records  # the pre-degrade writes survived the replay swap


# -- crash durability ---------------------------------------------------------


def test_power_loss_mid_pipeline_loses_no_acked_command():
    """Crash a shard primary mid-pipeline, fail over, recover the server,
    reconnect the clients — then prove via the nemesis analyzer that
    every acked command is present, untorn, and gapless on the
    surviving WAL legs."""
    pool = _pool(devices=3, seed=1234)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig(
        shards=2, replicas=2, pipeline_depth=4, queue_depth=8))
    engine.run_process(server.start())
    load = GatewayLoad(server, value_bytes=96, payload_stamps=True)
    clients, commands = 8, 12
    for client_id in range(clients):
        engine.process(load.client(client_id, commands))
    engine.run(until=engine.timeout(2e-4))  # mid-pipeline: acks in flight
    acked_before = sum(len(entries) for entries in load.acked.values())
    assert 0 < acked_before < clients * commands
    victim = server.shards[0].stream.primary.node.name
    harness = ClusterCrashHarness(pool)
    manager = FailoverManager(pool)
    harness.crash_node_now(victim)
    for shard in server.shards:
        stream = pool.streams[shard.stream_name]
        if any(not leg.node.up for leg in stream.legs()):
            engine.run_process(manager.fail_over(shard.stream_name))
    assert server.recover() == 2
    sessions = [
        engine.process(load.client(client_id, commands,
                                   start_seq=load.resume_seq(client_id)))
        for client_id in range(clients)
    ]
    engine.run(until=engine.all_of(sessions))
    engine.run()
    analyzer = StreamingAnalyzer()
    summary = analyzer.check_recovery(pool, load.acked,
                                      decode=decode_gateway_record)
    assert analyzer.ok(), [v.to_dict() for v in analyzer.violations]
    checked = [entry for entry in summary.values() if entry["checked"]]
    assert checked and all(entry["missing"] == 0 for entry in checked)
    assert sum(entry["acked"] for entry in checked) > acked_before


def test_a_crash_mid_burst_leaves_the_collector_nothing_to_schedule():
    """The crash finalises the processes it killed before the reboot: a
    dead one whose generator sits in a reference cycle must not run its
    cleanup at some later collection, in the rebooted world."""
    gc.collect()
    gc.disable()  # nothing may be collected behind the harness's back
    try:
        pool = _pool(devices=3, seed=1)
        engine = pool.engine
        server = GatewayServer(pool, GatewayConfig())
        engine.run_process(server.start())
        load = GatewayLoad(server, value_bytes=2048, payload_stamps=True)
        for client_id in range(8):
            engine.process(load.client(client_id, 50))
        engine.run(until=engine.timeout(2e-4))  # mid-burst
        assert 0 < load.ok < 8 * 50
        ClusterCrashHarness(pool).crash_node_now("node1")
        sequence = engine._sequence
        gc.collect()
    finally:
        gc.enable()
    assert engine._sequence == sequence


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: with a quorum partitioned off, the commit never "
    "completes and no deadline answers it; the kernel goes quiescent "
    "with 0 of 200 replies"))
def test_every_request_is_answered_or_closed_under_quorum_loss():
    """4 connections x 50 pipelined SETs on a default 3-node gateway whose
    node1 and node2 are partitioned off before sending: each request
    ends in ``OK``, a typed ``ERR``, or its connection closed."""
    pool = _pool(devices=3, seed=1)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    pool.net.isolate("node1")
    pool.net.isolate("node2")
    outcomes = []

    def client(index, requests=50):
        conn = yield from server.accept()
        for seq in range(requests):
            yield conn.c2s.send(encode_request(
                Command.SET, f"c{index}-k{seq}", bytes(64)))
        decoder = FrameDecoder()
        while requests:
            chunk = yield conn.s2c.recv(4096)
            if not chunk:
                outcomes.extend(["closed"] * requests)
                return
            for body in decoder.feed(chunk):
                outcomes.append(decode_reply_frame(body)[0])
                requests -= 1

    for index in range(4):
        engine.process(client(index))
    engine.run()
    assert len(outcomes) == 200
    assert set(outcomes) <= {Reply.OK, Reply.ERR, "closed"}


# -- recover() reads every shard's log at once --------------------------------


def _crashed_server():
    """A default 3-node server cut down mid-run (4 KiB values: shards with
    a sealed segment on NAND), shard 0's primary crashed and failed over."""
    pool = _pool(devices=3, seed=1234)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    load = GatewayLoad(server, value_bytes=4096, key_space=64)
    for client_id in range(8):
        engine.process(load.client(client_id, 400))
    engine.run(until=engine.timeout(4e-3))
    assert 0 < load.replies < load.commands
    victim = server.shards[0].stream.primary.node.name
    ClusterCrashHarness(pool).crash_node_now(victim)
    manager = FailoverManager(pool)
    for shard in server.shards:
        stream = pool.streams[shard.stream_name]
        if any(not leg.node.up for leg in stream.legs()):
            engine.run_process(manager.fail_over(shard.stream_name))
    return server


def _serial_recover(server):
    """``GatewayServer.recover`` as it was — one shard's log after the
    other — returning each shard's scan time."""
    engine = server.engine
    server._conns.clear()
    seconds = []
    for shard in server.shards:
        shard.stream = server.pool.streams[shard.stream_name]
        shard.stream.respawn_workers()
        shard.data = {}
        started = engine.now
        records = engine.run_process(shard.stream.recover())
        seconds.append(engine.now - started)
        applied = 0
        for lsn, payload in records:
            command, key, value = decode_command(bytes(payload))
            apply(shard.data, command, key, value)
            applied = lsn + RECORD_HEADER_BYTES + len(payload)
        shard.applied_lsn = applied
        server._spawn_shard_pipeline(shard)
    return seconds


def test_recover_costs_the_slowest_shard_and_rebuilds_the_same_state():
    serial, parallel = _crashed_server(), _crashed_server()
    scans = _serial_recover(serial)
    assert sorted(scans)[1] > 1e-4  # two shards read a segment back from NAND
    engine = parallel.engine
    started = engine.now
    with events.activated() as bus:
        assert parallel.recover() == 3
    elapsed = engine.now - started
    assert elapsed <= max(scans) + 1e-6 < sum(scans)
    for ours, theirs in zip(parallel.shards, serial.shards):
        assert ours.data == theirs.data and ours.data
        assert ours.applied_lsn == theirs.applied_lsn > 0
    assert parallel.stats()["shard_keys"] == serial.stats()["shard_keys"]
    (event,) = [e for e in bus.log if e.kind == "gateway.recovered"]
    assert event.get("shards") == 3 and event.get("seconds") == elapsed
    assert sum(event.get("records")) > 0 and len(event.get("records")) == 3
    # Both serve again.
    for server in (serial, parallel):
        load = GatewayLoad(server, value_bytes=32)
        server.engine.run(until=server.engine.process(load.client(0, 8)))
        assert load.replies == load.commands == 8


# -- the served prefix never depends on how the socket fragments --------------


def _serve_chunks(chunks, gap):
    """One connection on a default 3-node server: write ``chunks`` ``gap``
    simulated seconds apart, read to EOF; replies, shard data, stats."""
    pool = _pool()
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    replies = []

    def client():
        conn = yield engine.process(server.accept())
        for chunk in chunks:
            conn.c2s.send(chunk)
            yield engine.timeout(gap)
        decoder = FrameDecoder()
        while True:
            data = yield conn.s2c.recv(4096)
            if not data:
                return None
            replies.extend(decode_reply_frame(body)
                           for body in decoder.feed(data))

    engine.run(until=engine.process(client()))
    engine.run()
    return (replies, [dict(shard.data) for shard in server.shards],
            server.stats())


def test_hostile_prefix_serves_the_same_commands_for_any_chunking():
    sets = (encode_request(Command.SET, "alpha", b"1")
            + encode_request(Command.SET, "beta", b"2"))
    hostile = (1 << 30).to_bytes(4, "little")
    two_writes = _serve_chunks([sets, hostile], gap=1e-3)
    one_write = _serve_chunks([sets + hostile], gap=1e-3)
    assert one_write == two_writes
    replies, data, stats = one_write
    assert [reply for reply, _payload in replies] == [
        Reply.OK, Reply.OK, Reply.ERR]
    assert sum(map(len, data)) == 2  # both keys stored
    assert stats["requests"] == 2 and stats["errors"] == 1
    assert stats["open_conns"] == 0  # and the connection is gone


# -- oracle: the SimPipe before the hand-off fast path, verbatim --------------
#
# Kept here, not in ``src/``, as the twin the replacement must match on a
# second engine: same chunks delivered, same stalls, same ``_processed`` on
# every returned event, and the same kernel sequence number at quiescence —
# a hand-off that moved one wake-up would move a golden.


class OracleSimPipe:
    def __init__(self, engine, capacity):
        if capacity < 1:
            raise ValueError(f"pipe capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.closed = False
        self.stalls = 0
        self._buffer = bytearray()
        self._senders = deque()
        self._receiver = None

    def send(self, data):
        if self.closed:
            raise GatewayError("send on a closed pipe")
        if isinstance(data, (list, tuple)):
            data = b"".join(data)
        event = Event(self.engine)
        if self._senders:
            self.stalls += 1
            self._senders.append([data, 0, event])
            return event
        admitted = min(len(data), self.capacity - len(self._buffer))
        self._buffer += data[:admitted]
        if admitted == len(data):
            event._triggered = True
            event._processed = True
        else:
            self.stalls += 1
            self._senders.append([data, admitted, event])
        self._wake_receiver()
        return event

    def recv(self, max_bytes):
        event = Event(self.engine)
        if self._buffer:
            chunk = bytes(self._buffer[:max_bytes])
            del self._buffer[:max_bytes]
            self._admit_senders()
            event._value = chunk
            event._triggered = True
            event._processed = True
        elif self.closed:
            event._value = b""
            event._triggered = True
            event._processed = True
        else:
            if self._receiver is not None:
                raise GatewayError("pipe already has a parked receiver")
            self._receiver = (max_bytes, event)
        return event

    def drain(self):
        out = bytearray()
        while self._buffer:
            out += self._buffer
            self._buffer.clear()
            self._admit_senders()
        return bytes(out)

    def close(self):
        if self.closed:
            return
        self.closed = True
        if self._receiver is not None and not self._buffer:
            _max_bytes, event = self._receiver
            self._receiver = None
            event._succeed_processed(b"")

    def _admit_senders(self):
        while self._senders:
            free = self.capacity - len(self._buffer)
            if free <= 0:
                return
            entry = self._senders[0]
            data, offset, event = entry
            take = min(len(data) - offset, free)
            self._buffer += data[offset:offset + take]
            entry[1] = offset + take
            if entry[1] == len(data):
                self._senders.popleft()
                event._succeed_processed()

    def _wake_receiver(self):
        if self._receiver is None or not self._buffer:
            return
        max_bytes, event = self._receiver
        self._receiver = None
        chunk = bytes(self._buffer[:max_bytes])
        del self._buffer[:max_bytes]
        self._admit_senders()
        event._succeed_processed(chunk)


class _PipeRun:
    """One pipe on its own engine, driven op by op; a process waits on
    every event returned unprocessed, so each wake-up costs its kernel
    sequence numbers and lands in ``log`` in kernel order."""

    def __init__(self, pipe_class, capacity):
        self.engine = Engine()
        self.pipe = pipe_class(self.engine, capacity)
        self.log = []
        self.ops = 0

    def _wait(self, label, event):
        value = yield event
        self.log.append((label, type(value).__name__, value))

    def _returned(self, event):
        """What the caller of ``send``/``recv`` sees in the event."""
        if not event._processed:
            self.engine.process(self._wait(self.ops, event))
        return event._processed, event._value

    def apply(self, op, arg):
        self.ops += 1
        pipe = self.pipe
        try:
            if op == "send":
                seen = self._returned(pipe.send(arg))
            elif op == "recv":
                seen = self._returned(pipe.recv(arg))
            elif op == "drain":
                # Contract: never drained under a parked receiver.
                seen = pipe.drain() if pipe._receiver is None else None
            elif op == "close":
                seen = pipe.close()
            else:
                seen = self.engine.run()
        except GatewayError as exc:
            seen = str(exc)
        return (seen, pipe.stalls, len(pipe._buffer), len(pipe._senders),
                pipe._receiver is None, pipe.closed)


PIPE_CAPACITY = 8
_SIZES = st.sampled_from([0, 1, 3, 4, 5, 7, 8, 9, 12, 20])
_PAYLOADS = st.builds(lambda size, fill: bytes([fill]) * size,
                      _SIZES, st.integers(1, 255))
_PIPE_OPS = st.one_of(
    st.tuples(st.just("send"), _PAYLOADS),
    st.tuples(st.just("send"), st.builds(bytearray, _PAYLOADS)),
    st.tuples(st.just("send"), st.lists(_PAYLOADS, max_size=3)),
    st.tuples(st.just("recv"), st.sampled_from([1, 4, 7, 8, 9, 64])),
    st.tuples(st.just("recv"), st.sampled_from([1, 4, 7, 8, 9, 64])),
    st.tuples(st.just("drain"), st.none()),
    st.tuples(st.just("run"), st.none()),
    st.tuples(st.just("close"), st.none()),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_PIPE_OPS, max_size=30))
def test_simpipe_matches_the_oracle_twin(ops):
    pipe, twin = _PipeRun(SimPipe, PIPE_CAPACITY), _PipeRun(OracleSimPipe,
                                                            PIPE_CAPACITY)
    for op, arg in ops:
        assert pipe.apply(op, arg) == twin.apply(op, arg), (op, arg)
    pipe.engine.run()
    twin.engine.run()
    assert pipe.log == twin.log
    assert all(kind in ("bytes", "NoneType") for _op, kind, _value in pipe.log)
    assert (pipe.engine.capture_state()["sequence"]
            == twin.engine.capture_state()["sequence"])
