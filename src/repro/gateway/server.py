"""The deterministic in-engine gateway server.

The serving front door in front of :class:`~repro.cluster.pool.DevicePool`
/ :class:`~repro.cluster.replicated.ReplicatedBaWAL`: simulated client
connections are kernel processes speaking the
:mod:`repro.gateway.protocol` frames, multiplexed onto per-shard command
queues, with WAL-first commits on the replicated byte-path WAL.

Flow control is bounded end to end — nothing buffers without a limit:

* each connection direction is a :class:`SimPipe`, a bounded byte pipe
  (a socket buffer) whose writer blocks when the reader lags;
* each connection holds a *pipelining window* of ``pipeline_depth``
  in-flight commands (a capacity-``depth`` :class:`Resource`), so a slow
  connection can never spread more than ``depth`` commands through the
  server — its reply queue is bounded by construction;
* each shard owns a :class:`BoundedQueue` of commands; when it fills,
  ``put`` blocks the *connection readers*, which stop draining their
  sockets, which blocks the clients — backpressure propagates to the
  edge instead of growing a buffer.

Commits are WAL-first (SNIPPETS snippet-2 ``WALFirstWriter``): a write is
acked once its AOF record is quorum-durable on the replicated BA-WAL;
the in-memory apply is instant and NAND destage rides the BA-WAL's
background recycling, off the critical path.  Under byte-path pressure
(:class:`~repro.core.errors.MappingTableFullError`) the shard degrades:
its log is replayed onto a fresh stream — which lands on block-WAL legs
when the mapping-table budget is gone — and the command retries.  Slower
commits, same durability contract.  A shard whose log area is full
(:class:`~repro.wal.base.LogFullError`: every slot still holds records
above the stream's low water) refuses writes with ``ERR readonly``
instead of wrapping over acknowledged ones; reads keep being served.  A
write whose record exceeds the stream's ``max_record_bytes`` answers
``ERR toolarge`` and is never applied.

Crash semantics are the kernel's: a node crash purges in-flight work.
Parked waiters (empty-queue getters, empty-pipe receivers) survive a
purge exactly like :class:`~repro.sim.resources.Store` getters do;
everything mid-command dies.  :meth:`GatewayServer.recover` rebuilds the
serving state from the WAL — the only state the gateway trusts.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.core import MappingTableFullError
from repro.db.memkv.commands import (
    Command,
    Reply,
    apply,
    decode_command,
    encode_command,
    encode_reply,
    encode_value,
    validate,
)
from repro.gateway.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    decode_request,
    encode_frame,
)
from repro.obs import events, tracing
from repro.sim import Engine, Resource, Store
from repro.sim.engine import Event
from repro.sim.units import USEC
from repro.wal.base import LogFullError, PartialAppendError
from repro.wal.record import RECORD_HEADER_BYTES

# The reply to a write the shard's full log refused (LogFullError).
_READONLY = encode_reply(Reply.ERR, b"readonly: shard log is full")
_ABSENT = object()  # no value under the key before a write's apply


class GatewayError(Exception):
    """Gateway misuse or resource exhaustion (e.g. connection limit)."""


class SimPipe:
    """A bounded single-reader/single-writer byte pipe (a socket buffer).

    ``send`` returns an event that fires once *all* bytes are buffered;
    while the pipe is full the sender stays parked and later sends queue
    FIFO behind it.  ``recv`` returns an event firing with up to
    ``max_bytes`` (``b""`` means EOF).  Parked waiter events live in pipe
    bookkeeping, not the scheduler, so — like ``Store`` getters — they
    survive a kernel purge.
    """

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"pipe capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.closed = False
        self.stalls = 0
        self._buffer = bytearray()
        # Parked senders: [data, bytes_already_admitted, event], FIFO.
        self._senders: deque[list] = deque()
        self._receiver: Optional[tuple[int, Event]] = None

    def send(self, data) -> Event:
        """``data`` is one ``bytes`` or a list/tuple of frames.  A list is
        scatter-gather: the frames are admitted as ONE contiguous write
        and the parked receiver wakes once per flush instead of once per
        frame — the reply-side half of group commit."""
        if self.closed:
            raise GatewayError("send on a closed pipe")
        if type(data) is not bytes:
            data = (b"".join(data) if isinstance(data, (list, tuple))
                    else bytes(data))
        event = Event(self.engine)
        if self._senders:
            self.stalls += 1
            self._senders.append([data, 0, event])
            return event
        receiver = self._receiver
        if (receiver is not None and not self._buffer
                and 0 < len(data) <= min(self.capacity, receiver[0])):
            # Hand-off: the parked receiver would take exactly these
            # bytes straight back out of the buffer — skip the round trip.
            self._receiver = None
            event._triggered = True
            event._processed = True
            receiver[1]._succeed_processed(data)
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

    def recv(self, max_bytes: int) -> Event:
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

    def drain(self) -> bytes:
        """Synchronously take every buffered byte (admitting parked
        senders as space frees).  The TCP bridge's pump — never call with
        a parked receiver (the in-engine reader) on the same pipe."""
        out = bytearray()
        while self._buffer:
            out += self._buffer
            self._buffer.clear()
            self._admit_senders()
        return bytes(out)

    def close(self) -> None:
        """EOF: a parked receiver (and any future recv of an empty pipe)
        gets ``b""``; buffered bytes still drain first."""
        if self.closed:
            return
        self.closed = True
        if self._receiver is not None and not self._buffer:
            _max_bytes, event = self._receiver
            self._receiver = None
            event._succeed_processed(b"")

    def _admit_senders(self) -> None:
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

    def _wake_receiver(self) -> None:
        if self._receiver is None or not self._buffer:
            return
        max_bytes, event = self._receiver
        self._receiver = None
        chunk = bytes(self._buffer[:max_bytes])
        del self._buffer[:max_bytes]
        self._admit_senders()
        event._succeed_processed(chunk)


class BoundedQueue:
    """A ``Store`` with a capacity: ``put`` returns an event that stays
    parked while the queue is full — the backpressure primitive.

    Parked getters *and* parked putters are queue bookkeeping (they
    survive purges); hand-offs take the same deferred fast path the
    kernel's resources use.
    """

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.stalls = 0
        self._items: deque = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item) -> Event:
        event = Event(self.engine)
        if self._getters:
            getter = self._getters.popleft()
            getter._succeed_processed(item)
            event._triggered = True
            event._processed = True
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event._triggered = True
            event._processed = True
        else:
            self.stalls += 1
            self._putters.append((item, event))
        return event

    def get(self) -> Event:
        event = Event(self.engine)
        if self._items:
            event._value = self._items.popleft()
            event._triggered = True
            event._processed = True
            if self._putters:
                item, put_event = self._putters.popleft()
                self._items.append(item)
                put_event._succeed_processed()
        else:
            self._getters.append(event)
        return event


@dataclass
class GatewayConfig:
    """Serving knobs; the defaults are what ``benchmarks/e2e`` serves with.

    Group-commit knobs (writers register their LSN with the shard's
    commit coalescer and park; one committer per shard covers every
    pending writer with a single ``commit(max_lsn)`` quorum barrier):

    * ``writer_lanes`` — executor lanes per shard.  Keys are striped
      across lanes (second-level blake2b routing), so per-key command
      order is preserved while independent keys execute in parallel.
    * ``commit_batch_commands`` / ``commit_batch_bytes`` — the coalescer
      caps: lanes stall once that much work is pending-or-in-flight, so
      a barrier can never stretch past one knob's worth of commands (the
      p999 governor).
    * ``reply_flush_frames`` — scatter-gather reply flushing: the
      connection writer takes up to this many *already-settled* replies
      per socket write (never waiting for more), one receiver wake per
      flush.

    ``writer_lanes=1, commit_batch_commands=1, reply_flush_frames=1`` is
    the per-command cadence: one writer in flight per shard, one barrier
    and one socket write per command.
    """

    shards: Optional[int] = None  # None -> one per pool node
    replicas: int = 2
    quorum: Optional[int] = None
    pipeline_depth: int = 8
    queue_depth: int = 16
    max_conns: int = 4096
    socket_buffer_bytes: int = 4096
    max_frame_bytes: int = MAX_FRAME_BYTES
    writer_lanes: int = 4
    commit_batch_commands: int = 16
    commit_batch_bytes: int = 64 * 1024
    reply_flush_frames: int = 8


@dataclass
class _Shard:
    """One partition: a dict, its replicated WAL stream, and its lanes.

    ``applied_lsn`` is the shard's read horizon: the primary-stream end
    LSN of the newest write already applied to ``data``.  Applies land
    *before* their quorum barrier, so a GET that
    observed ``applied_lsn > stream.durable_lsn`` must register with the
    coalescer and ack only behind the covering barrier — reads never
    leak state a crash could erase.

    ``degrading`` / ``active_writers`` / ``writer_drain`` coordinate the
    multi-lane degrade swap: the winning lane parks new writers on
    ``degrading``, waits out in-flight appends via ``active_writers`` /
    ``writer_drain``, and only then replays the log onto a fresh stream.
    """

    index: int
    stream_name: str
    stream: object = None
    data: dict = field(default_factory=dict)
    queues: list = field(default_factory=list)
    lanes: list = field(default_factory=list)
    coalescer: object = None
    applied_lsn: int = 0
    active_writers: int = 0
    degrading: object = None
    writer_drain: object = None


class Connection:
    """One simulated client connection: two pipes, a window, a reply line.

    ``replies`` carries one *event per request in request order*; the
    writer awaits them sequentially, so pipelined replies leave in the
    order their requests arrived no matter which shard finished first.
    A ``None`` entry is the EOF sentinel.
    """

    def __init__(self, server: "GatewayServer", conn_id: int) -> None:
        engine = server.engine
        self.id = conn_id
        self.c2s = SimPipe(engine, server.config.socket_buffer_bytes)
        self.s2c = SimPipe(engine, server.config.socket_buffer_bytes)
        self.window = Resource(engine, server.config.pipeline_depth)
        self.replies = Store(engine)
        self.closed = False
        self.reader = engine.process(server._conn_reader(self),
                                     name=f"gw-reader-{conn_id}")
        self.writer = engine.process(server._conn_writer(self),
                                     name=f"gw-writer-{conn_id}")

    def close(self) -> None:
        """Client-side hangup: EOF the request pipe; the server flushes
        in-flight replies, then EOFs the reply pipe back."""
        self.c2s.close()


class _CommitCoalescer:
    """Per-shard group commit: one quorum barrier acks a window.

    Lanes ``register`` an ``(lsn, bytes, ack, body)`` entry and park on
    the ack; the single committer process carves bounded batches off the
    pending line and covers each with ONE ``stream.commit(max_lsn)``
    quorum round trip — correct because ``ReplicatedBaWAL.commit`` is
    LSN-monotonic and idempotent below ``_quorum_durable``.  Every
    covered ack fires only *after* the barrier returns, so reproscan's
    DUR001 dominance proof holds.

    ``admit`` is the p999 governor: once pending + in-flight
    registrations reach the command/byte caps, lanes park before
    draining more work, bounding how many commands one barrier can
    stretch over.

    A quorum loss kills the committer mid-barrier; registered acks stay
    parked and the admit window never refills, so the shard wedges
    without ever acking an uncovered write.
    """

    def __init__(self, server: "GatewayServer", shard: _Shard) -> None:
        self.engine = server.engine
        self.shard = shard
        config = server.config
        self.max_commands = max(1, config.commit_batch_commands)
        self.max_bytes = max(1, config.commit_batch_bytes)
        self.pending: deque = deque()  # (lsn, nbytes, ack, body)
        self.pending_bytes = 0
        self.inflight = 0
        self.inflight_bytes = 0
        self.stalls = 0
        self.batches = 0
        self.batched_commands = 0
        self.max_batch = 0
        self._signal = Store(self.engine)
        self._kicked = False
        self._admit_waiters: deque[Event] = deque()
        self._idle_waiters: deque[Event] = deque()
        self.worker = self.engine.process(
            self._committer(), name=f"gw-commit-{shard.index}")

    def has_room(self) -> bool:
        return (len(self.pending) + self.inflight < self.max_commands
                and self.pending_bytes + self.inflight_bytes < self.max_bytes)

    def room(self) -> int:
        """How many more registrations fit before ``admit`` would park."""
        return max(1, self.max_commands - len(self.pending) - self.inflight)

    def admit(self) -> Event:
        """Flow control, for a lane that found ``has_room()`` false: an
        event that fires once there is room to register."""
        self.stalls += 1
        event = Event(self.engine)
        self._admit_waiters.append(event)
        return event

    def register(self, lsn: int, nbytes: int, ack: Event,
                 body: bytes) -> None:
        """Queue ``ack`` behind the next quorum barrier covering ``lsn``."""
        self.pending.append((lsn, nbytes, ack, body))
        self.pending_bytes += nbytes
        if not self._kicked:
            self._kicked = True
            self._signal.put(True)

    def quiesced(self) -> Iterator[Event]:
        """Process: wait until nothing is pending or in flight.  A
        degrade swap must not strand acks registered against LSNs of the
        outgoing stream."""
        while self.pending or self.inflight:
            waiter = Event(self.engine)
            self._idle_waiters.append(waiter)
            yield waiter
        return None

    def _committer(self) -> Iterator[Event]:
        engine = self.engine
        shard = self.shard
        while True:
            yield self._signal.get()
            self._kicked = False
            while self.pending:
                taken = [self.pending.popleft()]
                taken_bytes = taken[0][1]
                while (self.pending and len(taken) < self.max_commands
                       and taken_bytes + self.pending[0][1] <= self.max_bytes):
                    entry = self.pending.popleft()
                    taken.append(entry)
                    taken_bytes += entry[1]
                self.pending_bytes -= taken_bytes
                self.inflight = len(taken)
                self.inflight_bytes = taken_bytes
                target = max(entry[0] for entry in taken)
                if tracing.enabled:
                    _t0 = engine.now
                # ONE quorum barrier covers every taken registration.
                # spawn: delegating moves the gateway_group_commit golden
                yield engine.process(shard.stream.commit(target))
                if tracing.enabled:
                    tracing.observe("gateway.wal.quorum", engine.now - _t0)
                    tracing.observe("gateway.commit.batch", len(taken))
                    tracing.count("gateway.commit.barriers")
                self.batches += 1
                self.batched_commands += len(taken)
                self.max_batch = max(self.max_batch, len(taken))
                for _lsn, _nbytes, ack, body in taken:
                    ack.succeed(body)
                self.inflight = 0
                self.inflight_bytes = 0
                self._release()

    def _release(self) -> None:
        while self._admit_waiters and self.has_room():
            self._admit_waiters.popleft()._succeed_processed()
        if not self.pending and not self.inflight:
            while self._idle_waiters:
                self._idle_waiters.popleft()._succeed_processed()


class GatewayServer:
    """The in-engine serving core shared by the driver and the TCP bridge."""

    # CPU costs per stage (simulated): accept handshake, frame parse,
    # command execution (same figure MemKV calibrates to).
    ACCEPT_CPU = 2.0 * USEC
    PARSE_CPU = 1.0 * USEC
    COMMAND_CPU = 10.0 * USEC
    RECV_CHUNK_BYTES = 4096

    def __init__(self, pool, config: Optional[GatewayConfig] = None) -> None:
        self.pool = pool
        self.engine: Engine = pool.engine
        self.config = config or GatewayConfig()
        if self.config.writer_lanes < 1:
            raise GatewayError(
                f"writer_lanes must be >= 1, got {self.config.writer_lanes}")
        if self.config.commit_batch_commands < 1:
            raise GatewayError(
                f"commit_batch_commands must be >= 1, got "
                f"{self.config.commit_batch_commands}")
        if self.config.commit_batch_bytes < 1:
            raise GatewayError(
                f"commit_batch_bytes must be >= 1, got "
                f"{self.config.commit_batch_bytes}")
        if self.config.reply_flush_frames < 1:
            raise GatewayError(
                f"reply_flush_frames must be >= 1, got "
                f"{self.config.reply_flush_frames}")
        shard_count = self.config.shards or len(pool.nodes)
        self.shards = [
            _Shard(index=index, stream_name=f"gw-shard-{index}")
            for index in range(shard_count)
        ]
        self._conns: dict[int, Connection] = {}
        self._next_conn_id = 0
        self.accepted = 0
        self.refused = 0
        self.requests = 0
        self.replies = 0
        self.errors = 0
        self.degrades = 0
        self._closed_socket_stalls = 0
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> Iterator[Event]:
        """Process: open every shard's replicated stream and start its
        worker.  Drive via ``engine.run_process(server.start())``."""
        if self._started:
            raise GatewayError("gateway already started")
        for shard in self.shards:
            shard.stream = yield from self.pool.open_stream(
                shard.stream_name,
                replicas=self.config.replicas,
                quorum=self.config.quorum,
            )
            self._spawn_shard_pipeline(shard)
        self._started = True
        return None

    def _spawn_shard_pipeline(self, shard: _Shard) -> None:
        """Fresh lanes, queues, and coalescer for a shard whose stream is
        already adopted — shared by start and recover."""
        lanes = self.config.writer_lanes
        shard.queues = [
            BoundedQueue(self.engine, self.config.queue_depth)
            for _ in range(lanes)
        ]
        shard.coalescer = _CommitCoalescer(self, shard)
        shard.active_writers = 0
        shard.degrading = None
        shard.writer_drain = None
        shard.lanes = [
            self.engine.process(
                self._lane_worker(shard, lane),
                name=(f"gw-shard-{shard.index}" if lanes == 1
                      else f"gw-shard-{shard.index}-l{lane}"))
            for lane in range(lanes)
        ]

    def stop(self) -> Iterator[Event]:
        """Process: close every shard stream (releases byte-path budget).
        Workers stay parked on their queues; they die with the server."""
        for shard in self.shards:
            if shard.stream_name in self.pool.streams:
                yield from self.pool.close_stream(shard.stream_name)
        self._started = False
        return None

    def accept(self) -> Iterator[Event]:
        """Process: one connection handshake.  Raises
        :class:`GatewayError` at the ``max_conns`` limit."""
        if tracing.enabled:
            _t0 = self.engine.now
        yield self.engine.timeout(self.ACCEPT_CPU)
        if len(self._conns) >= self.config.max_conns:
            self.refused += 1
            if tracing.enabled:
                tracing.count("gateway.conns_refused")
            raise GatewayError(
                f"connection limit {self.config.max_conns} reached")
        self._next_conn_id += 1
        conn = Connection(self, self._next_conn_id)
        self._conns[conn.id] = conn
        self.accepted += 1
        if tracing.enabled:
            tracing.observe("gateway.conn.accept", self.engine.now - _t0)
            tracing.count("gateway.conns_accepted")
        if events.enabled:
            events.emit("gateway.conn.accepted", self.engine.now,
                        conn=conn.id, open_conns=len(self._conns))
        return conn

    # -- routing ------------------------------------------------------------

    def shard_for_key(self, key: str) -> _Shard:
        """Deterministic key -> shard routing (blake2b, never ``hash()``)."""
        return self._route_for_key(key)[0]

    def _route_for_key(self, key: str) -> tuple[_Shard, int]:
        """Key -> (shard, lane).  Lane striping uses the hash bits above
        the shard modulus, so each key has ONE lane: per-key command
        order is per-lane order, preserved across parallel lanes."""
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        shard = self.shards[h % len(self.shards)]
        lanes = len(shard.queues) or 1
        lane = (h // len(self.shards)) % lanes
        return shard, lane

    def stream_name_for_key(self, key: str) -> str:
        return self.shard_for_key(key).stream_name

    # -- connection processes -----------------------------------------------

    def _conn_reader(self, conn: Connection) -> Iterator[Event]:
        engine = self.engine
        decoder = FrameDecoder(self.config.max_frame_bytes)
        while True:
            chunk = yield conn.c2s.recv(self.RECV_CHUNK_BYTES)
            if not chunk:
                break  # EOF: client hung up
            framing_error = None
            try:
                frames = decoder.feed(chunk)
            except ProtocolError as exc:
                # Framing is unrecoverable: the byte stream can no longer
                # be trusted.  Serve the whole frames ahead of the bad
                # prefix, reply ERR in order, then hang up.
                frames, framing_error = exc.frames, exc
            for body in frames:
                if tracing.enabled:
                    _t0 = engine.now
                yield engine.timeout(self.PARSE_CPU)
                try:
                    command, key, value = decode_request(body)
                    parse_error = None
                except ProtocolError as exc:
                    # The frame boundary held; only this command is bad.
                    command = key = value = None
                    parse_error = exc
                if tracing.enabled:
                    tracing.observe("gateway.frame.parse", engine.now - _t0)
                if parse_error is not None:
                    yield from self._enqueue_error(conn, parse_error,
                                                   fatal=False)
                    continue
                slot = conn.window.request()
                yield slot
                done = engine.event()
                conn.replies.put((done, slot))
                self.requests += 1
                if tracing.enabled:
                    tracing.count("gateway.requests")
                    tracing.count(f"gateway.cmd.{command.name.lower()}")
                shard, lane = self._route_for_key(key)
                put = shard.queues[lane].put(
                    (engine.now, command, key, value, done))
                if not put._processed:
                    if tracing.enabled:
                        tracing.count("gateway.backpressure.engaged")
                    if events.enabled:
                        events.emit("gateway.backpressure.engaged",
                                    engine.now, conn=conn.id,
                                    shard=shard.index,
                                    queue_depth=len(shard.queues[lane]))
                yield put
            if framing_error is not None:
                yield from self._enqueue_error(conn, framing_error)
                return None
        conn.closed = True
        conn.replies.put(None)
        return None

    def _enqueue_error(self, conn: Connection, exc: Exception,
                       fatal: bool = True) -> Iterator[Event]:
        """Reply ``ERR`` through the ordered reply line (so pipelined
        replies ahead of the error still drain first)."""
        slot = conn.window.request()
        yield slot
        done = self.engine.event()
        conn.replies.put((done, slot))
        if fatal:
            conn.closed = True
            conn.replies.put(None)
        self.errors += 1
        if tracing.enabled:
            tracing.count("gateway.errors")
        done.succeed(encode_reply(Reply.ERR, str(exc).encode()))
        return None

    def _conn_writer(self, conn: Connection) -> Iterator[Event]:
        engine = self.engine
        flush_limit = self.config.reply_flush_frames
        while True:
            entry = yield conn.replies.get()
            if entry is None:
                break
            done, slot = entry
            body = yield done
            bodies = [body]
            slots = [slot]
            # Scatter-gather: greedily take replies that are *already*
            # settled — a batched ack wakes a whole window at once —
            # without ever waiting (gathering must not add latency), up
            # to the flush knob, and write them as ONE pipe send.
            while len(bodies) < flush_limit and conn.replies._items:
                head = conn.replies._items[0]
                if head is None:
                    break  # EOF sentinel: leave it for the outer loop
                head_done, head_slot = head
                if (not head_done._triggered
                        or head_done._exception is not None):
                    break  # reply order is request order: stop at a gap
                conn.replies._items.popleft()
                bodies.append(head_done._value)
                slots.append(head_slot)
            if tracing.enabled:
                _t0 = engine.now
            send = conn.s2c.send(
                encode_frame(body) if len(bodies) == 1
                else [encode_frame(body) for body in bodies])
            if tracing.enabled and not send._processed:
                tracing.count("gateway.socket.stalls")
            yield send
            for slot in slots:
                conn.window.release(slot)
            self.replies += len(bodies)
            if tracing.enabled:
                tracing.observe("gateway.reply.write", engine.now - _t0)
                tracing.count("gateway.replies", len(bodies))
                if len(bodies) > 1:
                    tracing.observe("gateway.reply.flush", len(bodies))
        self._conns.pop(conn.id, None)
        self._closed_socket_stalls += conn.c2s.stalls + conn.s2c.stalls
        conn.s2c.close()
        return None

    # -- shard execution ----------------------------------------------------

    def _lane_worker(self, shard: _Shard, lane: int) -> Iterator[Event]:
        """Process: one executor lane — the commands of one key stripe,
        strictly in arrival order.  The lane waits for coalescer
        admission, drains a bounded run of queued commands, and executes
        them as one batch whose acks the shard committer covers with a
        single quorum barrier.
        """
        engine = self.engine
        queue = shard.queues[lane]
        coalescer = shard.coalescer
        while True:
            if not coalescer.has_room():
                if tracing.enabled:
                    tracing.count("gateway.coalescer.stalls")
                yield coalescer.admit()
            batch = [(yield queue.get())]
            # Drain what is already queued, bounded by the coalescer's
            # admission window — never waiting for more work to arrive.
            room = coalescer.room()
            while len(queue) and len(batch) < room:
                batch.append(queue.get()._value)
            # spawn: delegating moves gw-get sim_capacity_ops_per_s (1e-5)
            yield engine.process(self._execute_batch(shard, batch))

    def _execute_batch(self, shard: _Shard, batch: list) -> Iterator[Event]:
        """Process: serve one drained run of lane commands.

        Commands execute strictly in order: each pays its CPU cost and
        reads observe every earlier apply.  Writes validate, apply, and
        stage their AOF records; the whole run then lands with ONE
        batched stream append (one primary insert-lock pass, one
        interconnect message per replica) and every ack registers with
        the shard's commit coalescer — no reply exists until the
        committer's quorum barrier covers the run's highest LSN.

        WAL-first still holds with the apply moved before the barrier:
        the apply is instant (zero simulated time), invisible outside
        this lane's key stripe until a reply leaves, and ``recover``
        rebuilds state from the WAL alone.  A GET that observed
        not-yet-durable state registers at the shard's applied horizon
        and acks only behind the covering barrier, so reads never leak
        state a crash could erase.

        When the shard's log is full it refuses a suffix of the run's
        records (:class:`~repro.wal.base.LogFullError`).  Those writes
        are un-applied and answer ``ERR readonly``; the landed prefix
        commits and acks as usual, and a read queued behind a refused
        write answers from the restored state.
        """
        engine = self.engine
        acks: list[tuple] = []  # ("w", record_index, done, body) | ("g", key, ...)
        records: list[bytes] = []
        priors: list[tuple] = []  # (key, value before the record's apply)
        for enqueued_at, command, key, value, done in batch:
            if tracing.enabled:
                tracing.observe("gateway.queue.wait",
                                engine.now - enqueued_at)
            yield engine.timeout(self.COMMAND_CPU)
            if command is Command.GET:
                payload = encode_value(shard.data.get(key))
                body = encode_reply(Reply.VALUE, payload)
                if records or shard.applied_lsn > shard.stream.durable_lsn:
                    acks.append(("g", key, done, body))
                else:
                    done.succeed(body)
                continue
            try:
                validate(shard.data, command, key)
            except ValueError as exc:
                self.errors += 1
                if tracing.enabled:
                    tracing.count("gateway.errors")
                done.succeed(encode_reply(Reply.ERR, str(exc).encode()))
                continue
            record = encode_command(command, key, value)
            limit = shard.stream.max_record_bytes
            if RECORD_HEADER_BYTES + len(record) > limit:
                # A legal frame can still outgrow what the shard log holds
                # (one segment on a byte-path leg): refuse it before its
                # apply; the lane keeps serving.
                self.errors += 1
                if tracing.enabled:
                    tracing.count("gateway.errors")
                done.succeed(encode_reply(Reply.ERR, (
                    f"toolarge: a {RECORD_HEADER_BYTES + len(record)}-byte "
                    f"record exceeds the shard log's {limit}").encode()))
                continue
            priors.append((key, shard.data.get(key, _ABSENT)))
            new_value = apply(shard.data, command, key, value)
            body = (encode_reply(Reply.OK, new_value)
                    if command is Command.INCR else encode_reply(Reply.OK))
            acks.append(("w", len(records), done, body))
            records.append(record)
        lsns: list[int] = []
        if records:
            lsns = yield from self._append_with_degrade(shard, records)
            for key, prior in reversed(priors[len(lsns):]):
                # Refused by the full log: undo the apply, newest first.
                if prior is _ABSENT:
                    shard.data.pop(key, None)
                else:
                    shard.data[key] = prior
            if lsns:
                shard.applied_lsn = max(shard.applied_lsn, lsns[-1])
        coalescer = shard.coalescer
        horizon = shard.applied_lsn
        refused = False
        for kind, index, done, body in acks:
            if kind == "w":
                if index >= len(lsns):
                    refused = True
                    self.errors += 1
                    if tracing.enabled:
                        tracing.count("gateway.errors")
                    done.succeed(_READONLY)
                    continue
                coalescer.register(lsns[index], len(records[index]),
                                   done, body)
            else:
                if refused:
                    # Read after a refused write: answer from the state
                    # the refusal restored, not the one it observed.
                    body = encode_reply(Reply.VALUE,
                                        encode_value(shard.data.get(index)))
                # A read of possibly-undurable state: ack it behind the
                # barrier covering everything applied so far.
                coalescer.register(horizon, 0, done, body)
        return None

    def _append_with_degrade(self, shard: _Shard,
                             records: list[bytes]) -> Iterator[Event]:
        """Process: land ``records`` on the shard stream, riding out at
        most one mapping-table degrade (one degrade-and-retry, a second
        failure propagates).

        Returns one end LSN per landed record, positionally.  Records
        appended before a mid-batch failure are already in the old
        primary's log (and shipped to its replicas), so they ride the
        degrade replay — which quorum-commits them — and report the *new*
        stream's durable horizon as their LSN: their coalescer
        registrations are covered the moment the committer looks at them.

        A full log (:class:`~repro.wal.base.LogFullError`, alone or as a
        partial append's cause) is no degrade: the list comes back short,
        and the records past its end were refused.
        """
        engine = self.engine
        lsns: list[int] = []
        remaining = records
        for attempt in (0, 1):
            while shard.degrading is not None:
                yield shard.degrading
            stream = shard.stream
            shard.active_writers += 1
            failure = None
            appended = 0
            try:
                try:
                    if tracing.enabled:
                        _t0 = engine.now
                    got = yield from stream.append_batch(remaining)
                    if tracing.enabled:
                        tracing.observe("gateway.wal.append",
                                        engine.now - _t0)
                except MappingTableFullError as exc:
                    failure = exc
                except LogFullError:
                    got = []
                except PartialAppendError as exc:
                    if isinstance(exc.cause, LogFullError):
                        got = exc.lsns
                    elif isinstance(exc.cause, MappingTableFullError):
                        failure = exc
                        appended = len(exc.lsns)
                    else:
                        raise
            finally:
                shard.active_writers -= 1
                if (shard.active_writers == 0
                        and shard.writer_drain is not None):
                    drain, shard.writer_drain = shard.writer_drain, None
                    drain.succeed()
            if failure is None:
                return lsns + got
            if attempt:
                raise failure
            remaining = remaining[appended:]
            if shard.stream is stream:
                if shard.degrading is not None:
                    yield shard.degrading  # a peer lane is already on it
                else:
                    yield from self._quiesce_and_degrade(shard)
            # else: a peer's swap finished while our append was failing;
            # its replay already carried our appended prefix across.
            lsns.extend([shard.stream.durable_lsn] * appended)
        raise AssertionError("unreachable: attempt loop returns or raises")

    def _quiesce_and_degrade(self, shard: _Shard) -> Iterator[Event]:
        """Process: the multi-lane degrade dance.  The winning lane parks
        every new writer (``shard.degrading``), waits out in-flight
        appends and every coalescer registration (their barriers target
        the *old* stream), then runs the staged replay-and-swap and
        re-anchors the applied horizon in the new stream's LSN space.
        """
        engine = self.engine
        shard.degrading = engine.event()
        try:
            while shard.active_writers > 0:
                shard.writer_drain = engine.event()
                yield shard.writer_drain
            yield from shard.coalescer.quiesced()
            yield from self._degrade_shard(shard)
            shard.applied_lsn = shard.stream.durable_lsn
        finally:
            done, shard.degrading = shard.degrading, None
            done.succeed()
        return None

    def _degrade_shard(self, shard: _Shard) -> Iterator[Event]:
        """Process: byte-path pressure — move the shard's log to a fresh
        stream on the same nodes (block legs once the mapping-table
        budget is gone) without losing a single acked record: the pool's
        staged swap (``DevicePool.restage``) from the old primary.
        """
        engine = self.engine
        old = shard.stream
        self.degrades += 1
        if tracing.enabled:
            tracing.count("gateway.shard.degraded")
        with tracing.span("gateway.shard.degrade", engine):
            nodes = [leg.node.name for leg in old.legs() if leg.node.up]
            new_stream, recovered = yield from self.pool.restage(
                shard.stream_name, old.primary, nodes, "degrade")
            shard.stream = new_stream
        if events.enabled:
            events.emit("gateway.shard.degraded", engine.now,
                        shard=shard.index, stream=shard.stream_name,
                        replayed=len(recovered),
                        kinds=tuple(leg.kind for leg in new_stream.legs()))
        return None

    # -- crash recovery -----------------------------------------------------

    def recover(self) -> int:
        """Rebuild serving state after a node crash (+ failovers).

        Call from *outside* the kernel, after the crash harness and any
        ``FailoverManager.fail_over`` runs.  Every connection died with
        the crash (clients reconnect and resend past their last ack);
        commands queued but never quorum-acked are dropped with their
        queues — the same socket-buffer semantics the replica pipelines
        promise.  Each shard re-adopts its stream by *name* (failover
        swaps the object underneath) and repairs the replica pipelines;
        the shards' logs are independent streams, so they are then read
        at once — recovery costs the slowest shard's scan, not the sum —
        and each is replayed into a fresh dict: the WAL is the only
        state the gateway trusts.  Returns the number of shards rebuilt.
        """
        engine = self.engine
        self._conns.clear()
        started = engine.now
        for shard in self.shards:
            shard.stream = self.pool.streams[shard.stream_name]
            shard.stream.respawn_workers()
        replayed = engine.run(until=engine.all_of([
            engine.process(self._rebuild(shard), name="gw-recover")
            for shard in self.shards]))
        for shard in self.shards:
            self._spawn_shard_pipeline(shard)
        if events.enabled:
            events.emit("gateway.recovered", engine.now,
                        shards=len(self.shards), records=tuple(replayed),
                        seconds=engine.now - started)
        return len(self.shards)

    @staticmethod
    def _rebuild(shard: _Shard) -> Iterator[Event]:
        """Process: replay the shard's log into a fresh dict, each record
        applied while its segment is live; returns the records replayed."""
        data = shard.data = {}
        replayed = applied = 0

        def redo(lsn, payload):
            nonlocal replayed, applied
            apply(data, *decode_command(bytes(payload)))
            replayed += 1
            applied = lsn + RECORD_HEADER_BYTES + len(payload)

        yield from shard.stream.replay(0, redo)
        shard.applied_lsn = applied
        return replayed

    # -- observability ------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe serving counters (golden fixtures fold these in)."""
        coalescers = [shard.coalescer for shard in self.shards]
        return {
            "accepted": self.accepted,
            "refused": self.refused,
            "requests": self.requests,
            "replies": self.replies,
            "errors": self.errors,
            "degrades": self.degrades,
            "open_conns": len(self._conns),
            "queue_stalls": sum(queue.stalls for shard in self.shards
                                for queue in shard.queues),
            "socket_stalls": self._closed_socket_stalls + sum(
                conn.c2s.stalls + conn.s2c.stalls
                for conn in self._conns.values()),
            "shard_keys": [len(shard.data) for shard in self.shards],
            "shard_kinds": [
                tuple(leg.kind for leg in shard.stream.legs())
                if shard.stream is not None else ()
                for shard in self.shards
            ],
            "group_commit": {
                "barriers": sum(c.batches for c in coalescers),
                "commands": sum(c.batched_commands for c in coalescers),
                "max_batch": max(c.max_batch for c in coalescers),
                "admit_stalls": sum(c.stalls for c in coalescers),
            },
        }
