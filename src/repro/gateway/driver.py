"""Simulated client load against the in-engine gateway.

Each client is a pair of kernel processes on one connection: a *sender*
that streams every pre-encoded request frame into the ``c2s`` pipe
(blocking whenever the socket buffer fills — the edge of the
backpressure chain) and a *receiver* that decodes reply frames, records
round-trip spans, and — for durability runs — the exact payload of every
acknowledged write, timestamped at the ack.  The server's pipelining
window bounds how far a sender can usefully run ahead; the sender itself
just writes until the socket pushes back, like a real client would.

Two workload shapes:

* the default *mixed* load (``payload_stamps=False``): clients cycle
  through SET/APPEND/GET/INCR/DEL over a small shared key space —
  contention, cross-shard traffic, read/write mix.  Used by the golden
  fixture and the group-commit tests.
* the *stamped* load (``payload_stamps=True``): every command is a SET
  of the client's own key, its value a
  :func:`repro.cluster.driver.make_payload` stamp.  A fixed key pins the
  client to one shard stream, so the per-client ack sequence lands in
  one WAL — exactly what
  :meth:`repro.nemesis.analyzer.StreamingAnalyzer.check_recovery` needs
  to prove no acked command was lost across a crash.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.cluster.driver import make_payload
from repro.db.memkv.commands import (
    Command,
    Reply,
    WRITE_COMMANDS,
    decode_command,
)
from repro.gateway.protocol import (
    FrameDecoder,
    decode_reply_frame,
    encode_request,
)
from repro.gateway.server import Connection, GatewayConfig, GatewayServer
from repro.obs import tracing
from repro.sim.engine import Event

# The deterministic mixed-load command cycle (no RNG: goldens replay it).
_MIXED_CYCLE = (Command.SET, Command.APPEND, Command.GET, Command.INCR,
                Command.SET, Command.GET, Command.DEL, Command.GET)


@dataclass
class GatewayRunResult:
    """Aggregate outcome of one serving run (simulated time only)."""

    clients: int
    commands: int
    replies: int
    ok: int
    values: int
    errors: int
    sim_seconds: float
    server_stats: dict
    # stream name -> [(ack_time, payload), ...]: the analyzer's input.
    acked: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Commands per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.commands / self.sim_seconds

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "commands": self.commands,
            "replies": self.replies,
            "ok": self.ok,
            "values": self.values,
            "errors": self.errors,
            "sim_seconds": self.sim_seconds,
            "throughput": self.throughput,
            "server": self.server_stats,
        }


def mixed_ops(client: int, commands: int, key_space: int,
              value_bytes: int) -> list[tuple[Command, str, bytes]]:
    """The deterministic mixed workload for one client."""
    ops = []
    for seq in range(commands):
        command = _MIXED_CYCLE[seq % len(_MIXED_CYCLE)]
        key = f"k{(client * 7 + seq * 3) % key_space}"
        if command in (Command.SET, Command.APPEND):
            value = (f"v{client}.{seq}:".encode()
                     .ljust(value_bytes, b"x")[:value_bytes])
        else:
            value = b""
        ops.append((command, key, value))
    return ops


def stamped_ops(server: GatewayServer, client: int, commands: int,
                value_bytes: int) -> list[tuple[Command, str, bytes]]:
    """The durability workload: SETs of one key, stamped values."""
    key = f"c{client}"
    stream = server.stream_name_for_key(key)
    return [
        (Command.SET, key, make_payload(stream, client, seq, value_bytes))
        for seq in range(commands)
    ]


class GatewayLoad:
    """Drives N simulated clients against a started :class:`GatewayServer`."""

    def __init__(self, server: GatewayServer, *, value_bytes: int = 64,
                 key_space: int = 16, payload_stamps: bool = False,
                 recv_chunk: int = 4096) -> None:
        self.server = server
        self.engine = server.engine
        self.value_bytes = value_bytes
        self.key_space = key_space
        self.payload_stamps = payload_stamps
        self.recv_chunk = recv_chunk
        self.acked: dict[str, list] = {}
        self.ok = 0
        self.values = 0
        self.errors = 0
        self.replies = 0
        self.commands = 0
        # client id -> next unacked seq: crash recovery resumes here.
        self._resume_at: dict[int, int] = {}

    # -- client processes ---------------------------------------------------

    def ops_for(self, client: int,
                commands: int) -> list[tuple[Command, str, bytes]]:
        if self.payload_stamps:
            return stamped_ops(self.server, client, commands,
                               self.value_bytes)
        return mixed_ops(client, commands, self.key_space, self.value_bytes)

    def client(self, client_id: int, commands: int,
               start_seq: int = 0,
               recv_delay: float = 0.0) -> Iterator[Event]:
        """Process: one client session — connect, pipeline, drain replies.

        ``start_seq`` skips already-acked commands (reconnect after a
        crash); ``recv_delay`` inserts think time between socket reads (a
        slowloris reader that drives the backpressure chain).
        """
        engine = self.engine
        ops = self.ops_for(client_id, commands)[start_seq:]
        conn = yield from self.server.accept()
        sent_at: deque[tuple[float, Command, bytes]] = deque()
        engine.process(self._sender(conn, ops, sent_at),
                       name=f"gw-client-send-{client_id}")
        decoder = FrameDecoder()
        pending = len(ops)
        self.commands += len(ops)
        while pending:
            chunk = yield conn.s2c.recv(self.recv_chunk)
            if not chunk:
                break  # server hung up (fatal protocol error path)
            if recv_delay and pending:
                yield engine.timeout(recv_delay)
            for body in decoder.feed(chunk):
                reply, payload = decode_reply_frame(body)
                t_sent, command, value = sent_at.popleft()
                pending -= 1
                self.replies += 1
                if tracing.enabled:
                    tracing.observe("gateway.client.rtt",
                                    engine.now - t_sent)
                if reply is Reply.ERR:
                    self.errors += 1
                    continue
                if reply is Reply.VALUE:
                    self.values += 1
                    continue
                self.ok += 1
                if self.payload_stamps and command in WRITE_COMMANDS:
                    stream = self.server.stream_name_for_key(
                        f"c{client_id}")
                    self.acked.setdefault(stream, []).append(
                        (engine.now, value))
                    self._resume_at[client_id] = \
                        self._resume_at.get(client_id, start_seq) + 1
        conn.close()
        return None

    def _sender(self, conn: Connection, ops: list,
                sent_at: deque) -> Iterator[Event]:
        for command, key, value in ops:
            sent_at.append((self.engine.now, command, value))
            yield conn.c2s.send(encode_request(command, key, value))
        return None

    def resume_seq(self, client_id: int) -> int:
        """Where a reconnecting client restarts: first unacked seq."""
        return self._resume_at.get(client_id, 0)


def run_serving(pool, config: Optional[GatewayConfig] = None, *,
                clients: int = 64, commands_per_client: int = 16,
                value_bytes: int = 64, key_space: int = 16,
                payload_stamps: bool = False, slow_clients: int = 0,
                slow_recv_delay: float = 0.0) -> GatewayRunResult:
    """Build a gateway on ``pool`` (default :class:`GatewayConfig` when
    ``config`` is None), serve one full load, return the result.

    The single entry point the golden scenarios and the tests share.
    Call from outside the kernel; the pool's engine runs to completion
    of every client session.  The first ``slow_clients``
    clients read with ``slow_recv_delay`` think time between socket
    reads — slowloris readers that drive the backpressure chain from the
    reply side.
    """
    server = GatewayServer(pool, config)
    engine = pool.engine
    engine.run_process(server.start())
    load = GatewayLoad(server, value_bytes=value_bytes, key_space=key_space,
                       payload_stamps=payload_stamps)
    start = engine.now
    sessions = [
        engine.process(
            load.client(client_id, commands_per_client,
                        recv_delay=(slow_recv_delay
                                    if client_id < slow_clients else 0.0)),
            name=f"gw-client-{client_id}")
        for client_id in range(clients)
    ]
    engine.run(until=engine.all_of(sessions))
    sim_seconds = engine.now - start
    engine.run()  # drain connection teardown before reading the counters
    result = GatewayRunResult(
        clients=clients,
        commands=load.commands,
        replies=load.replies,
        ok=load.ok,
        values=load.values,
        errors=load.errors,
        sim_seconds=sim_seconds,
        server_stats=server.stats(),
        acked=load.acked,
    )
    engine.run_process(server.stop())
    engine.run()
    return result


def decode_gateway_record(record: bytes) -> Optional[bytes]:
    """Map a gateway AOF record back to the client's stamped value.

    The gateway's WAL holds *command-encoded* records
    (``encode_command`` bodies), while the nemesis analyzer parses raw
    ``make_payload`` stamps — this is the ``decode`` bridge handed to
    :meth:`StreamingAnalyzer.check_recovery`.  Returns ``None`` for a
    record that is not a well-formed write command (the analyzer counts
    it torn, which is exactly right for a mangled AOF record).
    """
    try:
        command, _key, value = decode_command(bytes(record))
    except ValueError:
        return None
    if command not in WRITE_COMMANDS:
        return None
    return value
