#!/usr/bin/env python3
"""What does one command cost the simulator on the gateway's wire path?

    python scripts/gateway_cost.py [--repeats 5] [--smoke]
    (~10 s; ``--smoke`` < 1 s, on a 2-core box)

None of this work carries a simulated cost — the model charges a flat
``PARSE_CPU`` + ``COMMAND_CPU`` per command — so it shows only on the
wall clock, on every request of four of the five benchmark workloads and
in the benchmark's own clients.  For one ``GET`` of a 6-byte key it prints

* wall ns per command of each server-side codec stage — ``feed`` →
  ``decode_request`` → route → ``encode_reply`` → ``encode_frame`` — and
  of the client's three (``encode_request``, ``feed``,
  ``decode_reply_frame``),
* wall ns of one ``SimPipe`` send → recv hand-off to a parked receiver,
* wall µs per GET end to end (client send to decoded reply, kernel
  included) on a bare default server: one idle connection, no WAL
  traffic (``perf_counter`` brackets; best of ``--repeats`` passes), and

exact counts per GET answered on an idle connection (every chunk holds
exactly one whole frame), taken on a separate pass so the wrappers that
count them are not inside a timed region:

* ``Event`` objects built in ``repro.gateway.server`` (pipes, queues and
  the coalescer; the kernel's own events are the last count),
* bytes added to a ``bytearray`` buffer — both pipes, both decoders,
* ``str.encode`` calls on the key and ``EnumType.__call__`` calls,
* kernel events.

Read-only use of ``src/``: everything is observed from outside, so the
same script runs on any commit (docs/performance.md, "Gateway wire
path", has the before/after).  The counts have ceilings: at most
``EVENTS_BUILT`` Events, no byte added to a bytearray, at most the one
key encode routing hashes, no ``EnumType.__call__``, and exactly
``KERNEL_EVENTS`` kernel events (the hand-off wakes the receiver at the
same sequence position).  Lowering a ceiling after a real cut is the
point; raising one needs the reason in the commit that does it.  The
script exits non-zero when one is broken; ``--smoke`` is the counts
alone (< 1 s), which tier-1 runs (``tests/test_meters.py``).  Copy it
with ``scripts/_meter.py`` into a parent checkout for a before/after.
"""

from __future__ import annotations

import argparse
import enum
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from _meter import best_of, exit_status, wrapped  # noqa: E402  (scripts/_meter.py)
from repro.cluster import DevicePool  # noqa: E402
from repro.db.memkv.commands import (  # noqa: E402
    Command, Reply, encode_reply, encode_value)
from repro.gateway import GatewayConfig, GatewayServer, SimPipe  # noqa: E402
from repro.gateway import server as server_module  # noqa: E402
from repro.gateway.protocol import (  # noqa: E402
    FrameDecoder, decode_reply_frame, decode_request, encode_frame,
    encode_request)
from repro.sim import Engine  # noqa: E402

KEY = "k00042"
VALUE = bytes(64)
GETS = 32
LOOPS = 20000
# Measured on the tree that introduced this script; its parent built 7
# (one admit event per lane pass), added 166 bytes to bytearrays (each
# frame entered one pipe buffer and one decoder buffer), encoded the key
# twice and went through EnumType.__call__ twice per GET.
EVENTS_BUILT = 6  # c2s send + reader recv, queue put + lane get, s2c send + client recv
KERNEL_EVENTS = 13  # tests/test_kernel_event_budget.py, gateway_get


def bare_server():
    """A started default gateway with one connection, ``KEY`` stored, and
    the round trip a client makes on it."""
    pool = DevicePool(devices=3, seed=777)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    conn = engine.run_process(server.accept())
    decoder = server_module.FrameDecoder()
    replies = []

    def roundtrip(frame):
        conn.c2s.send(frame)
        while True:
            bodies = decoder.feed((yield conn.s2c.recv(4096)))
            if bodies:
                replies.extend(decode_reply_frame(body) for body in bodies)
                return

    engine.run_process(roundtrip(encode_request(Command.SET, KEY, VALUE)))
    engine.run()
    return engine, server, conn, roundtrip, replies


# -- timings -----------------------------------------------------------------------


def per_call_ns(call, *args) -> float:
    start = perf_counter()
    for _ in range(LOOPS):
        call(*args)
    return (perf_counter() - start) / LOOPS * 1e9


def time_codec(repeats: int, server) -> tuple[dict, dict]:
    request = encode_request(Command.GET, KEY)
    body = encode_reply(Reply.VALUE, encode_value(VALUE))
    reply = encode_frame(body)
    server_side = {
        "feed": (FrameDecoder().feed, request),
        "decode_request": (decode_request, request[4:]),
        "route": (server._route_for_key, KEY),
        "encode_reply": (lambda: encode_reply(Reply.VALUE,
                                              encode_value(VALUE)),),
        "encode_frame": (encode_frame, body),
    }
    client_side = {
        "encode_request": (encode_request, Command.GET, KEY),
        "feed": (FrameDecoder().feed, reply),
        "decode_reply_frame": (decode_reply_frame, body),
    }
    return tuple({stage: best_of(repeats, lambda: per_call_ns(*call))
                  for stage, call in side.items()}
                 for side in (server_side, client_side))


def time_handoff() -> float:
    pipe = SimPipe(Engine(), 4096)
    frame = encode_request(Command.GET, KEY)
    recv, send = pipe.recv, pipe.send
    start = perf_counter()
    for _ in range(LOOPS):
        parked = recv(4096)
        send(frame)
    elapsed = perf_counter() - start
    assert parked._value == frame
    return elapsed / LOOPS * 1e9


def time_gets(gets: int = 2000) -> float:
    engine, _server, _conn, roundtrip, replies = bare_server()
    frame = encode_request(Command.GET, KEY)
    start = perf_counter()
    for _ in range(gets):
        engine.run_process(roundtrip(frame))
        engine.run()
    elapsed = perf_counter() - start
    assert replies[-1] == (Reply.VALUE, encode_value(VALUE))
    return elapsed / gets * 1e6


# -- counts ------------------------------------------------------------------------


@contextmanager
def key_encodes(counts: Counter):
    """Count ``str.encode`` calls on ``KEY`` (a C method: only the
    profile hook sees it)."""
    def hook(_frame, event, arg):
        if (event == "c_call" and getattr(arg, "__name__", "") == "encode"
                and getattr(arg, "__self__", None) == KEY):
            counts.update(key_encodes=1)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(previous)


def count_gets() -> dict:
    """The budget counts per GET on an idle connection (see the top)."""
    counts = Counter()

    class CountingBuffer(bytearray):
        """A pipe or decoder buffer that reports every byte added to it."""

        def __iadd__(self, data):
            counts.update(buffer_growth=len(data))
            return super().__iadd__(data)

        def extend(self, data):
            counts.update(buffer_growth=len(data))
            super().extend(data)

    class CountingDecoder(FrameDecoder):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            self._buffer = CountingBuffer()

    server_module.FrameDecoder = CountingDecoder
    try:
        engine, _server, conn, roundtrip, replies = bare_server()
    finally:
        server_module.FrameDecoder = FrameDecoder
    conn.c2s._buffer = CountingBuffer()
    conn.s2c._buffer = CountingBuffer()
    frame = encode_request(Command.GET, KEY)
    counts.clear()
    sequence = engine.capture_state()["sequence"]
    with (wrapped(server_module, "Event",
                  lambda _engine: counts.update(events_built=1)),
          wrapped(enum.EnumType, "__call__",
                  lambda *_a, **_k: counts.update(enum_calls=1)),
          key_encodes(counts)):
        for _ in range(GETS):
            engine.run_process(roundtrip(frame))
            engine.run()
    kernel_events = engine.capture_state()["sequence"] - sequence
    assert replies[-GETS:] == [(Reply.VALUE, encode_value(VALUE))] * GETS
    return {name: counts[name] / GETS
            for name in ("events_built", "buffer_growth", "key_encodes",
                         "enum_calls")} | {"kernel_events": kernel_events / GETS}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock cost and exact allocation/copy counts of "
                    "one command on the gateway's wire path.")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes per row, best kept (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="counts and their ceilings only (< 1 s)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if not args.smoke:
        _engine, server, _conn, _roundtrip, _replies = bare_server()
        print(f"one {len(encode_request(Command.GET, KEY))}-byte GET frame, "
              f"{len(VALUE)}-byte value; best of {args.repeats}:")
        for side, stages in zip(("server codec", "client codec"),
                                time_codec(args.repeats, server)):
            print(f"  {side}  {sum(stages.values()):8.0f} ns   ("
                  + ", ".join(f"{stage} {ns:.0f}"
                              for stage, ns in stages.items()) + ")")
        print(f"  pipe hand-off {best_of(args.repeats, time_handoff):8.0f} ns"
              "   (send to a parked receiver)")
        print(f"  GET end to end {best_of(args.repeats, time_gets):7.2f} us"
              "   (bare server, idle connection, kernel included)")

    counts = count_gets()
    print(f"one GET on an idle connection: {counts['events_built']:g} gateway "
          f"Event(s) built (ceiling {EVENTS_BUILT}), "
          f"{counts['buffer_growth']:g} bytes added to a bytearray, "
          f"{counts['key_encodes']:g} key encode(s), "
          f"{counts['enum_calls']:g} EnumType.__call__, "
          f"{counts['kernel_events']:g} kernel events")

    broken = []
    if counts["events_built"] > EVENTS_BUILT:
        broken.append("a GET builds more gateway Events than its ceiling")
    if counts["buffer_growth"]:
        broken.append("a whole-frame chunk was copied into a bytearray")
    if counts["key_encodes"] > 1:
        broken.append("the key was encoded more than once (routing needs one)")
    if counts["enum_calls"]:
        broken.append("the codec built an enum member through EnumType.__call__")
    if counts["kernel_events"] != KERNEL_EVENTS:
        broken.append(f"kernel events per GET moved from {KERNEL_EVENTS}")
    return exit_status(broken)


if __name__ == "__main__":
    sys.exit(main())
