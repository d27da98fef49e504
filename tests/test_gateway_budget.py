"""Wire-path work per served GET, pinned as exact counts.

Nothing the gateway does to frame, decode, route or hand a command over
carries a simulated cost — the model charges a flat ``PARSE_CPU`` +
``COMMAND_CPU`` — so the model cannot see it and only the wall clock
pays, on every request of four of the five benchmark workloads.  What it
may cost is therefore fixed here as counts that repeat exactly, taken by
wrapping from outside, so a re-buffering decoder, an ``Enum.__call__`` or
an event per lane pass that creeps back fails tier-1 instead of waiting
for the benchmark (``scripts/gateway_cost.py`` prints the same counts
with the wall-clock cost beside them).

Scenario: a bare default server, one connection, the key stored once;
then GETs one at a time, each answered before the next is sent — an idle
connection, so every chunk holds exactly one whole frame.  Per GET:

* ``Event`` objects built in ``repro.gateway.server`` (pipes, queues,
  coalescer): a ceiling measured on this tree (the tree before it: 7,
  one admit event per lane pass);
* bytes added to a ``bytearray`` — both pipes, the server's decoder and
  the client's: none (before: 166, each frame entered one pipe buffer
  and one decoder buffer);
* ``str.encode`` calls on the key: at most the one routing hashes
  (before: 2); ``EnumType.__call__`` calls: none (before: 2);
* kernel events: the ``tests/test_kernel_event_budget.py`` figure, not
  moved — the hand-off wakes the receiver at the same sequence position.

Ceilings are budgets: lowering one after a real cut is the point, raising
one needs the reason in the commit that does it.
"""

import enum
import sys
from collections import Counter

import pytest

from repro.cluster import DevicePool
from repro.db.memkv.commands import Command, Reply, encode_value
from repro.gateway import GatewayConfig, GatewayServer, encode_request
from repro.gateway import server as server_module
from repro.gateway.protocol import FrameDecoder, decode_reply_frame

pytestmark = pytest.mark.oracle

GETS = 16
KEY = "k00042"
VALUE = bytes(64)
EVENTS_BUILT = 6    # c2s send + reader recv, queue put + lane get, s2c send + client recv
KERNEL_EVENTS = 13  # tests/test_kernel_event_budget.py, gateway_get


def test_one_get_on_an_idle_connection_within_budget(monkeypatch):
    counts = Counter()

    class CountingBuffer(bytearray):
        def __iadd__(self, data):
            counts["buffer_growth"] += len(data)
            return super().__iadd__(data)

        def extend(self, data):
            counts["buffer_growth"] += len(data)
            super().extend(data)

    class CountingDecoder(FrameDecoder):
        def __init__(self, *args):
            super().__init__(*args)
            self._buffer = CountingBuffer()

    monkeypatch.setattr(server_module, "FrameDecoder", CountingDecoder)
    pool = DevicePool(devices=3, seed=777)
    engine = pool.engine
    server = GatewayServer(pool, GatewayConfig())
    engine.run_process(server.start())
    conn = engine.run_process(server.accept())
    conn.c2s._buffer, conn.s2c._buffer = CountingBuffer(), CountingBuffer()
    decoder = CountingDecoder()
    replies = []

    def roundtrip(frame):
        conn.c2s.send(frame)
        bodies = decoder.feed((yield conn.s2c.recv(4096)))
        replies.extend(map(decode_reply_frame, bodies))

    engine.run_process(roundtrip(encode_request(Command.SET, KEY, VALUE)))
    engine.run()
    frame = encode_request(Command.GET, KEY)
    build_event = server_module.Event
    enum_call = enum.EnumType.__call__

    def counting_event(kernel):
        counts["events_built"] += 1
        return build_event(kernel)

    def counting_enum_call(cls, *args, **kwargs):
        counts["enum_calls"] += 1
        return enum_call(cls, *args, **kwargs)

    def profile(_frame, event, arg):
        # str.encode is a C method: only the profile hook sees it called.
        if (event == "c_call" and getattr(arg, "__name__", "") == "encode"
                and getattr(arg, "__self__", None) == KEY):
            counts["key_encodes"] += 1

    monkeypatch.setattr(server_module, "Event", counting_event)
    monkeypatch.setattr(enum.EnumType, "__call__", counting_enum_call)
    counts.clear()
    del replies[:]
    sequence = engine.capture_state()["sequence"]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _ in range(GETS):
            engine.run_process(roundtrip(frame))
            engine.run()
    finally:
        sys.setprofile(previous)
    kernel_events = engine.capture_state()["sequence"] - sequence

    assert replies == [(Reply.VALUE, encode_value(VALUE))] * GETS
    assert counts["events_built"] <= EVENTS_BUILT * GETS, (
        f"{counts['events_built'] / GETS} gateway Events per GET, budget "
        f"{EVENTS_BUILT} — an event built only to ask a yes/no question? "
        "(scripts/gateway_cost.py)")
    assert counts["buffer_growth"] == 0, (
        f"{counts['buffer_growth'] / GETS} bytes per GET copied into a "
        "bytearray although every chunk held one whole frame")
    assert counts["key_encodes"] <= GETS, "routing needs the one encode"
    assert counts["enum_calls"] == 0, "the codec looks members up in tables"
    assert kernel_events == KERNEL_EVENTS * GETS
