"""CLI and TCP-face tests: ``repro serve``."""

import socket
import threading
import time

from repro.cli import main
from repro.db.memkv.commands import Command, Reply
from repro.gateway.protocol import (
    FrameDecoder,
    decode_reply_frame,
    encode_request,
)
from repro.gateway.tcp import serve_forever


def test_serve_bind_failure_exits_cleanly(capsys):
    """An occupied port is an operational error: status 2, one stderr
    line, no traceback."""
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    blocker.listen(1)
    try:
        status = main(["serve", "--port", str(port), "--nodes", "2"])
    finally:
        blocker.close()
    assert status == 2
    err = capsys.readouterr().err
    assert "cannot bind" in err
    assert "Traceback" not in err


def test_serve_roundtrip_over_real_tcp():
    """The asyncio bridge serves the wire protocol on a real socket."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    thread = threading.Thread(
        target=serve_forever, args=("127.0.0.1", port),
        kwargs={"nodes": 2, "seed": 7}, daemon=True)
    thread.start()
    deadline = time.time() + 15
    conn = None
    while time.time() < deadline:
        try:
            conn = socket.create_connection(("127.0.0.1", port), timeout=1.0)
            break
        except OSError:
            time.sleep(0.05)
    assert conn is not None, "gateway never started listening"
    try:
        conn.sendall(encode_request(Command.SET, "greeting", b"hello"))
        conn.sendall(encode_request(Command.GET, "greeting"))
        conn.sendall(encode_request(Command.INCR, "hits"))
        decoder = FrameDecoder()
        replies = []
        conn.settimeout(10.0)
        while len(replies) < 3:
            data = conn.recv(4096)
            assert data, "server hung up mid-reply"
            for body in decoder.feed(data):
                replies.append(decode_reply_frame(body))
    finally:
        conn.close()
    assert replies[0] == (Reply.OK, b"")
    assert replies[1] == (Reply.VALUE, b"\x01hello")
    assert replies[2] == (Reply.OK, b"1")

