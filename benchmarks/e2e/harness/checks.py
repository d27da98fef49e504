"""The correctness gate shared by the in-engine and the TCP clients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.db.memkv.commands import Reply, decode_value
from repro.gateway.protocol import decode_reply_frame

from harness.schedule import Request, read_version


class HarnessAbort(Exception):
    """The run cannot publish numbers (e.g. the log-wrap guard fired)."""


@dataclass
class Failures:
    """Failed operations, with the first ten kept for the report."""

    count: int = 0
    first: list = field(default_factory=list)

    def add(self, what: str, count: int = 1) -> None:
        self.count += count
        if len(self.first) < 10:
            self.first.append(what)


class ReplyChecker:
    """Checks every reply against what was sent.

    A SET must be acknowledged ``OK``; a GET must return exactly a value
    that some SET already put on the wire for that key — never a miss
    (every key read was written first), never another key's bytes.
    """

    def __init__(self) -> None:
        self.failures = Failures()
        self.sent: dict[str, set] = {}   # key -> versions put on the wire
        self.acked: set = set()          # keys with an acknowledged SET
        self.user_bytes = 0              # value bytes of acknowledged SETs
        self.set_frame_bytes = 0         # SET frame bytes put on the wire

    def sending(self, request: Request) -> None:
        if not request.is_get:
            self.sent.setdefault(request.key, set()).add(request.version)
            self.set_frame_bytes += len(request.frame)

    def reply(self, request: Request, body: bytes) -> None:
        reply, payload = decode_reply_frame(body)
        if request.is_get:
            if (reply is Reply.VALUE
                    and read_version(request.key, decode_value(payload))
                    in self.sent.get(request.key, ())):
                return
            self.failures.add(f"GET {request.key}: {reply.name} "
                              f"{payload[:24]!r} is no value sent for it")
        elif reply is Reply.OK:
            self.acked.add(request.key)
            self.user_bytes += request.size
        else:
            self.failures.add(f"SET {request.key} v{request.version}: "
                              f"{reply.name} {payload[:40]!r}")

    def verify_state(self, lookup: Callable[[str], Optional[bytes]],
                     where: str) -> int:
        """Every acknowledged key must hold a value sent for it."""
        for key in sorted(self.acked):
            if read_version(key, lookup(key)) not in self.sent[key]:
                self.failures.add(f"acked key {key} is wrong or missing "
                                  f"{where}")
        return len(self.acked)
