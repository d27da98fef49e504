"""AOF command wire format and the typed reply frames.

Redis's AOF logs every write command it executes; replaying the file
rebuilds the dataset.  We encode commands as
``[op u8][key_len u16][key][value]`` — compact enough that the AOF record
size tracks the payload size, which is what Fig. 9(c)'s payload sweep
measures.

The same command encoding doubles as the request body of the gateway
wire protocol (:mod:`repro.gateway.protocol` adds the length-prefixed
framing), which is why :class:`Command` also carries the read op ``GET``
— reads flow over the wire but are never appended to the AOF.  Replies
travel as ``[status u8][payload]``: ``OK`` for acknowledged writes,
``VALUE`` for read results (with a one-byte presence flag so an empty
value and a missing key stay distinguishable), ``ERR`` for protocol or
execution errors with a human-readable message payload.
"""

from __future__ import annotations

import enum
import struct
from typing import Optional

_HEADER = struct.Struct("<BH")
COMMAND_HEADER_BYTES = _HEADER.size


class Command(enum.Enum):
    SET = 1
    DEL = 2
    APPEND = 3
    INCR = 4
    GET = 5


#: Commands that mutate the store and therefore reach the AOF.  ``GET``
#: is wire-only: recovery never sees it.
WRITE_COMMANDS = frozenset({Command.SET, Command.DEL, Command.APPEND,
                            Command.INCR})


class Reply(enum.Enum):
    """Typed reply frames the gateway sends back over the wire."""

    OK = 1
    VALUE = 2
    ERR = 3


# The codec runs per served command: plain dict lookups, not
# ``Enum.__call__`` / ``.value`` (a DynamicClassAttribute) / ``struct``.
_COMMAND_OF = {command.value: command for command in Command}
_OPCODE_OF = {command: command.value for command in Command}
_REPLY_OF = {reply.value: reply for reply in Reply}
_STATUS_OF = {reply: bytes([reply.value]) for reply in Reply}


def encode_command(command: Command, key: str, value: bytes = b"") -> bytes:
    key_bytes = key.encode()
    if len(key_bytes) > 0xFFFF:
        raise ValueError(f"key too long: {len(key_bytes)} bytes")
    return _HEADER.pack(_OPCODE_OF[command], len(key_bytes)) + key_bytes + value


def decode_command(data: bytes) -> tuple[Command, str, bytes]:
    if len(data) < _HEADER.size:
        raise ValueError("truncated AOF command")
    op, key_len = _HEADER.unpack_from(data)
    key_end = _HEADER.size + key_len
    if key_end > len(data):
        raise ValueError("truncated AOF key")
    command = _COMMAND_OF.get(op)
    if command is None:
        raise ValueError(f"unknown command opcode {op}")
    value = data[key_end:]
    return (command, data[_HEADER.size:key_end].decode(),
            value if type(value) is bytes else bytes(value))


def validate(data: dict, command: Command, key: str) -> None:
    """Raise ``ValueError`` if ``command`` cannot apply to ``data`` — run
    it *before* logging: a record that cannot apply must never reach the
    AOF, or every replay of it would fail too."""
    if command is Command.INCR:
        try:
            int(data.get(key, b"0"))
        except ValueError:
            raise ValueError("value is not an integer") from None


def apply(data: dict, command: Command, key: str, value: bytes) -> bytes:
    """Apply one validated write command to ``data``; returns the key's
    new value (``value`` itself for SET and DEL)."""
    if command is Command.SET:
        data[key] = value
    elif command is Command.DEL:
        data.pop(key, None)
    elif command is Command.APPEND:
        data[key] = value = data.get(key, b"") + value
    elif command is Command.INCR:
        data[key] = value = str(int(data.get(key, b"0")) + 1).encode()
    else:
        raise ValueError(f"not a write command: {command}")
    return value


def encode_reply(reply: Reply, payload: bytes = b"") -> bytes:
    """One reply body: ``[status u8][payload]`` (framing is the caller's)."""
    return _STATUS_OF[reply] + payload


def decode_reply(data: bytes) -> tuple[Reply, bytes]:
    if len(data) < 1:
        raise ValueError("truncated reply")
    reply = _REPLY_OF.get(data[0])
    if reply is None:
        raise ValueError(f"unknown reply status {data[0]}")
    payload = data[1:]
    return reply, payload if type(payload) is bytes else bytes(payload)


def encode_value(value: Optional[bytes]) -> bytes:
    """``VALUE`` payload: ``\\x01`` + bytes for a hit, ``\\x00`` for a miss
    (an empty value and a missing key must stay distinguishable)."""
    if value is None:
        return b"\x00"
    return b"\x01" + value


def decode_value(payload: bytes) -> Optional[bytes]:
    if not payload:
        raise ValueError("VALUE payload missing its presence flag")
    if payload[0] == 0:
        if len(payload) != 1:
            raise ValueError("VALUE miss carries trailing bytes")
        return None
    if payload[0] != 1:
        raise ValueError(f"unknown VALUE presence flag {payload[0]}")
    value = payload[1:]
    return value if type(value) is bytes else bytes(value)
