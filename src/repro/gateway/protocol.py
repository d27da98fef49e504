"""Gateway wire protocol: length-prefixed frames over a byte stream.

The serving front door speaks a small RESP-like binary protocol whose
command dialect is :mod:`repro.db.memkv`:

* a **request frame** is ``[len u32][op u8][key_len u16][key][value]`` —
  a :func:`repro.db.memkv.encode_command` body behind a little-endian
  length prefix;
* a **reply frame** is ``[len u32][status u8][payload]`` — a
  :func:`repro.db.memkv.encode_reply` body behind the same prefix.

Both faces of the gateway (the deterministic in-engine server and the
real asyncio TCP bridge) share this module, so a byte captured on a live
socket parses identically to one on a simulated connection.

:class:`FrameDecoder` is the incremental half: feed it arbitrary chunk
boundaries (sockets fragment however they like) and it yields complete
frame bodies.  It enforces the protocol limits *before* buffering a
frame, so an adversarial length prefix cannot make the server allocate
unboundedly — the decoder raises :class:`ProtocolError` and the
connection is dropped.
"""

from __future__ import annotations

import struct

from repro.db.memkv.commands import (
    COMMAND_HEADER_BYTES,
    Command,
    Reply,
    decode_command,
    decode_reply,
    encode_command,
    encode_reply,
)

_LENGTH = struct.Struct("<I")
_PREFIX_BYTES = _LENGTH.size
_unpack_length = _LENGTH.unpack_from

#: Hard ceiling on one frame body.  Large enough for any sane payload,
#: small enough that a hostile length prefix cannot balloon a buffer.
MAX_FRAME_BYTES = 1 << 20

#: Keys above this are rejected with an ``ERR`` reply (the u16 key_len in
#: the command body allows 64 KiB; the serving limit is deliberately far
#: tighter, like Redis's 512 MB value vs. practical key limits).
MAX_KEY_BYTES = 1024


class ProtocolError(ValueError):
    """A malformed, truncated, or oversized frame; the connection dies.

    ``frames``: the whole frames :meth:`FrameDecoder.feed` cut from the
    same chunk ahead of a bad length prefix — served first, so what
    executes never depends on how the stream was fragmented."""

    def __init__(self, message: str, frames: tuple = ()) -> None:
        super().__init__(message)
        self.frames = frames


def encode_frame(body: bytes) -> bytes:
    """Wrap an encoded command/reply body in its length prefix."""
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _LENGTH.pack(len(body)) + body


def encode_request(command: Command, key: str, value: bytes = b"") -> bytes:
    """One ready-to-send request frame."""
    return encode_frame(encode_command(command, key, value))


def encode_reply_frame(reply: Reply, payload: bytes = b"") -> bytes:
    """One ready-to-send reply frame."""
    return encode_frame(encode_reply(reply, payload))


def decode_request(body: bytes) -> tuple[Command, str, bytes]:
    """Decode a request frame body; raises :class:`ProtocolError`."""
    if not body:
        raise ProtocolError("empty request frame")
    try:
        command, key, value = decode_command(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed request frame: {exc}") from None
    key_bytes = len(body) - COMMAND_HEADER_BYTES - len(value)
    if key_bytes > MAX_KEY_BYTES:
        raise ProtocolError(
            f"key of {key_bytes} bytes exceeds the "
            f"{MAX_KEY_BYTES}-byte limit")
    return command, key, value


def decode_reply_frame(body: bytes) -> tuple[Reply, bytes]:
    """Decode a reply frame body; raises :class:`ProtocolError`."""
    try:
        return decode_reply(body)
    except ValueError as exc:
        raise ProtocolError(f"malformed reply frame: {exc}") from None


class FrameDecoder:
    """Incremental frame parser over arbitrary chunk boundaries.

    ``feed(data)`` returns the list of complete frame *bodies* the new
    bytes finished; partial frames stay buffered.  The length prefix is
    validated the moment its four bytes are available, so a hostile
    prefix is rejected before any body bytes are buffered.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = b""
        self.frames_decoded = 0
        self.bytes_fed = 0

    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        self.bytes_fed += len(data)
        if self._buffer:
            data = self._buffer + data  # complete the buffered partial frame
        elif type(data) is not bytes:
            data = bytes(data)
        frames: list[bytes] = []
        off = 0
        size = len(data)
        limit = self.max_frame_bytes
        while size - off >= _PREFIX_BYTES:
            (length,) = _unpack_length(data, off)
            if length > limit:
                self.frames_decoded += len(frames)
                raise ProtocolError(
                    f"frame length prefix {length} exceeds the "
                    f"{limit}-byte limit", tuple(frames))
            end = off + _PREFIX_BYTES + length
            if end > size:
                break
            frames.append(data[off + _PREFIX_BYTES:end])
            off = end
        self.frames_decoded += len(frames)
        self._buffer = data[off:]  # only a trailing partial frame is kept
        return frames

    def at_frame_boundary(self) -> bool:
        """True when no partial frame is buffered (a clean close point)."""
        return not self._buffer
