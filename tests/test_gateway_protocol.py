"""Wire-protocol tests: frame round-trips, chunking, adversarial input."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.memkv.commands import (
    Command,
    Reply,
    decode_command,
    decode_reply,
    decode_value,
    encode_command,
    encode_reply,
)
from repro.gateway.protocol import (
    MAX_FRAME_BYTES,
    MAX_KEY_BYTES,
    FrameDecoder,
    ProtocolError,
    decode_reply_frame,
    decode_request,
    encode_frame,
    encode_reply_frame,
    encode_request,
)

REQUESTS = [
    (Command.SET, "k", b"v"),
    (Command.SET, "", b""),
    (Command.GET, "key-with-dashes", b""),
    (Command.DEL, "x" * 100, b""),
    (Command.APPEND, "log", b"\x00\xff" * 500),
    (Command.INCR, "counter", b""),
    (Command.SET, "unicode-éü", "value-☃".encode()),
    (Command.SET, "k" * MAX_KEY_BYTES, b"big" * 1000),
]

REPLIES = [
    (Reply.OK, b""),
    (Reply.OK, b"42"),
    (Reply.VALUE, b"\x00"),
    (Reply.VALUE, b"\x01" + b"payload" * 100),
    (Reply.ERR, b"value is not an integer"),
]


@pytest.mark.parametrize("command,key,value", REQUESTS)
def test_request_roundtrip(command, key, value):
    frame = encode_request(command, key, value)
    decoder = FrameDecoder()
    bodies = decoder.feed(frame)
    assert len(bodies) == 1
    assert decode_request(bodies[0]) == (command, key, value)
    assert decoder.at_frame_boundary()


@pytest.mark.parametrize("reply,payload", REPLIES)
def test_reply_roundtrip(reply, payload):
    frame = encode_reply_frame(reply, payload)
    (body,) = FrameDecoder().feed(frame)
    assert decode_reply_frame(body) == (reply, payload)


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64, 4096])
def test_decoder_reassembles_across_arbitrary_chunks(chunk_size):
    stream = b"".join(encode_request(cmd, key, value)
                      for cmd, key, value in REQUESTS)
    decoder = FrameDecoder()
    decoded = []
    for start in range(0, len(stream), chunk_size):
        for body in decoder.feed(stream[start:start + chunk_size]):
            decoded.append(decode_request(body))
    assert decoded == REQUESTS
    assert decoder.at_frame_boundary()
    assert decoder.frames_decoded == len(REQUESTS)
    assert decoder.bytes_fed == len(stream)


def test_decoder_interleaves_partial_frames():
    frame = encode_request(Command.SET, "abc", b"def")
    decoder = FrameDecoder()
    assert decoder.feed(frame[:5]) == []
    assert not decoder.at_frame_boundary()
    assert decoder.buffered_bytes() == 5
    (body,) = decoder.feed(frame[5:])
    assert decode_request(body) == (Command.SET, "abc", b"def")


def test_hostile_length_prefix_rejected_before_buffering():
    decoder = FrameDecoder()
    prefix = (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
    with pytest.raises(ProtocolError):
        decoder.feed(prefix)


def test_oversized_body_rejected_on_encode():
    with pytest.raises(ProtocolError):
        encode_frame(b"x" * (MAX_FRAME_BYTES + 1))


def test_empty_request_frame_rejected():
    with pytest.raises(ProtocolError):
        decode_request(b"")


def test_unknown_opcode_rejected():
    body = bytes([0xEE]) + (1).to_bytes(2, "little") + b"k"
    with pytest.raises(ProtocolError):
        decode_request(body)


def test_truncated_request_body_rejected():
    body = encode_command(Command.SET, "key", b"value")
    with pytest.raises(ProtocolError):
        decode_request(body[:3])  # header promises more key than present


def test_oversized_key_rejected():
    body = encode_command(Command.SET, "k" * (MAX_KEY_BYTES + 1), b"")
    with pytest.raises(ProtocolError):
        decode_request(body)


def test_malformed_reply_frame_rejected():
    with pytest.raises(ProtocolError):
        decode_reply_frame(b"")
    with pytest.raises(ProtocolError):
        decode_reply_frame(bytes([99]) + b"payload")


def test_memkv_reply_codec_roundtrip():
    for reply, payload in REPLIES:
        assert decode_reply(encode_reply(reply, payload)) == (reply, payload)


def test_decoder_max_frame_bytes_is_configurable():
    decoder = FrameDecoder(max_frame_bytes=8)
    small = encode_frame(b"tiny")
    (body,) = decoder.feed(small)
    assert body == b"tiny"
    with pytest.raises(ProtocolError):
        decoder.feed(encode_frame(b"way too big"))


# -- satellite: the served prefix of a chunk never depends on chunking --------


def test_hostile_prefix_delivers_the_frames_cut_ahead_of_it():
    good = [encode_command(Command.SET, "a", b"1"),
            encode_command(Command.GET, "a")]
    hostile = (MAX_FRAME_BYTES + 1).to_bytes(4, "little") + b"junk"
    decoder = FrameDecoder()
    with pytest.raises(ProtocolError) as caught:
        decoder.feed(b"".join(map(encode_frame, good)) + hostile)
    assert list(caught.value.frames) == good
    assert decoder.frames_decoded == 2
    assert decoder.buffered_bytes() == 0  # nothing of the bad tail is kept


def test_lone_hostile_prefix_raises_at_once_and_is_never_buffered():
    decoder = FrameDecoder()
    with pytest.raises(ProtocolError) as caught:
        decoder.feed((1 << 30).to_bytes(4, "little"))
    assert caught.value.frames == ()
    assert decoder.buffered_bytes() == 0


# -- oracles: the decoder and codec before the by-offset rewrite, verbatim ----
#
# Kept here, not in ``src/``, as the reference the replacement must match:
# same frames, same counters, same decoded tuples, same error *messages*,
# for any fragmentation and any bytes-like input.  The one allowed
# difference is ``ProtocolError.frames`` (the test above).

_HEADER = struct.Struct("<BH")
_REPLY_HEADER = struct.Struct("<B")
_LENGTH = struct.Struct("<I")


class OracleDecoder:
    def __init__(self, max_frame_bytes=MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_fed = 0

    def buffered_bytes(self):
        return len(self._buffer)

    def feed(self, data):
        self.bytes_fed += len(data)
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise ProtocolError(
                    f"frame length prefix {length} exceeds the "
                    f"{self.max_frame_bytes}-byte limit")
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[_LENGTH.size:end]))
            del self._buffer[:end]
            self.frames_decoded += 1
        return frames

    def at_frame_boundary(self):
        return not self._buffer


def oracle_encode_command(command, key, value=b""):
    key_bytes = key.encode()
    if len(key_bytes) > 0xFFFF:
        raise ValueError(f"key too long: {len(key_bytes)} bytes")
    return _HEADER.pack(command.value, len(key_bytes)) + key_bytes + value


def oracle_decode_command(data):
    if len(data) < _HEADER.size:
        raise ValueError("truncated AOF command")
    op, key_len = _HEADER.unpack_from(data)
    key_end = _HEADER.size + key_len
    if key_end > len(data):
        raise ValueError("truncated AOF key")
    try:
        command = Command(op)
    except ValueError:
        raise ValueError(f"unknown command opcode {op}") from None
    key = data[_HEADER.size:key_end].decode()
    return command, key, bytes(data[key_end:])


def oracle_encode_reply(reply, payload=b""):
    return _REPLY_HEADER.pack(reply.value) + payload


def oracle_decode_reply(data):
    if len(data) < _REPLY_HEADER.size:
        raise ValueError("truncated reply")
    (status,) = _REPLY_HEADER.unpack_from(data)
    try:
        reply = Reply(status)
    except ValueError:
        raise ValueError(f"unknown reply status {status}") from None
    return reply, bytes(data[_REPLY_HEADER.size:])


def oracle_decode_value(payload):
    if not payload:
        raise ValueError("VALUE payload missing its presence flag")
    if payload[0] == 0:
        if len(payload) != 1:
            raise ValueError("VALUE miss carries trailing bytes")
        return None
    if payload[0] != 1:
        raise ValueError(f"unknown VALUE presence flag {payload[0]}")
    return bytes(payload[1:])


def oracle_decode_request(body):
    if not body:
        raise ProtocolError("empty request frame")
    try:
        command, key, value = oracle_decode_command(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed request frame: {exc}") from None
    if len(key.encode()) > MAX_KEY_BYTES:
        raise ProtocolError(
            f"key of {len(key.encode())} bytes exceeds the "
            f"{MAX_KEY_BYTES}-byte limit")
    return command, key, value


def oracle_decode_reply_frame(body):
    try:
        return oracle_decode_reply(body)
    except ValueError as exc:
        raise ProtocolError(f"malformed reply frame: {exc}") from None


def outcome(call, *args):
    """What a call gave, with the type of every part, or how it failed."""
    try:
        result = call(*args)
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome
        return type(exc).__name__, str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return "ok", [(type(part).__name__, part) for part in parts]


FRAME_LIMIT = 2048  # the decoders under test; MAX_FRAME_BYTES only costs time
KEYS = (st.text(max_size=12) | st.just("k" * MAX_KEY_BYTES)
        | st.just("é" * (MAX_KEY_BYTES // 2 + 1)))
VALUES = st.binary(max_size=40)
REQUEST_BODIES = st.builds(oracle_encode_command,
                           st.sampled_from(list(Command)), KEYS, VALUES)
REPLY_BODIES = st.builds(oracle_encode_reply,
                         st.sampled_from(list(Reply)), VALUES)
BODIES = (REQUEST_BODIES | REPLY_BODIES | st.just(b"")
          | st.just(bytes(FRAME_LIMIT)))
BYTES_LIKE = st.sampled_from([bytes, bytearray, memoryview])


def framed(body):
    return _LENGTH.pack(len(body)) + body


@st.composite
def chunked_streams(draw):
    """Whole frames, then nothing / a hostile prefix with junk behind it /
    a truncated frame; cut at arbitrary points into bytes-like chunks."""
    bodies = draw(st.lists(BODIES, max_size=6))
    tail = draw(st.sampled_from(["none", "hostile", "truncated"]))
    stream = b"".join(map(framed, bodies))
    if tail == "hostile":
        stream += _LENGTH.pack(draw(st.integers(FRAME_LIMIT + 1, 2**32 - 1)))
        stream += draw(st.binary(max_size=8))
    elif tail == "truncated":
        last = framed(draw(REQUEST_BODIES))
        stream += last[:draw(st.integers(0, len(last) - 1))]
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=8)))
    chunks = [draw(BYTES_LIKE)(stream[start:end])
              for start, end in zip([0, *cuts], [*cuts, len(stream)])]
    return bodies, chunks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chunked_streams())
def test_decoder_matches_the_oracle_for_any_fragmentation(case):
    bodies, chunks = case
    decoder, oracle = FrameDecoder(FRAME_LIMIT), OracleDecoder(FRAME_LIMIT)
    delivered = []
    for chunk in chunks:
        cut_before = oracle.frames_decoded
        try:
            expected = oracle.feed(chunk)
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as caught:
                decoder.feed(chunk)
            assert str(caught.value) == str(exc)
            # The oracle dropped what it had cut from this chunk; the
            # decoder hands exactly those frames over with the error.
            delivered += caught.value.frames
            assert len(caught.value.frames) == oracle.frames_decoded - cut_before
            assert decoder.frames_decoded == oracle.frames_decoded
            assert decoder.bytes_fed == oracle.bytes_fed
            break
        frames = decoder.feed(chunk)
        assert frames == expected
        assert all(type(frame) is bytes for frame in frames)
        assert decoder.buffered_bytes() == oracle.buffered_bytes()
        assert decoder.at_frame_boundary() == oracle.at_frame_boundary()
        assert decoder.frames_decoded == oracle.frames_decoded
        assert decoder.bytes_fed == oracle.bytes_fed
        delivered += frames
    assert delivered == bodies[:len(delivered)]
    assert len(delivered) == oracle.frames_decoded


MALFORMED = st.binary(max_size=12) | st.builds(
    lambda body, cut: body[:cut], REQUEST_BODIES, st.integers(0, 8))
NOT_UTF8 = st.just(_HEADER.pack(Command.SET.value, 2) + b"\xff\xfe" + b"v")
DECODERS = [
    (decode_command, oracle_decode_command),
    (decode_request, oracle_decode_request),
    (decode_reply, oracle_decode_reply),
    (decode_reply_frame, oracle_decode_reply_frame),
    (decode_value, oracle_decode_value),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(REQUEST_BODIES | REPLY_BODIES | MALFORMED | NOT_UTF8, BYTES_LIKE)
def test_codec_decoders_match_the_oracle(body, bytes_like):
    for decode, oracle in DECODERS:
        assert (outcome(decode, bytes_like(body))
                == outcome(oracle, bytes_like(body))), decode.__name__


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(list(Command)), KEYS | st.just("k" * 0x10000),
       st.sampled_from(list(Reply)), VALUES, BYTES_LIKE)
def test_codec_encoders_match_the_oracle(command, key, reply, value, bytes_like):
    assert (outcome(encode_command, command, key, bytes_like(value))
            == outcome(oracle_encode_command, command, key, bytes_like(value)))
    assert (outcome(encode_reply, reply, bytes_like(value))
            == outcome(oracle_encode_reply, reply, bytes_like(value)))
