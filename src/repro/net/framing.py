"""Typed message framing for the multi-process dataplane.

The process backend (:mod:`repro.proc`) speaks one duplex TCP stream per
worker, multiplexing data tuples, acknowledgements-by-result, and the
liveness heartbeat on the same channel — heartbeats piggyback on the data
connection instead of requiring a side channel, so a wedged data socket
*is* a missed heartbeat (the failure modes cannot diverge).

Every message is a fixed 5-byte header (``type: u8``, ``length: u32``,
network byte order) followed by ``length`` payload bytes. The payload
layouts are tiny ``struct`` packs; bodies beyond the fixed fields (the
tuple payload proper) ride as raw trailing bytes.

The hot path ships *runs*, not tuples: ``DATA_BATCH`` and
``RESULT_BATCH`` carry a whole run of sequenced tuples in one frame,
laid out as columns (the :class:`~repro.streams.tuples.TupleBlock`
idiom taken to the wire) — a base sequence number plus contiguous
seq-delta / cost / body-length columns and the concatenated bodies,
packed with a handful of ``struct`` calls and zero pickling. One frame
per run collapses the per-tuple header + ``sendall`` overhead that
made the unbatched process backend scale negatively, and the single
cumulative ``RESULT_BATCH`` per serviced run halves the frame count
again versus one ack per tuple. ``DATA``/``RESULT`` remain the
``batch_size=1`` wire format, byte-identical to the pre-batching
protocol.

:class:`MessageAssembler` reassembles messages from arbitrary chunk
boundaries — a 1-byte-at-a-time feed yields exactly the same messages as
a single feed of the concatenation — and :meth:`MessageAssembler.eof`
turns a connection that died mid-message into a clean
:class:`TruncatedStreamError` instead of a silently dropped tail.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

__all__ = [
    "MSG_HELLO",
    "MSG_DATA",
    "MSG_RESULT",
    "MSG_HEARTBEAT",
    "MSG_CONTROL",
    "MSG_EOS",
    "MSG_BYE",
    "MSG_DATA_BATCH",
    "MSG_RESULT_BATCH",
    "Message",
    "MessageAssembler",
    "TruncatedStreamError",
    "encode",
    "encode_hello",
    "encode_data",
    "encode_result",
    "encode_heartbeat",
    "encode_control",
    "encode_eos",
    "encode_bye",
    "encode_data_batch",
    "encode_result_batch",
]

#: Worker -> parent, first message on every (re)connect: who am I.
MSG_HELLO = 1
#: Parent -> worker: one sequenced tuple to process.
MSG_DATA = 2
#: Worker -> parent: one processed tuple (doubles as the ack).
MSG_RESULT = 3
#: Worker -> parent: periodic liveness beacon on the data channel.
MSG_HEARTBEAT = 4
#: Parent -> worker: runtime control (service-time multiplier).
MSG_CONTROL = 5
#: Parent -> worker: no more data; drain and exit cleanly.
MSG_EOS = 6
#: Worker -> parent: drained and exiting (response to EOS / SIGTERM).
MSG_BYE = 7
#: Parent -> worker: a run of sequenced tuples in one columnar frame.
MSG_DATA_BATCH = 8
#: Worker -> parent: one cumulative ack covering a run of results.
MSG_RESULT_BATCH = 9

_KNOWN_TYPES = frozenset(
    (MSG_HELLO, MSG_DATA, MSG_RESULT, MSG_HEARTBEAT, MSG_CONTROL,
     MSG_EOS, MSG_BYE, MSG_DATA_BATCH, MSG_RESULT_BATCH)
)

_HEADER = struct.Struct("!BI")
HEADER_SIZE = _HEADER.size

_HELLO = struct.Struct("!II")        # worker_id, incarnation
_DATA = struct.Struct("!Qd")         # seq, cost_seconds
_RESULT = struct.Struct("!Qd")       # seq, measured_service_seconds
_HEARTBEAT = struct.Struct("!QI")    # processed_total, incarnation
_CONTROL = struct.Struct("!d")       # service-time multiplier
_BYE = struct.Struct("!Q")           # processed_total

#: Batch frame layout (DATA_BATCH and RESULT_BATCH share it):
#: ``!QI`` base_seq + count, then three contiguous columns — ``count``
#: u32 seq deltas off the base, ``count`` f64 values (cost seconds on
#: the way out, measured service seconds on the way back), ``count``
#: u32 body lengths — then the bodies, concatenated in entry order.
_BATCH_HDR = struct.Struct("!QI")    # base_seq, count
#: Seq deltas within one run are bounded by the outstanding window
#: spread (a few thousand at most), so a u32 delta column is 4 bytes
#: per tuple cheaper than raw u64 seqs with headroom to spare.
_MAX_SEQ_DELTA = 0xFFFFFFFF

#: Hard cap on a single message payload: anything larger is a corrupt
#: header (a desynchronized stream read as a length), not a real frame.
MAX_PAYLOAD = 16 * 1024 * 1024


class TruncatedStreamError(ConnectionError):
    """The stream ended (or desynchronized) mid-message."""


class Message:
    """One decoded wire message: a type tag and its raw payload."""

    __slots__ = ("type", "payload")

    def __init__(self, type: int, payload: bytes) -> None:
        self.type = type
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message(type={self.type}, payload={self.payload!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Message)
            and self.type == other.type
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.type, self.payload))

    # ------------------------------------------------------------- decoding

    def hello(self) -> tuple[int, int]:
        """``(worker_id, incarnation)`` of a HELLO."""
        return _HELLO.unpack(self.payload)

    def data(self) -> tuple[int, float, bytes]:
        """``(seq, cost_seconds, body)`` of a DATA."""
        seq, cost = _DATA.unpack_from(self.payload)
        return seq, cost, self.payload[_DATA.size:]

    def result(self) -> tuple[int, float, bytes]:
        """``(seq, service_seconds, body)`` of a RESULT."""
        seq, service = _RESULT.unpack_from(self.payload)
        return seq, service, self.payload[_RESULT.size:]

    def heartbeat(self) -> tuple[int, int]:
        """``(processed_total, incarnation)`` of a HEARTBEAT."""
        return _HEARTBEAT.unpack(self.payload)

    def control(self) -> float:
        """The service-time multiplier of a CONTROL."""
        return _CONTROL.unpack(self.payload)[0]

    def data_batch(self) -> list[tuple[int, float, bytes]]:
        """``[(seq, cost_seconds, body), ...]`` of a DATA_BATCH."""
        return _decode_batch(self.payload)

    def result_batch(self) -> list[tuple[int, float, bytes]]:
        """``[(seq, service_seconds, body), ...]`` of a RESULT_BATCH."""
        return _decode_batch(self.payload)


def encode(type: int, payload: bytes = b"") -> bytes:
    """Frame one message: header + payload."""
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD"
        )
    return _HEADER.pack(type, len(payload)) + payload


def encode_hello(worker_id: int, incarnation: int) -> bytes:
    return encode(MSG_HELLO, _HELLO.pack(worker_id, incarnation))


def encode_data(seq: int, cost_seconds: float, body: bytes = b"") -> bytes:
    return encode(MSG_DATA, _DATA.pack(seq, cost_seconds) + body)


def encode_result(
    seq: int, service_seconds: float, body: bytes = b""
) -> bytes:
    return encode(MSG_RESULT, _RESULT.pack(seq, service_seconds) + body)


def encode_heartbeat(processed_total: int, incarnation: int) -> bytes:
    return encode(MSG_HEARTBEAT, _HEARTBEAT.pack(processed_total, incarnation))


def encode_control(multiplier: float) -> bytes:
    return encode(MSG_CONTROL, _CONTROL.pack(multiplier))


def encode_eos() -> bytes:
    return encode(MSG_EOS)


def encode_bye(processed_total: int) -> bytes:
    return encode(MSG_BYE, _BYE.pack(processed_total))


def _encode_batch(
    mtype: int, entries: "Sequence[tuple[int, float, bytes]]"
) -> bytes:
    """Pack a run of ``(seq, value, body)`` entries as one columnar frame."""
    count = len(entries)
    if count == 0:
        raise ValueError("a batch frame needs at least one entry")
    base = min(entry[0] for entry in entries)
    deltas = []
    values = []
    lengths = []
    bodies = []
    for seq, value, body in entries:
        delta = seq - base
        if delta > _MAX_SEQ_DELTA:
            raise ValueError(
                f"seq spread {delta} overflows the u32 delta column"
            )
        deltas.append(delta)
        values.append(value)
        lengths.append(len(body))
        bodies.append(body)
    payload = b"".join((
        _BATCH_HDR.pack(base, count),
        struct.pack(f"!{count}I", *deltas),
        struct.pack(f"!{count}d", *values),
        struct.pack(f"!{count}I", *lengths),
        *bodies,
    ))
    return encode(mtype, payload)


def _decode_batch(payload: bytes) -> list[tuple[int, float, bytes]]:
    """Unpack one columnar batch frame back into ``(seq, value, body)``."""
    try:
        base, count = _BATCH_HDR.unpack_from(payload)
    except struct.error as exc:
        raise TruncatedStreamError(
            f"batch frame header truncated: {exc}"
        ) from None
    if count == 0:
        raise TruncatedStreamError("batch frame with zero entries")
    offset = _BATCH_HDR.size
    try:
        deltas = struct.unpack_from(f"!{count}I", payload, offset)
        offset += 4 * count
        values = struct.unpack_from(f"!{count}d", payload, offset)
        offset += 8 * count
        lengths = struct.unpack_from(f"!{count}I", payload, offset)
        offset += 4 * count
    except struct.error as exc:
        raise TruncatedStreamError(
            f"batch frame columns truncated: {exc}"
        ) from None
    out = []
    for i in range(count):
        end = offset + lengths[i]
        out.append((base + deltas[i], values[i], payload[offset:end]))
        offset = end
    if offset != len(payload):
        raise TruncatedStreamError(
            f"batch frame bodies mismatch: consumed {offset} of "
            f"{len(payload)} payload bytes"
        )
    return out


def encode_data_batch(
    entries: "Sequence[tuple[int, float, bytes]]"
) -> bytes:
    """Frame a run of ``(seq, cost_seconds, body)`` tuples."""
    return _encode_batch(MSG_DATA_BATCH, entries)


def encode_result_batch(
    entries: "Sequence[tuple[int, float, bytes]]"
) -> bytes:
    """Frame one cumulative ack run of ``(seq, service_seconds, body)``."""
    return _encode_batch(MSG_RESULT_BATCH, entries)


class MessageAssembler:
    """Reassembles typed messages from arbitrary received chunks.

    Every complete message is consumed per feed and only the sub-message
    leftover stays buffered, so bytes copied stay linear in bytes
    received. Frames are variable-length (header-prefixed), and the
    assembler validates headers as it goes: an unknown type byte or an
    absurd length means the stream desynchronized, which raises
    :class:`TruncatedStreamError` immediately rather than waiting forever
    for a frame that will never complete.
    """

    __slots__ = ("messages", "_buffer", "_closed")

    def __init__(self) -> None:
        #: Whole messages consumed so far.
        self.messages = 0
        self._buffer = bytearray()
        self._closed = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete message."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[Message]:
        """Absorb ``chunk``; return every message it completed, in order."""
        if self._closed:
            raise TruncatedStreamError("feed after eof()")
        buffer = self._buffer
        buffer += chunk
        out: list[Message] = []
        offset = 0
        available = len(buffer)
        while available - offset >= HEADER_SIZE:
            mtype, length = _HEADER.unpack_from(buffer, offset)
            if mtype not in _KNOWN_TYPES or length > MAX_PAYLOAD:
                raise TruncatedStreamError(
                    f"desynchronized stream: type={mtype} length={length}"
                )
            end = offset + HEADER_SIZE + length
            if end > available:
                break
            out.append(
                Message(mtype, bytes(buffer[offset + HEADER_SIZE:end]))
            )
            offset = end
        if offset:
            del buffer[:offset]
            self.messages += len(out)
        return out

    def eof(self) -> None:
        """Declare the stream ended; raises if a partial message remains.

        A clean close lands exactly on a message boundary. EOF mid-header
        or mid-payload means the peer died while writing — the caller gets
        a :class:`TruncatedStreamError` naming how many bytes were
        stranded instead of a silently vanished tail.
        """
        self._closed = True
        if self._buffer:
            raise TruncatedStreamError(
                f"stream ended mid-message with {len(self._buffer)} "
                f"bytes stranded after {self.messages} complete messages"
            )
