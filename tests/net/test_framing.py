"""Unit tests for the typed message framing and torn-frame edges.

Covers :class:`repro.net.framing.MessageAssembler` (variable-length
typed messages, the process dataplane's wire format), the one frame
assembler. The torn-frame cases — EOF mid-header, EOF mid-payload,
1-byte-at-a-time feeds — must either yield exactly the frames that were
sent or raise a clean truncated-stream error; silent tail loss is the
bug these tests pin down.
"""

import struct

import pytest

from repro.net import framing
from repro.net.framing import (
    MessageAssembler,
    TruncatedStreamError,
)


def _all_messages() -> list[bytes]:
    return [
        framing.encode_hello(3, 7),
        framing.encode_data(42, 0.125, b"payload"),
        framing.encode_result(42, 0.5, b"payload"),
        framing.encode_heartbeat(100, 7),
        framing.encode_control(2.5),
        framing.encode_eos(),
        framing.encode_bye(100),
        framing.encode_data_batch([(7, 0.25, b"a"), (9, 0.5, b"bb")]),
        framing.encode_result_batch([(7, 0.25, b"a"), (9, 0.5, b"bb")]),
    ]


class TestMessageRoundTrip:
    def test_every_type_round_trips(self):
        assembler = MessageAssembler()
        messages = assembler.feed(b"".join(_all_messages()))
        assert [m.type for m in messages] == [
            framing.MSG_HELLO,
            framing.MSG_DATA,
            framing.MSG_RESULT,
            framing.MSG_HEARTBEAT,
            framing.MSG_CONTROL,
            framing.MSG_EOS,
            framing.MSG_BYE,
            framing.MSG_DATA_BATCH,
            framing.MSG_RESULT_BATCH,
        ]
        assert messages[0].hello() == (3, 7)
        assert messages[1].data() == (42, 0.125, b"payload")
        assert messages[2].result() == (42, 0.5, b"payload")
        assert messages[3].heartbeat() == (100, 7)
        assert messages[4].control() == 2.5
        assert messages[5].payload == b""
        assert int.from_bytes(messages[6].payload, "big") == 100
        assert messages[7].data_batch() == [(7, 0.25, b"a"), (9, 0.5, b"bb")]
        assert messages[8].result_batch() == [(7, 0.25, b"a"), (9, 0.5, b"bb")]

    def test_one_byte_at_a_time_yields_identical_messages(self):
        wire = b"".join(_all_messages())
        whole = MessageAssembler().feed(wire)
        dribble = MessageAssembler()
        out = []
        for i in range(len(wire)):
            out.extend(dribble.feed(wire[i:i + 1]))
        assert out == whole
        dribble.eof()  # clean boundary: no complaint

    def test_random_chunk_boundaries(self):
        wire = b"".join(_all_messages()) * 3
        whole = MessageAssembler().feed(wire)
        for step in (2, 3, 5, 7, 11):
            assembler = MessageAssembler()
            out = []
            for i in range(0, len(wire), step):
                out.extend(assembler.feed(wire[i:i + step]))
            assert out == whole, f"chunk step {step} diverged"

    def test_counts_and_pending(self):
        assembler = MessageAssembler()
        frame = framing.encode_data(1, 0.0, b"x" * 10)
        assembler.feed(frame[:7])
        assert assembler.messages == 0
        assert assembler.pending_bytes == 7
        assembler.feed(frame[7:])
        assert assembler.messages == 1
        assert assembler.pending_bytes == 0


class TestMessageAssemblerTruncation:
    def test_eof_mid_header_raises(self):
        assembler = MessageAssembler()
        assembler.feed(framing.encode_eos() + b"\x02\x00")
        with pytest.raises(TruncatedStreamError, match="2 bytes stranded"):
            assembler.eof()

    def test_eof_mid_payload_raises(self):
        assembler = MessageAssembler()
        frame = framing.encode_data(9, 1.0, b"abcdef")
        assembler.feed(frame[:-1])
        with pytest.raises(
            TruncatedStreamError, match="after 0 complete messages"
        ):
            assembler.eof()

    def test_eof_on_boundary_is_clean(self):
        assembler = MessageAssembler()
        assembler.feed(framing.encode_bye(5))
        assembler.eof()

    def test_feed_after_eof_raises(self):
        assembler = MessageAssembler()
        assembler.eof()
        with pytest.raises(TruncatedStreamError, match="feed after eof"):
            assembler.feed(b"x")

    def test_unknown_type_byte_is_desync(self):
        assembler = MessageAssembler()
        with pytest.raises(TruncatedStreamError, match="desynchronized"):
            assembler.feed(struct.pack("!BI", 99, 4) + b"oops")

    def test_absurd_length_is_desync(self):
        assembler = MessageAssembler()
        header = struct.pack(
            "!BI", framing.MSG_DATA, framing.MAX_PAYLOAD + 1
        )
        with pytest.raises(TruncatedStreamError, match="desynchronized"):
            assembler.feed(header)

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(ValueError, match="exceeds MAX_PAYLOAD"):
            framing.encode(
                framing.MSG_DATA, b"\x00" * (framing.MAX_PAYLOAD + 1)
            )


class TestBatchFrames:
    """DATA_BATCH / RESULT_BATCH columnar frames (the batched wire)."""

    ENTRIES = [
        (1000, 0.001, b"alpha"),
        (1001, 0.002, b""),
        (1004, 0.004, b"x" * 300),
        (1002, 0.0, b"out-of-order replay"),
    ]

    def test_data_batch_round_trip(self):
        frame = framing.encode_data_batch(self.ENTRIES)
        [message] = MessageAssembler().feed(frame)
        assert message.type == framing.MSG_DATA_BATCH
        assert message.data_batch() == self.ENTRIES

    def test_result_batch_round_trip(self):
        frame = framing.encode_result_batch(self.ENTRIES)
        [message] = MessageAssembler().feed(frame)
        assert message.type == framing.MSG_RESULT_BATCH
        assert message.result_batch() == self.ENTRIES

    def test_single_entry_batch_round_trips(self):
        frame = framing.encode_data_batch([(0, 1.5, b"only")])
        [message] = MessageAssembler().feed(frame)
        assert message.data_batch() == [(0, 1.5, b"only")]

    def test_non_monotonic_seqs_survive(self):
        # Replay interleaves old seqs into a fresh run; the base is the
        # minimum, not the first, so order inside the run is free.
        entries = [(500, 0.1, b"new"), (3, 0.2, b"replayed")]
        frame = framing.encode_result_batch(entries)
        [message] = MessageAssembler().feed(frame)
        assert message.result_batch() == entries

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            framing.encode_data_batch([])

    def test_seq_spread_beyond_u32_rejected(self):
        entries = [(0, 0.0, b""), (1 << 32, 0.0, b"")]
        with pytest.raises(ValueError, match="seq spread"):
            framing.encode_data_batch(entries)

    def test_zero_count_payload_raises(self):
        wire = framing.encode(
            framing.MSG_DATA_BATCH, struct.pack("!QI", 0, 0)
        )
        [message] = MessageAssembler().feed(wire)
        with pytest.raises(TruncatedStreamError):
            message.data_batch()

    def test_truncated_columns_raise(self):
        frame = framing.encode_data_batch(self.ENTRIES)
        [message] = MessageAssembler().feed(frame)
        # Chop the payload mid-column and re-wrap: decode must refuse.
        for cut in (9, 13, 21, len(message.payload) - 1):
            mangled = framing.encode(
                framing.MSG_DATA_BATCH, message.payload[:cut]
            )
            [broken] = MessageAssembler().feed(mangled)
            with pytest.raises(TruncatedStreamError):
                broken.data_batch()

    def test_trailing_garbage_raises(self):
        frame = framing.encode_data_batch([(5, 0.5, b"ok")])
        [message] = MessageAssembler().feed(frame)
        mangled = framing.encode(
            framing.MSG_DATA_BATCH, message.payload + b"junk"
        )
        [broken] = MessageAssembler().feed(mangled)
        with pytest.raises(TruncatedStreamError, match="bodies mismatch"):
            broken.data_batch()

    def test_max_size_batch_torn_at_every_byte_boundary(self):
        # The largest frame the worker ever flushes: a full cumulative
        # RESULT_BATCH run. Split the wire bytes at every boundary and
        # assert the assembler reunites each half into the same batch.
        from repro.proc.worker import RESULT_FLUSH_MAX

        entries = [
            (i * 3, i * 0.25, bytes([i & 0xFF]) * (i % 7))
            for i in range(RESULT_FLUSH_MAX)
        ]
        wire = framing.encode_result_batch(entries)
        expect = MessageAssembler().feed(wire)
        assert expect[0].result_batch() == entries
        for cut in range(1, len(wire)):
            assembler = MessageAssembler()
            out = assembler.feed(wire[:cut])
            out += assembler.feed(wire[cut:])
            assert out == expect, f"torn at byte {cut} diverged"
            assembler.eof()
