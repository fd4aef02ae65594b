"""In-process tests of the worker loop against a stub parent socket.

``WorkerMain.run()`` installs a SIGTERM handler, which is only legal on
the main thread — so the worker runs on the test's main thread and the
parent side (accept, send DATA/CONTROL/EOS, collect RESULT/BYE) runs on
a helper thread.
"""

import socket
import threading

import pytest

from repro.net import framing
from repro.proc.worker import WorkerMain, build_parser

pytestmark = pytest.mark.sockets


class ParentStub:
    """Accepts one worker connection, plays a script, records replies."""

    def __init__(self):
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(1)
        self.port = self.server.getsockname()[1]
        self.messages = []
        self.thread = None

    def start(self, script):
        def serve():
            conn, _ = self.server.accept()
            conn.settimeout(5.0)
            try:
                script(conn)
                assembler = framing.MessageAssembler()
                while True:
                    try:
                        chunk = conn.recv(65536)
                    except OSError:
                        return
                    if not chunk:
                        return
                    for message in assembler.feed(chunk):
                        self.messages.append(message)
                        if message.type == framing.MSG_BYE:
                            return
            finally:
                conn.close()

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()

    def finish(self):
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive(), "parent stub never finished"
        self.server.close()

    def of_type(self, msg_type):
        return [m for m in self.messages if m.type == msg_type]


def make_worker(port, **kwargs):
    kwargs.setdefault("heartbeat_interval", 0.05)
    return WorkerMain("127.0.0.1", port, 3, 2, **kwargs)


class TestWorkerLoop:
    def test_hello_data_results_then_bye(self):
        parent = ParentStub()

        def script(conn):
            conn.sendall(framing.encode_data(10, 0.0, b"alpha"))
            conn.sendall(framing.encode_data(11, 0.0, b"beta"))
            conn.sendall(framing.encode_eos())

        parent.start(script)
        worker = make_worker(parent.port)
        assert worker.run() == 0
        parent.finish()

        hello = parent.of_type(framing.MSG_HELLO)
        assert [m.hello() for m in hello] == [(3, 2)]
        results = parent.of_type(framing.MSG_RESULT)
        assert [(m.result()[0], m.result()[2]) for m in results] == [
            (10, b"alpha"),
            (11, b"beta"),
        ]
        bye = parent.of_type(framing.MSG_BYE)
        assert [int.from_bytes(m.payload, "big") for m in bye] == [2]

    def test_control_frame_updates_multiplier(self):
        parent = ParentStub()

        def script(conn):
            conn.sendall(framing.encode_control(2.5))
            conn.sendall(framing.encode_eos())

        parent.start(script)
        worker = make_worker(parent.port)
        assert worker.run() == 0
        parent.finish()
        assert worker.control_multiplier == 2.5

    def test_exit_after_dies_with_exit_code_mid_stream(self):
        parent = ParentStub()

        def script(conn):
            # One write: the worker may die (and reset the connection)
            # as soon as it has seen two tuples.
            conn.sendall(b"".join(
                framing.encode_data(seq, 0.0, b"") for seq in range(5)
            ))
            # No EOS: the worker must die on its own after 2 tuples.

        parent.start(script)
        worker = make_worker(parent.port, exit_after=2, exit_code=17)
        assert worker.run() == 17
        parent.finish()
        assert worker.processed == 2
        assert len(parent.of_type(framing.MSG_RESULT)) == 2
        assert parent.of_type(framing.MSG_BYE) == []

    def test_parent_eof_exits_quietly(self):
        parent = ParentStub()

        def script(conn):
            # Read the HELLO then hang up without EOS: the region died.
            assembler = framing.MessageAssembler()
            while not assembler.feed(conn.recv(65536)):
                pass
            conn.shutdown(socket.SHUT_RDWR)

        parent.start(script)
        worker = make_worker(parent.port)
        assert worker.run() == 0
        parent.finish()

    def test_heartbeats_carry_incarnation_and_progress(self):
        parent = ParentStub()
        release = threading.Event()

        def script(conn):
            conn.sendall(framing.encode_data(0, 0.0, b""))
            release.wait(timeout=5.0)
            conn.sendall(framing.encode_eos())

        parent.start(script)
        worker = make_worker(parent.port, heartbeat_interval=0.02)
        # Let the worker idle long enough to emit several heartbeats.
        timer = threading.Timer(0.2, release.set)
        timer.start()
        assert worker.run() == 0
        parent.finish()
        beats = [m.heartbeat() for m in parent.of_type(framing.MSG_HEARTBEAT)]
        assert len(beats) >= 3
        assert all(incarnation == 2 for _, incarnation in beats)
        # Later heartbeats reflect the tuple processed early on.
        assert beats[-1][0] == 1

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            WorkerMain("127.0.0.1", 1, 0, 0, mode="warp")

    def test_connect_socket_has_nodelay(self, monkeypatch):
        parent = ParentStub()
        connected = []
        create_connection = socket.create_connection

        def recording(*args, **kwargs):
            connected.append(create_connection(*args, **kwargs))
            return connected[-1]

        monkeypatch.setattr(socket, "create_connection", recording)
        nodelay = []

        def script(conn):
            # The HELLO leaves only after the option is set.
            hello = framing.encode_hello(3, 2)
            assert conn.recv(len(hello), socket.MSG_WAITALL) == hello
            nodelay.append(
                connected[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            conn.sendall(framing.encode_eos())

        parent.start(script)
        worker = make_worker(parent.port)
        assert worker.run() == 0
        parent.finish()
        assert nodelay and nodelay[0] != 0


class TestWorkerBatchedWire:
    """DATA_BATCH runs in, one cumulative RESULT_BATCH ack out."""

    def test_batch_acked_with_single_cumulative_result_batch(self):
        parent = ParentStub()
        entries = [(seq, 0.0, b"b%d" % seq) for seq in range(10, 22)]

        def script(conn):
            conn.sendall(framing.encode_data_batch(entries))
            conn.sendall(framing.encode_eos())

        parent.start(script)
        worker = make_worker(parent.port)
        assert worker.run() == 0
        parent.finish()

        # No per-tuple RESULT frames at all — the run acks as one batch.
        assert parent.of_type(framing.MSG_RESULT) == []
        batches = parent.of_type(framing.MSG_RESULT_BATCH)
        assert len(batches) == 1
        acked = batches[0].result_batch()
        assert [(seq, body) for seq, _, body in acked] == [
            (seq, body) for seq, _, body in entries
        ]
        assert worker.processed == len(entries)

    def test_plain_data_still_acked_per_tuple(self):
        # A mixed stream: plain DATA keeps the old per-tuple wire while
        # batched runs ack cumulatively — B=1 compatibility in one loop.
        parent = ParentStub()

        def script(conn):
            conn.sendall(framing.encode_data(0, 0.0, b"plain"))
            conn.sendall(
                framing.encode_data_batch([(1, 0.0, b"x"), (2, 0.0, b"y")])
            )
            conn.sendall(framing.encode_eos())

        parent.start(script)
        worker = make_worker(parent.port)
        assert worker.run() == 0
        parent.finish()

        results = parent.of_type(framing.MSG_RESULT)
        assert [m.result()[0] for m in results] == [0]
        batches = parent.of_type(framing.MSG_RESULT_BATCH)
        assert [
            seq for b in batches for seq, _, _ in b.result_batch()
        ] == [1, 2]

    def test_heartbeats_not_starved_behind_large_batch(self):
        # 40 tuples x ~5ms against a 20ms heartbeat interval: the worker
        # must interleave beats with the run, not go silent for 200ms.
        parent = ParentStub()
        entries = [(seq, 0.005, b"") for seq in range(40)]

        def script(conn):
            conn.sendall(framing.encode_data_batch(entries))
            conn.sendall(framing.encode_eos())

        parent.start(script)
        worker = make_worker(parent.port, heartbeat_interval=0.02)
        assert worker.run() == 0
        parent.finish()

        beats = parent.of_type(framing.MSG_HEARTBEAT)
        assert len(beats) >= 3, (
            f"only {len(beats)} heartbeats during a ~200ms batched run"
        )
        # Every tuple still acked exactly once across the partial
        # flushes the heartbeat deadline forced.
        acked = [
            seq
            for b in parent.of_type(framing.MSG_RESULT_BATCH)
            for seq, _, _ in b.result_batch()
        ]
        assert sorted(acked) == list(range(40))
        assert len(parent.of_type(framing.MSG_RESULT_BATCH)) > 1

    def test_crash_mid_batch_leaves_pending_acks_unsent(self):
        # The exit_after crash stand-in dies WITHOUT flushing: the seqs
        # it serviced but never acked stay in the parent's retransmit
        # buffer — exactly what replay-on-death needs.
        parent = ParentStub()
        entries = [(seq, 0.0, b"") for seq in range(6)]

        def script(conn):
            conn.sendall(framing.encode_data_batch(entries))
            # No EOS: the worker dies on its own mid-run.

        parent.start(script)
        worker = make_worker(parent.port, exit_after=3, exit_code=9)
        assert worker.run() == 9
        parent.finish()
        assert worker.processed == 3
        assert parent.of_type(framing.MSG_RESULT_BATCH) == []
        assert parent.of_type(framing.MSG_RESULT) == []
        assert parent.of_type(framing.MSG_BYE) == []


class TestArgumentParser:
    def test_defaults(self):
        args = build_parser().parse_args(
            ["--port", "1234", "--worker-id", "0"]
        )
        assert args.host == "127.0.0.1"
        assert args.incarnation == 0
        assert args.multiplier == 1.0
        assert args.mode == "sleep"
        assert args.exit_after is None

    def test_exit_after_knob(self):
        args = build_parser().parse_args(
            ["--port", "1", "--worker-id", "2", "--exit-after", "5",
             "--exit-code", "9"]
        )
        assert args.exit_after == 5
        assert args.exit_code == 9
