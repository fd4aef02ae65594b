"""Unit tests for the simulated connection (flow control, wakeups)."""

import pytest

from repro.net.connection import SimulatedConnection


def make_connection(**kwargs):
    return SimulatedConnection(0, **kwargs)


class TestImmediateDelivery:
    def test_send_lands_in_receive_buffer(self):
        conn = make_connection()
        assert conn.send_nowait("t0")
        assert conn.recv_available() == 1
        assert conn.take() == "t0"

    def test_delivery_callback_fires(self):
        delivered = []
        conn = make_connection()
        conn.on_deliver = lambda: delivered.append(conn.recv_available())
        conn.send_nowait("t0")
        assert delivered == [1]

    def test_counters(self):
        conn = make_connection()
        conn.send_nowait("a")
        conn.send_nowait("b")
        assert conn.recv_available() == 2
        assert conn.queued_tuples() == 2


class TestFlowControl:
    def test_send_buffer_backs_up_when_receiver_full(self):
        conn = make_connection(send_capacity=2, recv_capacity=2)
        for i in range(4):
            assert conn.send_nowait(i)
        assert not conn.can_send()
        assert not conn.send_nowait(99)
        assert conn.queued_tuples() == 4

    def test_take_cascades_through_both_buffers(self):
        conn = make_connection(send_capacity=2, recv_capacity=2)
        for i in range(4):
            conn.send_nowait(i)
        assert conn.take() == 0
        # One send-buffer tuple moved into the freed receive slot.
        assert conn.recv_available() == 2
        assert conn.can_send()

    def test_fifo_order_end_to_end(self):
        conn = make_connection(send_capacity=2, recv_capacity=2)
        accepted = [i for i in range(10) if conn.send_nowait(i)]
        received = []
        while conn.recv_available():
            received.append(conn.take())
        assert received == accepted


class TestSenderWakeup:
    def test_waiter_fires_when_space_frees(self):
        conn = make_connection(send_capacity=1, recv_capacity=1)
        conn.send_nowait("a")
        conn.send_nowait("b")
        woken = []
        conn.wait_for_send_space(lambda: woken.append(True))
        assert not woken
        conn.take()
        assert woken == [True]

    def test_waiter_is_one_shot(self):
        conn = make_connection(send_capacity=1, recv_capacity=1)
        conn.send_nowait("a")
        conn.send_nowait("b")
        woken = []
        conn.wait_for_send_space(lambda: woken.append(True))
        conn.take()
        conn.take()
        assert woken == [True]

    def test_double_wait_rejected(self):
        conn = make_connection(send_capacity=1, recv_capacity=1)
        conn.send_nowait("a")
        conn.send_nowait("b")
        conn.wait_for_send_space(lambda: None)
        with pytest.raises(RuntimeError):
            conn.wait_for_send_space(lambda: None)

    def test_wait_with_space_available_rejected(self):
        conn = make_connection()
        with pytest.raises(RuntimeError):
            conn.wait_for_send_space(lambda: None)

