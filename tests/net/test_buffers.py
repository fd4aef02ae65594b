"""Unit tests for bounded buffers."""

import pytest

from repro.net.buffers import BoundedBuffer, BufferFullError


class TestBasicFifo:
    def test_push_pop_order(self):
        buf = BoundedBuffer(3)
        for item in ("a", "b", "c"):
            buf.push(item)
        assert [buf.pop(), buf.pop(), buf.pop()] == ["a", "b", "c"]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            BoundedBuffer(1).pop()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedBuffer(0)


class TestCapacity:
    def test_try_push_respects_capacity(self):
        buf = BoundedBuffer(2)
        assert buf.try_push(1)
        assert buf.try_push(2)
        assert not buf.try_push(3)
        assert len(buf) == 2

    def test_push_raises_when_full(self):
        buf = BoundedBuffer(1)
        buf.push(1)
        with pytest.raises(BufferFullError):
            buf.push(2)

    def test_pop_frees_space(self):
        buf = BoundedBuffer(1)
        buf.push(1)
        buf.pop()
        assert buf.try_push(2)

