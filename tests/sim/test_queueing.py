"""Tests of the bounded per-node FIFO packet queues."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.framing.packet import Packet
from repro.sim.queueing import PacketQueue


def _packet(sequence: int) -> Packet:
    return Packet(
        source=1,
        destination=2,
        sequence=sequence,
        payload=np.zeros(8, dtype=np.uint8),
    )


class TestPacketQueue:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PacketQueue(capacity=0)

    def test_fifo_order(self):
        queue = PacketQueue(capacity=4)
        for seq in range(3):
            assert queue.offer(_packet(seq), now=float(seq))
        assert queue.peek().packet.sequence == 0
        popped = [queue.pop().packet.sequence for _ in range(3)]
        assert popped == [0, 1, 2]
        assert queue.is_empty

    def test_tail_drop_beyond_capacity(self):
        queue = PacketQueue(capacity=2)
        assert queue.offer(_packet(0), now=0.0)
        assert queue.offer(_packet(1), now=1.0)
        assert not queue.offer(_packet(2), now=2.0)
        # The dropped packet never enters the FIFO.
        assert [e.packet.sequence for e in (queue.pop(), queue.pop())] == [0, 1]
        assert queue.offer(_packet(3), now=3.0)

    def test_pop_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            PacketQueue().pop()

    def test_peek_empty_returns_none(self):
        assert PacketQueue().peek() is None
