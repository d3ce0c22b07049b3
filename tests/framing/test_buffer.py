"""Tests for the sent-packet buffer."""

import numpy as np

from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Framer
from repro.framing.header import Header
from repro.framing.packet import Packet


def _frame(seq, framer=None, rng_seed=0):
    framer = framer or Framer()
    packet = Packet.random(1, 2, seq, 64, np.random.default_rng(rng_seed + seq))
    return framer.build(packet)


class TestSentPacketBuffer:
    def test_store_and_lookup(self):
        buffer = SentPacketBuffer()
        frame = _frame(5)
        buffer.store(frame)
        assert buffer.lookup(1, 2, 5) is frame

    def test_lookup_missing_returns_none(self):
        assert SentPacketBuffer().lookup(1, 2, 3) is None

    def test_lookup_by_header(self):
        buffer = SentPacketBuffer()
        frame = _frame(9)
        buffer.store(frame)
        header = Header(source=1, destination=2, sequence=9)
        assert buffer.lookup_header(header) is frame

    def test_capacity_eviction_is_fifo(self):
        buffer = SentPacketBuffer()
        frames = [_frame(i) for i in range(SentPacketBuffer.CAPACITY + 2)]
        for frame in frames:
            buffer.store(frame)
        assert len(buffer) == SentPacketBuffer.CAPACITY == 256
        assert buffer.lookup(1, 2, 0) is None
        assert buffer.lookup(1, 2, 1) is None
        assert buffer.lookup(1, 2, 2) is frames[2]
        assert buffer.lookup(1, 2, len(frames) - 1) is frames[-1]

    def test_refresh_keeps_entry_resident(self):
        buffer = SentPacketBuffer()
        frames = [_frame(i) for i in range(SentPacketBuffer.CAPACITY + 1)]
        for frame in frames[:-1]:
            buffer.store(frame)
        buffer.store(frames[0])  # refresh recency
        buffer.store(frames[-1])  # evicts the stalest entry (frames[1])
        assert buffer.lookup(1, 2, 0) is not None
        assert buffer.lookup(1, 2, 1) is None

    def test_clear(self):
        buffer = SentPacketBuffer()
        buffer.store(_frame(0))
        buffer.store(_frame(1))
        buffer.clear()
        assert len(buffer) == 0
