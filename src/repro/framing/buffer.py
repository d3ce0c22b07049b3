"""Sent-packet buffer.

Section 7.3: "Alice keeps copies of the sent packets in a Sent Packet
Buffer.  When she receives a signal that contains interference, she has to
figure out which packet from the buffer she should use to decode the
interfered signal."  The same structure also stores *overheard* frames in
the "X" topology, where the known signal comes from snooping rather than
from having transmitted it (§11.5).

The buffer is bounded: old entries are evicted FIFO once
:data:`SentPacketBuffer.CAPACITY` frames are held, mirroring the finite
memory of a real forwarding node.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.framing.frame import Frame
from repro.framing.header import Header


class SentPacketBuffer:
    """Bounded FIFO store of frames keyed by (source, destination, sequence)."""

    #: Frames held before the oldest is evicted.
    CAPACITY = 256

    def __init__(self) -> None:
        """An empty buffer."""
        self._frames: "OrderedDict[Tuple[int, int, int], Frame]" = OrderedDict()

    def __len__(self) -> int:
        """Number of frames held."""
        return len(self._frames)

    def store(self, frame: Frame) -> None:
        """Insert (or refresh) a frame, evicting the oldest entry if full."""
        key = frame.packet.identity
        if key in self._frames:
            # Refresh recency so repeatedly-used frames stay resident.
            self._frames.move_to_end(key)
            self._frames[key] = frame
            return
        self._frames[key] = frame
        while len(self._frames) > self.CAPACITY:
            self._frames.popitem(last=False)

    def lookup(self, source: int, destination: int, sequence: int) -> Optional[Frame]:
        """Fetch the frame with the given identity, or ``None``."""
        return self._frames.get((int(source), int(destination), int(sequence)))

    def lookup_header(self, header: Header) -> Optional[Frame]:
        """Fetch the frame matching a decoded header, or ``None``."""
        return self.lookup(header.source, header.destination, header.sequence)

    def clear(self) -> None:
        """Drop every stored frame."""
        self._frames.clear()
