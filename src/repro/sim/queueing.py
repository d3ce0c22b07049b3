"""Per-endpoint FIFO packet queues with a tail-drop capacity.

Every traffic-simulation endpoint owns one :class:`PacketQueue`.
Arrivals :meth:`~PacketQueue.offer` packets and a full queue rejects the
packet (tail drop, the paper's testbed default); the MAC pops the head of
line when the endpoint gets to send.  The simulation's report keeps the
ledger: it counts the drops and records each packet's waiting time, from
arrival to service start, which the ``queueing_delay`` scenario
aggregates into mean/p95 statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.exceptions import ConfigurationError
from repro.framing.packet import Packet

__all__ = ["PacketQueue", "QueuedPacket"]


@dataclass(frozen=True)
class QueuedPacket:
    """One queue entry: the packet plus its arrival timestamp (samples)."""

    packet: Packet
    arrival_time: float


class PacketQueue:
    """A bounded FIFO of :class:`QueuedPacket` entries.

    Parameters
    ----------
    capacity:
        Maximum number of queued packets; arrivals beyond it are dropped.
    """

    def __init__(self, capacity: int = 8) -> None:
        """Create an empty queue with the given capacity."""
        if capacity <= 0:
            raise ConfigurationError("queue capacity must be positive")
        self.capacity = int(capacity)
        self._entries: Deque[QueuedPacket] = deque()

    @property
    def is_empty(self) -> bool:
        """True when no packet is waiting."""
        return not self._entries

    def offer(self, packet: Packet, now: float) -> bool:
        """Enqueue a packet arriving at time ``now``; False means dropped."""
        if len(self._entries) >= self.capacity:
            return False
        self._entries.append(QueuedPacket(packet=packet, arrival_time=float(now)))
        return True

    def peek(self) -> Optional[QueuedPacket]:
        """The head-of-line entry without removing it (None when empty)."""
        return self._entries[0] if self._entries else None

    def pop(self) -> QueuedPacket:
        """Remove and return the head of line."""
        if not self._entries:
            raise ConfigurationError("cannot pop from an empty queue")
        return self._entries.popleft()
