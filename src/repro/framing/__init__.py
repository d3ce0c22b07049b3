"""Frame construction and parsing (Fig. 6 of the paper).

A frame carries a network-layer packet over the air.  Its bit layout is::

    [ pilot | header | payload (scrambled) | header' | pilot' ]

where the trailing ``header'`` and ``pilot'`` are bit-reversed copies of
the leading ones, so that a receiver reading the frame *backwards* (Bob's
decoding direction, §7.4) sees the pilot and header in their normal order.
The header carries SrcID, DstID and SeqNo protected by a CRC-16, which is
what lets a node that captured an interfered signal figure out which
packet from its sent-packet buffer to cancel (§7.3) and what a router uses
to decide between decoding, amplify-and-forward and dropping (§7.5).
"""

from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.framing.pilot import PilotSequence
from repro.framing.frame import Frame, FrameLayout, Framer, Deframer
from repro.framing.buffer import SentPacketBuffer

__all__ = [
    "Deframer",
    "Frame",
    "FrameLayout",
    "Framer",
    "Header",
    "Packet",
    "PilotSequence",
    "SentPacketBuffer",
]
