"""Frame layout, framer and deframer.

The over-the-air bit layout of a frame is::

    [ pilot | header | payload_crc (scrambled) | header_rev | pilot_rev ]

* ``pilot`` is the protocol-wide 64-bit PN sequence (§7.2).
* ``header`` encodes (SrcID, DstID, SeqNo) + CRC-16 (§7.3).
* ``payload_crc`` is the packet payload with a CRC-16 appended, whitened
  by the scrambler so the "random bits" assumption of the amplitude
  estimator holds (§6.2).
* ``header_rev`` / ``pilot_rev`` are bit-reversed copies so that reading
  the frame backwards (Bob's direction, §7.4) produces the pilot and the
  header in their normal order.

The :class:`Framer` builds frames from packets; the :class:`Deframer`
parses demodulated bits back into packets, in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.coding.crc import CRC16
from repro.constants import PILOT_LENGTH_BITS
from repro.exceptions import FramingError, HeaderError
from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.framing.pilot import PilotSequence
from repro.scrambler.whitening import Scrambler
from repro.utils.bits import as_bit_array


@dataclass(frozen=True)
class FrameLayout:
    """Describes where each field sits within a frame of a given payload size."""

    pilot_length: int
    header_length: int
    payload_length: int

    @property
    def coded_payload_length(self) -> int:
        """Payload plus its CRC-16."""
        return self.payload_length + 16

    @property
    def total_length(self) -> int:
        """Total frame length in bits."""
        return 2 * self.pilot_length + 2 * self.header_length + self.coded_payload_length

    @property
    def header_start(self) -> int:
        """Index of the leading header's first bit."""
        return self.pilot_length

    @property
    def payload_start(self) -> int:
        """Index of the scrambled payload's first bit."""
        return self.pilot_length + self.header_length

    @property
    def trailing_header_start(self) -> int:
        """Index of the reversed trailing header's first bit."""
        return self.payload_start + self.coded_payload_length


@dataclass(frozen=True)
class Frame:
    """A fully-built frame: the owning packet plus its over-the-air bits."""

    packet: Packet
    bits: np.ndarray
    layout: FrameLayout

    @property
    def header(self) -> Header:
        """The header that was embedded in this frame."""
        return Header(
            source=self.packet.source,
            destination=self.packet.destination,
            sequence=self.packet.sequence,
        )

    @property
    def length(self) -> int:
        """Number of over-the-air bits in the frame."""
        return int(self.bits.size)


class Framer:
    """Builds frames from packets (transmit side of Fig. 8).

    ``pilot`` defaults to the protocol's 64-bit pilot (§7.2); the payload
    is whitened by the protocol scrambler.
    """

    def __init__(self, pilot: Optional[PilotSequence] = None) -> None:
        """A framer for ``pilot`` (the protocol pilot when omitted)."""
        self.pilot = pilot if pilot is not None else PilotSequence()
        self.scrambler = Scrambler()

    def layout_for(self, payload_length: int) -> FrameLayout:
        """The frame layout for a packet of the given payload length."""
        if payload_length < 0:
            raise FramingError("payload length must be non-negative")
        return FrameLayout(
            pilot_length=self.pilot.length,
            header_length=Header.ENCODED_LENGTH,
            payload_length=payload_length,
        )

    def build(self, packet: Packet) -> Frame:
        """Assemble the over-the-air bit sequence for a packet.

        The frame's bits are read-only, like the signals modulated from
        them, so one built frame can be shared by every copy of the packet.
        """
        header_bits = Header(
            source=packet.source,
            destination=packet.destination,
            sequence=packet.sequence,
        ).to_bits()
        # ``Packet`` holds canonical bits, so the CRC goes on unchecked.
        payload_with_crc = CRC16._append(packet.payload)
        scrambled_payload = self.scrambler.scramble(payload_with_crc)
        pilot_bits = self.pilot.bits
        bits = np.concatenate(
            [
                pilot_bits,
                header_bits,
                scrambled_payload,
                header_bits[::-1],
                pilot_bits[::-1],
            ]
        )
        # Frozen through a view so the flag cannot be switched back on.
        bits.setflags(write=False)
        return Frame(
            packet=packet, bits=bits.view(), layout=self.layout_for(packet.payload_length)
        )


@dataclass(frozen=True)
class DeframeResult:
    """Outcome of parsing demodulated bits back into a packet."""

    packet: Optional[Packet]
    header: Optional[Header]
    payload_crc_ok: bool

    @property
    def delivered(self) -> bool:
        """True when both the header and the payload CRC were valid."""
        return self.packet is not None and self.payload_crc_ok


class Deframer:
    """Parses demodulated frame bits back into packets (receive side of Fig. 8).

    Frames carry the protocol's 64-bit pilot and scrambler.
    """

    def __init__(self) -> None:
        """A deframer for the protocol pilot and scrambler."""
        self.scrambler = Scrambler()

    def _layout(self, total_bits: int) -> FrameLayout:
        payload_length = (
            total_bits - 2 * PILOT_LENGTH_BITS - 2 * Header.ENCODED_LENGTH - 16
        )
        if payload_length < 0:
            raise FramingError(
                f"bit stream of length {total_bits} is too short to be a frame"
            )
        return FrameLayout(
            pilot_length=PILOT_LENGTH_BITS,
            header_length=Header.ENCODED_LENGTH,
            payload_length=payload_length,
        )

    def parse(self, bits) -> DeframeResult:
        """Parse a full forward-ordered frame bit stream into a packet."""
        arr = as_bit_array(bits)
        try:
            layout = self._layout(arr.size)
            header = Header._decode(arr[layout.header_start : layout.payload_start])
        except (FramingError, HeaderError):
            return DeframeResult(packet=None, header=None, payload_crc_ok=False)
        return self._read_payload(arr, layout, header)

    def _read_payload(self, arr: np.ndarray, layout: FrameLayout, header: Header) -> DeframeResult:
        """The packet ``header`` names, carrying the payload of the frame bits ``arr``.

        ``arr`` is an already checked canonical bit array laid out as
        ``layout``; its own header copy is not read, so a receiver that
        decoded the header elsewhere can still recover the payload.
        """
        scrambled = arr[layout.payload_start : layout.trailing_header_start]
        payload_with_crc = self.scrambler.descramble(scrambled)
        # The layout guarantees the 16 CRC bits; the descrambled array is
        # fresh, so the packet adopts its payload part without a copy.
        crc_ok = CRC16.verify(payload_with_crc)
        packet = Packet._adopt(
            header.source, header.destination, header.sequence, payload_with_crc[:-16]
        )
        return DeframeResult(packet=packet, header=header, payload_crc_ok=crc_ok)

    def parse_backward(self, reversed_bits) -> DeframeResult:
        """Parse a frame whose bits were decoded back-to-front (§7.4).

        ``reversed_bits`` is what a backward-decoding receiver produces:
        the frame's bit sequence in reverse order.  Because the trailing
        pilot and header are bit-reversed copies, simply reversing the
        stream recovers the forward frame and the normal parser applies.
        """
        arr = as_bit_array(reversed_bits)
        return self.parse(arr[::-1])
