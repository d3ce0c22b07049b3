"""Frame header: SrcID, DstID, SeqNo protected by CRC-16.

Section 7.3: "we add a header after the pilot sequence that tells Alice the
source, destination and the sequence number of the packet."  The CRC is our
addition — decoded headers steer routing decisions (decode vs. amplify vs.
drop, §7.5), so a node must be able to tell a corrupted header from a valid
one before acting on it.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass

import numpy as np

from repro.coding.crc import CRC_INITIAL
from repro.constants import HEADER_DST_BITS, HEADER_SEQ_BITS, HEADER_SRC_BITS
from repro.exceptions import HeaderError
from repro.utils.bits import as_bit_array

#: Bytes of the (SrcID, DstID, SeqNo) fields; the CRC-16 adds two more.
_FIELD_BYTES = (HEADER_SRC_BITS + HEADER_DST_BITS + HEADER_SEQ_BITS) // 8


@dataclass(frozen=True)
class Header:
    """Addressing header carried at both ends of every frame."""

    source: int
    destination: int
    sequence: int

    #: Total encoded length including the CRC-16.
    ENCODED_LENGTH: int = HEADER_SRC_BITS + HEADER_DST_BITS + HEADER_SEQ_BITS + 16

    def __post_init__(self) -> None:
        """Check that every field fits its width."""
        if not 0 <= self.source < (1 << HEADER_SRC_BITS):
            raise HeaderError(f"source id {self.source} does not fit in {HEADER_SRC_BITS} bits")
        if not 0 <= self.destination < (1 << HEADER_DST_BITS):
            raise HeaderError(
                f"destination id {self.destination} does not fit in {HEADER_DST_BITS} bits"
            )
        if not 0 <= self.sequence < (1 << HEADER_SEQ_BITS):
            raise HeaderError(f"sequence {self.sequence} does not fit in {HEADER_SEQ_BITS} bits")

    def to_bits(self) -> np.ndarray:
        """Encode the header fields plus CRC-16 as a bit array.

        The fields fill whole bytes, so they are packed and their CRC-16
        taken over the bytes (``binascii.crc_hqx`` from
        :data:`~repro.coding.crc.CRC_INITIAL` computes
        :data:`~repro.coding.crc.CRC16`): the same bits as ``CRC16.append``
        of the fields, unpacked once.
        """
        fields = (
            int(self.source) << (HEADER_DST_BITS + HEADER_SEQ_BITS)
            | int(self.destination) << HEADER_SEQ_BITS
            | int(self.sequence)
        ).to_bytes(_FIELD_BYTES, "big")
        crc = binascii.crc_hqx(fields, CRC_INITIAL).to_bytes(2, "big")
        return np.unpackbits(np.frombuffer(fields + crc, dtype=np.uint8))

    @classmethod
    def from_bits(cls, bits) -> "Header":
        """Decode and CRC-validate a header from its encoded bits.

        Raises
        ------
        HeaderError
            If the bit array has the wrong length or the CRC check fails.
        """
        return cls._decode(as_bit_array(bits))

    @classmethod
    def _decode(cls, arr: np.ndarray) -> "Header":
        """:meth:`from_bits` of an already checked canonical bit array."""
        if arr.size != cls.ENCODED_LENGTH:
            raise HeaderError(
                f"header must be {cls.ENCODED_LENGTH} bits, got {arr.size}"
            )
        raw = np.packbits(arr).tobytes()
        fields, crc = raw[:_FIELD_BYTES], raw[_FIELD_BYTES:]
        if binascii.crc_hqx(fields, CRC_INITIAL) != int.from_bytes(crc, "big"):
            raise HeaderError("header CRC check failed")
        value = int.from_bytes(fields, "big")
        return cls(
            source=value >> (HEADER_DST_BITS + HEADER_SEQ_BITS),
            destination=(value >> HEADER_SEQ_BITS) & ((1 << HEADER_DST_BITS) - 1),
            sequence=value & ((1 << HEADER_SEQ_BITS) - 1),
        )

    @property
    def identity(self) -> tuple:
        """The (source, destination, sequence) triple this header names."""
        return (self.source, self.destination, self.sequence)
