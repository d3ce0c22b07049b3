"""Network-layer packet representation.

A :class:`Packet` is what the layers above the PHY exchange: a payload bit
array plus the addressing fields (source, destination, sequence number)
that end up in the frame header.  Packets are immutable and hashable on
their identity triple, which is how the sent-packet buffer and the COPE
XOR bookkeeping refer to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.bits import as_bit_array, random_bits


def _check_identifiers(source: int, destination: int, sequence: int) -> None:
    if source < 0 or destination < 0 or sequence < 0:
        raise ConfigurationError("packet identifiers must be non-negative")


@dataclass(frozen=True)
class Packet:
    """An immutable network-layer packet.

    Parameters
    ----------
    source:
        Numeric node identifier of the originator.
    destination:
        Numeric node identifier of the final destination.
    sequence:
        Per-source sequence number.
    payload:
        Payload bits (canonical uint8 bit array).
    """

    source: int
    destination: int
    sequence: int
    payload: np.ndarray = field(compare=False)

    def __init__(self, source: int, destination: int, sequence: int, payload) -> None:
        """Check the identifiers and keep a frozen canonical copy of ``payload``."""
        _check_identifiers(source, destination, sequence)
        bits = as_bit_array(payload)
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "source", int(source))
        object.__setattr__(self, "destination", int(destination))
        object.__setattr__(self, "sequence", int(sequence))
        object.__setattr__(self, "payload", bits)

    @classmethod
    def _adopt(cls, source: int, destination: int, sequence: int, payload: np.ndarray) -> "Packet":
        """A packet that takes ownership of ``payload``, a fresh canonical bit array.

        For callers that just built the array themselves from checked
        bits and header fields: the array is frozen in place instead of
        being checked and copied again.
        """
        packet = object.__new__(cls)
        payload.setflags(write=False)
        object.__setattr__(packet, "source", source)
        object.__setattr__(packet, "destination", destination)
        object.__setattr__(packet, "sequence", sequence)
        object.__setattr__(packet, "payload", payload)
        return packet

    @classmethod
    def random(
        cls,
        source: int,
        destination: int,
        sequence: int,
        payload_bits: int,
        rng: np.random.Generator,
    ) -> "Packet":
        """Create a packet with a uniformly random payload (workload generator).

        The freshly drawn payload is canonical, so the packet adopts it.
        """
        _check_identifiers(source, destination, sequence)
        return cls._adopt(
            int(source), int(destination), int(sequence), random_bits(payload_bits, rng)
        )

    @property
    def identity(self) -> tuple:
        """The (source, destination, sequence) triple identifying this packet."""
        return (self.source, self.destination, self.sequence)

    @property
    def payload_length(self) -> int:
        """Number of payload bits."""
        return int(self.payload.size)

    def payload_equals(self, other: "Packet") -> bool:
        """True if the payload bits match exactly (identity fields ignored)."""
        return self.payload.size == other.payload.size and bool(
            np.array_equal(self.payload, other.payload)
        )

    def xor_payload(self, other: "Packet") -> np.ndarray:
        """Bitwise XOR of two equal-length payloads (used by the COPE baseline)."""
        if self.payload.size != other.payload.size:
            raise ConfigurationError("payloads must have equal length to XOR")
        return np.bitwise_xor(self.payload, other.payload).astype(np.uint8)

    def __hash__(self) -> int:
        """Hash of the (source, destination, sequence) identity."""
        return hash(self.identity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """The identity and payload length, for debugging."""
        return (
            f"Packet(src={self.source}, dst={self.destination}, seq={self.sequence}, "
            f"len={self.payload_length})"
        )
