"""The basic wireless node.

A node bundles everything one radio needs:

* the transmit path (Fig. 8, left): the :class:`~repro.framing.frame.Framer`
  and the MSK modulator, reached through the shared memo below,
* a :class:`~repro.framing.buffer.SentPacketBuffer` holding copies of the
  frames it transmitted or overheard — the network-layer side information
  ANC exploits,
* a :class:`~repro.anc.pipeline.ReceivePipeline` for the receive path
  (Fig. 8, right), sharing that buffer.

Every node shares one bounded memo of the frames already put on the air,
so a retry or a forward of the same packet is not framed and modulated
again, and the copy a node keeps of an overheard packet is not framed
again either.

The node is deliberately passive: *when* it transmits is decided by the
protocol / scheduler driving the simulation, mirroring how the paper
separates the signal processing from the (optimal) MAC used in the
evaluation (§11.1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.anc.pipeline import ReceivePipeline, ReceiveResult
from repro.exceptions import ConfigurationError
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Frame, FrameLayout, Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.signal.samples import ComplexSignal


@dataclass(frozen=True)
class NodeConfig:
    """Static configuration of a node's radio.

    Every node transmits at :data:`~repro.constants.DEFAULT_TX_AMPLITUDE`
    (the paper assumes equal powers, §8) with the protocol pilot and
    scrambler.
    """

    payload_bits: int = 512
    noise_power: float = 1e-3

    def __post_init__(self) -> None:
        """Validate the radio parameters."""
        if self.payload_bits <= 0:
            raise ConfigurationError("payload_bits must be positive")
        if not self.noise_power > 0:
            raise ConfigurationError("noise_power must be positive")


#: The one transmit chain every memo miss runs: both are stateless across
#: packets (protocol pilot, scrambler and transmit amplitude).
_FRAMER = Framer()
_MODULATOR = MSKModulator()


@functools.lru_cache(maxsize=64)
def _on_air(
    source: int,
    destination: int,
    sequence: int,
    payload: bytes,
) -> Tuple[np.ndarray, FrameLayout, ComplexSignal]:
    """Frame bits, layout and waveform a packet goes on the air as.

    A pure function of the packet (pilot, scrambler and transmit
    amplitude are protocol constants), so one bounded LRU serves every
    node: MAC retries, relay forwards and schemes that redraw the same
    payload stream frame and modulate a packet once while it stays among
    the 64 most recent.  64 frames of a 768-bit payload hold about 1 MB.
    The values are read-only arrays, so sharing them is safe.
    """
    packet = Packet._adopt(source, destination, sequence, np.frombuffer(payload, dtype=np.uint8))
    frame = _FRAMER.build(packet)
    return frame.bits, frame.layout, _MODULATOR.modulate(frame.bits)


class Node:
    """A wireless node with full transmit and receive chains."""

    def __init__(self, node_id: int, config: Optional[NodeConfig] = None) -> None:
        """Build the node's transmit and receive chains from its config."""
        if node_id < 0:
            raise ConfigurationError("node id must be non-negative")
        self.node_id = int(node_id)
        self.config = config if config is not None else NodeConfig()
        self.known_frames = SentPacketBuffer()
        self.pipeline = ReceivePipeline(
            noise_power=self.config.noise_power,
            expected_payload_bits=self.config.payload_bits,
            known_frames=self.known_frames,
        )
        self._sequence_counter = 0

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def next_sequence(self) -> int:
        """Allocate the next per-node sequence number."""
        value = self._sequence_counter
        self._sequence_counter += 1
        return value

    def make_packet(self, destination: int, rng: np.random.Generator) -> Packet:
        """Create a new random-payload packet addressed to ``destination``."""
        return Packet.random(
            source=self.node_id,
            destination=destination,
            sequence=self.next_sequence(),
            payload_bits=self.config.payload_bits,
            rng=rng,
        )

    def transmit(self, packet: Packet) -> ComplexSignal:
        """Frame, remember and modulate a packet in one step.

        A packet that any node already put on the air with the same content
        is not framed and modulated again while it is still in the
        :func:`_on_air` LRU.  The frame is remembered either way.  A relay
        forwards a packet originated elsewhere the same way: the copy keeps
        its addressing fields, and remembering its frame is what lets the
        relay cancel it later (chain topology).
        """
        frame, waveform = self._framed(packet)
        self.known_frames.store(frame)
        return waveform

    def remember_packet(self, packet: Packet) -> Frame:
        """Store the frame of a packet this node knows about without transmitting.

        The packet was overheard or decoded, so it was just on the air and
        the :func:`_on_air` LRU usually holds its frame.
        """
        frame, _ = self._framed(packet)
        self.known_frames.store(frame)
        return frame

    def _framed(self, packet: Packet) -> Tuple[Frame, ComplexSignal]:
        """The frame and waveform this node puts ``packet`` on the air as."""
        bits, layout, waveform = _on_air(
            packet.source,
            packet.destination,
            packet.sequence,
            packet.payload.tobytes(),
        )
        return Frame(packet=packet, bits=bits, layout=layout), waveform

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, waveform: ComplexSignal) -> ReceiveResult:
        """Run the full receive pipeline on a waveform heard off the air."""
        return self.pipeline.receive(waveform)

    @property
    def frame_samples(self) -> int:
        """Number of samples every frame of this node occupies on the air."""
        return self.pipeline.frame_samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debugging representation."""
        return f"Node(id={self.node_id}, payload_bits={self.config.payload_bits})"
