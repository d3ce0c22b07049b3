"""Common machinery for the protocol implementations.

Every protocol run produces a :class:`RunResult`: how many useful payload
bits reached their destinations, how much air time (in samples) was spent
delivering them, and the per-packet bit error rates of any packets that
were decoded out of interference.  Throughput is useful bits per unit air
time; measuring time in samples makes a partially-overlapped collision
slot automatically cost more than a perfectly aligned one, which is the
dominant practical effect behind the gap between ANC's theoretical and
measured gains (§11.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.network.topology import Topology
from repro.node.node import Node, NodeConfig


@dataclass
class RunResult:
    """Outcome of running one protocol over one topology for one run."""

    topology: str
    payload_bits: int
    packets_offered: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0
    air_time_samples: int = 0
    slots_used: int = 0
    packet_bers: List[float] = field(default_factory=list)
    overlap_fractions: List[float] = field(default_factory=list)
    redundancy_overhead: float = 0.0

    @property
    def delivered_payload_bits(self) -> int:
        """Raw payload bits that reached their destinations."""
        return self.packets_delivered * self.payload_bits

    @property
    def useful_bits(self) -> float:
        """Payload bits after charging the scheme's FEC redundancy overhead."""
        return self.delivered_payload_bits / (1.0 + self.redundancy_overhead)

    @property
    def throughput(self) -> float:
        """Useful bits per sample of air time (the paper's network throughput)."""
        if self.air_time_samples <= 0:
            raise SimulationError("run consumed no air time; throughput undefined")
        return self.useful_bits / self.air_time_samples

    @property
    def mean_ber(self) -> float:
        """Mean per-packet BER of interference-decoded packets (0 if none)."""
        if not self.packet_bers:
            return 0.0
        return float(np.mean(self.packet_bers))

    @property
    def delivery_ratio(self) -> float:
        """Fraction of offered packets that were delivered."""
        if self.packets_offered == 0:
            return 0.0
        return self.packets_delivered / self.packets_offered

    @property
    def mean_overlap(self) -> float:
        """Mean fraction of collision overlap observed during the run."""
        if not self.overlap_fractions:
            return 0.0
        return float(np.mean(self.overlap_fractions))

    # ------------------------------------------------------------------
    # Structured-results surface
    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, object]:
        """Flat scalar summary of the run (one row of a results table).

        Derived quantities (throughput, delivery ratio, mean BER, mean
        overlap) are materialised as plain floats so the record is
        self-contained; the per-packet lists stay out of it.
        """
        return {
            "topology": self.topology,
            "payload_bits": self.payload_bits,
            "packets_offered": self.packets_offered,
            "packets_delivered": self.packets_delivered,
            "packets_lost": self.packets_lost,
            "air_time_samples": self.air_time_samples,
            "slots_used": self.slots_used,
            "redundancy_overhead": float(self.redundancy_overhead),
            "throughput": float(self.throughput) if self.air_time_samples > 0 else 0.0,
            "mean_ber": float(self.mean_ber),
            "delivery_ratio": float(self.delivery_ratio),
            "mean_overlap": float(self.mean_overlap),
        }


class ProtocolRun:
    """Base class holding the pieces every protocol run needs.

    It builds one plain :class:`~repro.node.node.Node` per topology node,
    in ``topology.nodes`` order; a relay is one of them.  ``rng`` drives
    every random draw of the run (payloads, channel, noise, offsets); it
    is required, so a run is a pure function of its inputs.
    ``topology_name`` labels the run's :class:`RunResult`.
    """

    def __init__(
        self,
        topology: Topology,
        payload_bits: int = 512,
        ber_acceptance: float = 0.05,
        redundancy_overhead: float = 0.0,
        *,
        rng: np.random.Generator,
        topology_name: str,
    ) -> None:
        """Validate the run's sizes and build one node per topology node."""
        if payload_bits <= 0:
            raise ConfigurationError("payload_bits must be positive")
        if not 0.0 <= ber_acceptance < 0.5:
            raise ConfigurationError("ber_acceptance must lie in [0, 0.5)")
        if redundancy_overhead < 0:
            raise ConfigurationError("redundancy_overhead must be non-negative")
        self.topology = topology
        self.payload_bits = int(payload_bits)
        self.ber_acceptance = float(ber_acceptance)
        self.redundancy_overhead = float(redundancy_overhead)
        self.rng = rng
        self.topology_name = topology_name
        self.nodes: Dict[int, Node] = {
            node_id: Node(
                node_id,
                NodeConfig(
                    payload_bits=self.payload_bits,
                    noise_power=topology.noise_power(node_id),
                ),
            )
            for node_id in topology.nodes
        }

    def counts_as_delivered(self, ber: float, crc_ok: bool) -> bool:
        """Is a decoded packet considered delivered?

        A packet whose CRC validates is always delivered.  A packet with
        residual bit errors is delivered when the error rate is within what
        the scheme's error-correcting redundancy can repair
        (``ber_acceptance``); this models the extra FEC the paper adds to
        ANC packets rather than simulating retransmissions.
        """
        if crc_ok:
            return True
        return ber <= self.ber_acceptance
