"""The wireless medium: superposition of concurrent transmissions.

Given a set of transmissions that happen in the same slot, the medium
computes what every node in the topology hears: the sum of each in-range
transmitter's waveform after its directed link's distortion (attenuation,
phase, CFO, propagation delay), aligned on the transmitters' start
offsets, plus the receiver's own thermal noise.  A node that is itself
transmitting in the slot hears nothing (half-duplex radios, §8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.network.topology import Topology
from repro.signal.noise import complex_gaussian_noise
from repro.signal.ops import overlap_add
from repro.signal.samples import ComplexSignal


@dataclass(frozen=True)
class Transmission:
    """One node's transmission within a slot.

    Attributes
    ----------
    sender:
        Transmitting node id.
    waveform:
        The transmitted complex baseband waveform.
    start_offset:
        Sample offset of the transmission within the slot (the trigger
        protocol's random startup delay).
    """

    sender: int
    waveform: ComplexSignal
    start_offset: int = 0

    def __post_init__(self) -> None:
        """Validate the start offset."""
        if self.start_offset < 0:
            raise SimulationError("start offsets must be non-negative")

    @property
    def end_sample(self) -> int:
        """First sample index after the transmission ends within the slot."""
        return self.start_offset + len(self.waveform)


class WirelessMedium:
    """Computes per-receiver waveforms for each slot of the simulation."""

    def __init__(
        self,
        topology: Topology,
        rng: Optional[np.random.Generator] = None,
        tail_padding: int = 32,
    ) -> None:
        """Create a medium over ``topology``.

        ``rng`` drives every receiver's thermal noise; ``tail_padding``
        extends each slot by a few silent samples so channel delay spread
        never truncates a waveform.
        """
        self.topology = topology
        self._rng = rng if rng is not None else np.random.default_rng()
        if tail_padding < 0:
            raise SimulationError("tail padding must be non-negative")
        self.tail_padding = int(tail_padding)

    def slot_duration(self, transmissions: Sequence[Transmission]) -> int:
        """Air-time (in samples) a slot with these transmissions occupies."""
        if not transmissions:
            return 0
        return max(t.end_sample for t in transmissions)

    def deliver(
        self,
        transmissions: Sequence[Transmission],
        receivers: Optional[Iterable[int]] = None,
    ) -> Dict[int, ComplexSignal]:
        """Compute the waveform observed at each receiver during one slot.

        Parameters
        ----------
        transmissions:
            All transmissions that happen in the slot.
        receivers:
            Restrict output to these node ids (default: every node in the
            topology that is not transmitting).

        Returns
        -------
        dict
            Mapping from receiver node id to the waveform it hears.  Nodes
            that hear none of the transmitters receive pure noise of the
            slot's duration.
        """
        if not transmissions:
            raise SimulationError("a slot must contain at least one transmission")
        senders = [t.sender for t in transmissions]
        if len(set(senders)) != len(senders):
            raise SimulationError("a node cannot transmit twice in the same slot")
        for t in transmissions:
            if not self.topology.has_node(t.sender):
                raise SimulationError(f"unknown sender {t.sender}")

        slot_length = self.slot_duration(transmissions) + self.tail_padding
        if receivers is None:
            target_nodes = [n for n in self.topology.nodes if n not in set(senders)]
        else:
            target_nodes = [n for n in receivers if n not in set(senders)]

        observations: Dict[int, ComplexSignal] = {}
        for receiver in target_nodes:
            components: List = []
            for transmission in transmissions:
                if not self.topology.in_range(transmission.sender, receiver):
                    continue
                link = self.topology.link(transmission.sender, receiver)
                distorted = link.distort(transmission.waveform, rng=self._rng)
                components.append(
                    (distorted, transmission.start_offset + link.propagation_delay)
                )
            if components:
                composite = overlap_add(components, total_length=slot_length)
            else:
                composite = ComplexSignal.silence(slot_length)
            noise_power = self.topology.noise_power(receiver)
            if noise_power > 0:
                noise = complex_gaussian_noise(slot_length, noise_power, self._rng)
                composite = ComplexSignal._adopt(composite.samples + noise)
            observations[receiver] = composite
        return observations
