"""The wireless medium: superposition of concurrent transmissions.

Given a set of transmissions that happen in the same slot, the medium
computes what every node in the topology hears: the
:func:`~repro.channel.interference.superpose` of each in-range
transmitter's waveform through its directed link, placed at the
transmitters' start offsets, plus the receiver's own thermal noise.  A
node that is itself transmitting in the slot hears nothing (half-duplex
radios, §8).

The protocols under comparison all run on an *optimal* MAC (§11.1): the
schedule of who transmits in which slot is known in advance, so the
medium does not arbitrate access.  It keeps the air-time ledger the
throughput metric is computed from (time is measured in samples, so a
collision slot stretched by the partial-overlap offset automatically
costs more air time, which is exactly the effect §11.4 blames for the
gap between the 2x theory and the measured 1.7x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.channel.interference import superpose
from repro.exceptions import SimulationError
from repro.network.topology import Topology
from repro.signal.samples import ComplexSignal

#: Silent samples appended to every slot, so detectors see the energy
#: drop back to the noise floor after the last transmission ends.
TAIL_PADDING = 32


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
    """Computes per-receiver waveforms for each slot and charges its air time.

    Attributes
    ----------
    air_time:
        Total air time (in samples, see :meth:`slot_duration`) of every
        slot delivered so far.
    slots:
        Number of slots delivered so far.
    """

    def __init__(self, topology: Topology, rng: np.random.Generator) -> None:
        """Create a medium over ``topology``.

        ``rng`` drives every link's distortion and receiver's thermal
        noise.
        """
        self.topology = topology
        self._rng = rng
        self.air_time = 0
        self.slots = 0

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
        """Run one slot: the waveform each receiver hears, charged to the ledger.

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
            slot's length.
        """
        if not transmissions:
            raise SimulationError("a slot must contain at least one transmission")
        senders = [t.sender for t in transmissions]
        if len(set(senders)) != len(senders):
            raise SimulationError("a node cannot transmit twice in the same slot")
        for t in transmissions:
            if not self.topology.has_node(t.sender):
                raise SimulationError(f"unknown sender {t.sender}")

        duration = self.slot_duration(transmissions)
        if receivers is None:
            receivers = self.topology.nodes
        observations: Dict[int, ComplexSignal] = {}
        for receiver in receivers:
            if receiver in senders:
                continue
            components = [
                (t.waveform, self.topology.link(t.sender, receiver), t.start_offset)
                for t in transmissions
                if self.topology.in_range(t.sender, receiver)
            ]
            observations[receiver] = superpose(
                components,
                self.topology.noise_power(receiver),
                self._rng,
                duration + TAIL_PADDING,
            )
        self.air_time += duration
        self.slots += 1
        return observations
