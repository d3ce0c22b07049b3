"""Plan-driven protocol execution.

:class:`ChainPipelineProtocol` executes a
:class:`~repro.mac.planner.ChainPipelinePlan` at the signal level: it
pipelines one flow's packets down a chain of any length, transmitting in
the plan's repeating phases and decoding the plan's deliberate collisions
with ANC.  With the stride-2 ANC plan every interior node captures the
collision of its predecessor's new packet with its successor's forwarded
packet and cancels the half it forwarded itself one phase earlier; with
the stride-3 plain plan the same machinery degenerates to collision-free
spatial-reuse pipelining (the strongest schedule available to routing or
digital coding on a one-way chain).

On the paper's 3-hop chain (Fig. 12, §11.6) the ANC plan is the
schedule of §2b: the middle node's forward triggers the source and the
third node to transmit together, and two slots move each packet three
hops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.channel.interference import OverlapModel
from repro.constants import DEFAULT_ANC_REDUNDANCY_OVERHEAD
from repro.exceptions import ConfigurationError
from repro.framing.packet import Packet
from repro.mac.planner import PhaseTemplate, plan_chain_pipeline
from repro.network.medium import Transmission, WirelessMedium
from repro.network.topology import Topology
from repro.protocols.base import ProtocolRun, RunResult
from repro.utils.bits import decoded_ber


class ChainPipelineProtocol(ProtocolRun):
    """Executes the MAC planner's pipelined schedule for one flow down a chain.

    Parameters
    ----------
    topology:
        The network the chain lives in.
    path:
        Node ids from source to destination.
    coding:
        Planner discipline: ``"anc"`` (stride-2, deliberate collisions)
        or ``"plain"`` (stride-3, collision-free).
    packets:
        Number of packets the source injects.
    overlap_model:
        Draws the random start offsets of deliberately colliding
        transmissions; required by the ``"anc"`` plan, unused otherwise.
    """

    def __init__(
        self,
        topology: Topology,
        path: Sequence[int],
        coding: str = "anc",
        packets: int = 20,
        payload_bits: int = 512,
        ber_acceptance: float = 0.05,
        redundancy_overhead: float = DEFAULT_ANC_REDUNDANCY_OVERHEAD,
        overlap_model: Optional[OverlapModel] = None,
        *,
        rng: np.random.Generator,
        topology_name: str = "chain",
    ) -> None:
        """Plan the chain pipeline along ``path``; see the class docstring."""
        super().__init__(
            topology,
            payload_bits=payload_bits,
            ber_acceptance=ber_acceptance,
            redundancy_overhead=redundancy_overhead,
            rng=rng,
            topology_name=topology_name,
        )
        plan = plan_chain_pipeline(topology, path, coding=coding)
        if packets <= 0:
            raise ConfigurationError("packets must be positive")
        if plan.has_deliberate_collisions and overlap_model is None:
            raise ConfigurationError("a collision plan needs an overlap model")
        self.plan = plan
        self.path = plan.path
        self.packets = int(packets)
        self.overlap_model = overlap_model

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Pipeline the packets down the chain following the plan's phases."""
        plan = self.plan
        length = len(plan.path)
        medium = WirelessMedium(self.topology, rng=self.rng)
        result = RunResult(
            self.topology_name, self.payload_bits, redundancy_overhead=self.redundancy_overhead
        )

        source_node = self.nodes[plan.node_at(1)]
        destination_id = plan.node_at(length)
        packets = [
            source_node.make_packet(destination_id, rng=self.rng)
            for _ in range(self.packets)
        ]
        result.packets_offered = len(packets)

        #: Packet currently held by each interior position (2 .. length-1).
        held: Dict[int, Optional[Packet]] = {pos: None for pos in range(2, length)}
        next_index = 0

        # Bootstrap: the first packet's hand-off to position 2 happens in a
        # dedicated clean slot before the steady-state phase cycle starts.
        waveform = source_node.transmit(packets[next_index])
        slot = medium.deliver(
            [Transmission(sender=plan.node_at(1), waveform=waveform)],
            receivers=[plan.node_at(2)],
        )
        receive = self.nodes[plan.node_at(2)].receive(slot[plan.node_at(2)])
        held[2] = receive.packet if receive.delivered else None
        if held[2] is None:
            result.packets_lost += 1
        next_index += 1

        pending = next_index < len(packets)
        while any(packet is not None for packet in held.values()) or pending:
            for phase in plan.phases:
                pending = next_index < len(packets)
                if not self._run_phase(
                    phase, medium, result, packets, held, next_index, pending
                ):
                    continue
                if 1 in phase.transmit_positions and pending:
                    next_index += 1
            pending = next_index < len(packets)

        result.air_time_samples = medium.air_time
        result.slots_used = medium.slots
        return result

    # ------------------------------------------------------------------
    def _run_phase(
        self,
        phase: PhaseTemplate,
        medium: WirelessMedium,
        result: RunResult,
        packets: List[Packet],
        held: Dict[int, Optional[Packet]],
        next_index: int,
        pending: bool,
    ) -> bool:
        """Execute one phase slot; returns False when nothing transmitted."""
        plan = self.plan
        length = len(plan.path)

        active: List[int] = []
        for position in phase.transmit_positions:
            if position == 1:
                if pending:
                    active.append(position)
            elif held.get(position) is not None:
                active.append(position)
        if not active:
            return False

        # Build the transmissions in ascending position order (this fixes
        # the per-receiver channel-distortion draw order in the medium).
        outgoing: Dict[int, Packet] = {}
        waveforms: List = []
        for position in active:
            if position == 1:
                packet = packets[next_index]
                waveforms.append(self.nodes[plan.node_at(1)].transmit(packet))
            else:
                packet = held[position]
                waveforms.append(self.nodes[plan.node_at(position)].transmit(packet))
            outgoing[position] = packet

        frame_samples = len(waveforms[0])
        offsets = self._draw_offsets(active, frame_samples, result)
        transmissions = [
            Transmission(
                sender=plan.node_at(position),
                waveform=waveform,
                start_offset=offset,
            )
            if offset
            else Transmission(sender=plan.node_at(position), waveform=waveform)
            for position, waveform, offset in zip(active, waveforms, offsets)
        ]

        listeners = [plan.node_at(position) for position in phase.listen_positions]
        slot = medium.deliver(transmissions, receivers=listeners)

        # Transmitted packets leave their positions; receptions below then
        # place them one hop further (or count them delivered / lost).
        for position in active:
            if position != 1:
                held[position] = None

        # Process listeners from the front of the pipeline backwards,
        # matching the destination-first accounting of the 3-hop schedule.
        for position in sorted(phase.listen_positions, reverse=True):
            if (position - 1) not in outgoing:
                continue
            truth = outgoing[position - 1]
            node = self.nodes[plan.node_at(position)]
            receive = node.receive(slot[plan.node_at(position)])
            if position == length:
                if receive.delivered and receive.packet is not None:
                    result.packets_delivered += 1
                else:
                    result.packets_lost += 1
            elif position in phase.collision_positions:
                # Deliberate-collision receiver: ANC decode, judged against
                # the truth with the FEC acceptance; the repaired (original)
                # payload is what travels on.
                ber = decoded_ber(
                    truth.payload,
                    receive.packet.payload if receive.packet is not None else None,
                )
                if receive.interfered:
                    result.packet_bers.append(ber)
                if receive.packet is not None and self.counts_as_delivered(
                    ber, receive.crc_ok
                ):
                    held[position] = truth
                else:
                    held[position] = None
                    result.packets_lost += 1
            else:
                # Clean hand-off: store what was actually decoded and
                # remember it for later interference cancellation.
                if receive.delivered and receive.packet is not None:
                    held[position] = receive.packet
                    node.remember_packet(receive.packet)
                else:
                    held[position] = None
                    result.packets_lost += 1
        return True

    # ------------------------------------------------------------------
    def _draw_offsets(
        self, active: Sequence[int], frame_samples: int, result: RunResult
    ) -> List[int]:
        """Start offsets for the active transmitters of one phase slot.

        Collision-free plans transmit in lockstep (all offsets zero); ANC
        plans chain the overlap model's pairwise draws so every pair of
        transmitters sharing a receiver gets the paper's randomised
        partial overlap, recorded in ``result.overlap_fractions``.
        """
        if len(active) < 2 or not self.plan.has_deliberate_collisions:
            return [0] * len(active)
        offsets: List[int] = [0]
        for _ in range(len(active) - 1):
            first_offset, second_offset = self.overlap_model.draw_offsets(frame_samples)
            offsets.append(offsets[-1] + (second_offset - first_offset))
        for earlier, later, gap_start, gap_end in zip(
            active[:-1], active[1:], offsets[:-1], offsets[1:]
        ):
            if later - earlier == 2:
                result.overlap_fractions.append(
                    1.0 - abs(gap_end - gap_start) / frame_samples
                )
        return offsets
