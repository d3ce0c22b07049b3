"""Analog network coding through an amplify-and-forward relay.

:class:`ANCRelayProtocol` runs the Alice–Bob and "X" topologies (§2a,
§11.4, §11.5).  In slot 1 the two senders transmit *simultaneously*
(triggered, with the §7.2 random start offsets); the router receives the
collision and, in slot 2, amplifies and rebroadcasts it.  Each
destination cancels the component it already knows — its own packet
(Alice–Bob) or one it overheard during slot 1 ("X") — and decodes the
other.  Two slots deliver two packets.

The protocol runs the :class:`~repro.mac.planner.RelayExchangePlan` it
is given: the plan names the relay, who listens to the collision and
how each destination gets its side information, and COPE runs the same
plan.  The relay is a plain node; its rebroadcast is
:func:`~repro.channel.relay.amplify_and_forward` at the common transmit
power.  ANC on a chain (§2b, §11.6) is the planner's stride-2 schedule,
run by :class:`~repro.protocols.scheduled.ChainPipelineProtocol`.

The paper's *incomplete overlap* requirement holds throughout: the
caller's :class:`~repro.channel.interference.OverlapModel` is built with
``min_offset=default_min_offset()``, so the second packet never starts
before the first packet's pilot and header have gone out
interference-free (§7.2).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.anc.pipeline import ReceiveOutcome
from repro.channel.interference import OverlapModel
from repro.channel.relay import amplify_and_forward
from repro.constants import DEFAULT_ANC_REDUNDANCY_OVERHEAD, DEFAULT_TX_AMPLITUDE
from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.framing.pilot import PilotSequence
from repro.mac.planner import RelayExchangePlan
from repro.network.medium import Transmission, WirelessMedium
from repro.network.topology import Topology
from repro.protocols.base import ProtocolRun, RunResult
from repro.utils.bits import decoded_ber


def default_min_offset(margin_bits: int = 24) -> int:
    """Smallest collision offset that keeps pilot + header interference-free.

    The paper's randomisation scheme deliberately prevents complete overlap
    so that the synchronisation fields at the start of the first packet and
    the end of the second stay clean (§7.2); this returns that minimum in
    samples (one sample per bit plus a safety margin).
    """
    return PilotSequence().length + Header.ENCODED_LENGTH + int(margin_bits)


class ANCRelayProtocol(ProtocolRun):
    """Analog network coding through an amplify-and-forward router.

    It executes a :class:`~repro.mac.planner.RelayExchangePlan`, so the
    same class serves the canonical figures and any crossing flow pair
    the mesh scheduler finds.
    """

    def __init__(
        self,
        topology: Topology,
        plan: RelayExchangePlan,
        payload_bits: int = 512,
        ber_acceptance: float = 0.05,
        redundancy_overhead: float = DEFAULT_ANC_REDUNDANCY_OVERHEAD,
        *,
        overlap_model: OverlapModel,
        rng: np.random.Generator,
        topology_name: str = "alice_bob",
    ) -> None:
        super().__init__(
            topology,
            payload_bits=payload_bits,
            ber_acceptance=ber_acceptance,
            redundancy_overhead=redundancy_overhead,
            rng=rng,
            topology_name=topology_name,
        )
        self.plan = plan
        self.overlap_model = overlap_model

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute every two-slot exchange and return the run's accounting."""
        medium = WirelessMedium(self.topology, rng=self.rng)
        result = RunResult(
            self.topology_name, self.payload_bits, redundancy_overhead=self.redundancy_overhead
        )
        for _ in range(self.plan.flow_a.packets):
            self._run_exchange(medium, result)
        result.air_time_samples = medium.air_time
        result.slots_used = medium.slots
        return result

    # ------------------------------------------------------------------
    def _run_exchange(self, medium: WirelessMedium, result: RunResult) -> None:
        plan = self.plan
        src_a, dst_a = plan.flow_a.source, plan.flow_a.destination
        src_b, dst_b = plan.flow_b.source, plan.flow_b.destination
        node_a = self.nodes[src_a]
        node_b = self.nodes[src_b]
        packet_a = node_a.make_packet(dst_a, rng=self.rng)
        packet_b = node_b.make_packet(dst_b, rng=self.rng)
        result.packets_offered += 2

        # Slot 1: the plan's deliberately concurrent uplink transmissions.
        waveform_a = node_a.transmit(packet_a)
        waveform_b = node_b.transmit(packet_b)
        frame_samples = len(waveform_a)
        first_offset, second_offset = self.overlap_model.draw_offsets(frame_samples)
        if self.rng.uniform() < 0.5:
            offset_a, offset_b = first_offset, second_offset
        else:
            offset_a, offset_b = second_offset, first_offset
        result.overlap_fractions.append(
            1.0 - abs(offset_a - offset_b) / frame_samples
        )

        uplink = medium.deliver(
            [
                Transmission(sender=src_a, waveform=waveform_a, start_offset=offset_a),
                Transmission(sender=src_b, waveform=waveform_b, start_offset=offset_b),
            ],
            receivers=list(plan.uplink_receivers),
        )

        # Destinations the plan marks as "overhear" must snoop the uplink
        # collision to learn the packet they will later cancel.
        overheard: Dict[int, bool] = {}
        if plan.side_info[dst_b] == "overhear":
            overheard[dst_b] = self._try_overhear(dst_b, uplink[dst_b], packet_a)
        if plan.side_info[dst_a] == "overhear":
            overheard[dst_a] = self._try_overhear(dst_a, uplink[dst_a], packet_b)

        # Slot 2: the router amplifies the collision and broadcasts it.
        broadcast = amplify_and_forward(uplink[plan.relay], DEFAULT_TX_AMPLITUDE ** 2)
        downlink = medium.deliver(
            [Transmission(sender=plan.relay, waveform=broadcast)],
            receivers=list(plan.downlink_receivers),
        )

        self._account_destination(
            result,
            destination=dst_a,
            waveform=downlink[dst_a],
            truth=packet_a,
            side_available=plan.side_info[dst_a] == "reverse" or overheard.get(dst_a, False),
        )
        self._account_destination(
            result,
            destination=dst_b,
            waveform=downlink[dst_b],
            truth=packet_b,
            side_available=plan.side_info[dst_b] == "reverse" or overheard.get(dst_b, False),
        )

    # ------------------------------------------------------------------
    def _try_overhear(self, listener: int, waveform, truth: Packet) -> bool:
        """A destination snoops on the concurrent uplink slot ("X" topology).

        The overheard signal may itself be degraded by the other sender's
        weak cross interference; a failed overhear means the later ANC
        decode has no known signal to cancel, so that packet is lost —
        exactly the effect §11.5 blames for the "X" topology's slightly
        lower gain and heavier BER tail.
        """
        node = self.nodes[listener]
        outcome = node.receive(waveform)
        if outcome.packet is None or outcome.packet.identity != truth.identity:
            return False
        ber = decoded_ber(truth.payload, outcome.packet.payload)
        if not self.counts_as_delivered(ber, outcome.crc_ok):
            return False
        # Within FEC reach: the corrected copy is the original packet, and
        # that corrected copy is what the node keeps for cancellation.
        node.remember_packet(truth if ber > 0 else outcome.packet)
        return True

    def _account_destination(
        self,
        result: RunResult,
        destination: int,
        waveform,
        truth: Packet,
        side_available: bool,
    ) -> None:
        """Decode the relayed collision at one destination and record the outcome."""
        if not side_available:
            result.packets_lost += 1
            result.packet_bers.append(0.5)
            return
        outcome = self.nodes[destination].receive(waveform)
        if outcome.outcome != ReceiveOutcome.ANC_DECODED or outcome.packet is None:
            result.packets_lost += 1
            result.packet_bers.append(0.5)
            return
        ber = decoded_ber(truth.payload, outcome.packet.payload)
        result.packet_bers.append(ber)
        if self.counts_as_delivered(ber, outcome.crc_ok):
            result.packets_delivered += 1
        else:
            result.packets_lost += 1
