"""Digital network coding baseline (COPE, §11.1b).

The relay collects one packet from each of two crossing flows — in
separate, collision-free slots — XORs their payloads and broadcasts the
XOR-ed packet once.  Each destination recovers the packet it wants by
XOR-ing again with the packet it already has:

* in the Alice–Bob topology each endpoint uses its *own* packet (it is the
  source of the reverse flow), and
* in the "X" topology each destination uses the packet it *overheard* from
  the nearby sender in the sender's clean uplink slot.

:class:`CopeRelayProtocol` runs the same
:class:`~repro.mac.planner.RelayExchangePlan` as ANC: the plan names the
relay and each destination's side information.  Three slots deliver two
packets, versus four for traditional routing — COPE's 4/3 advantage —
and every transmission is a clean one, which is why the paper's COPE
numbers have essentially no residual BER.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.anc.pipeline import ReceiveOutcome
from repro.framing.packet import Packet
from repro.mac.planner import RelayExchangePlan
from repro.network.medium import Transmission, WirelessMedium
from repro.network.topology import Topology
from repro.protocols.base import ProtocolRun, RunResult
from repro.utils.bits import decoded_ber


class CopeRelayProtocol(ProtocolRun):
    """XOR-in-the-router network coding for two flows crossing at a relay."""

    def __init__(
        self,
        topology: Topology,
        plan: RelayExchangePlan,
        payload_bits: int = 512,
        ber_acceptance: float = 0.05,
        *,
        rng: np.random.Generator,
        topology_name: str = "alice_bob",
    ) -> None:
        super().__init__(
            topology,
            payload_bits=payload_bits,
            ber_acceptance=ber_acceptance,
            redundancy_overhead=0.0,
            rng=rng,
            topology_name=topology_name,
        )
        self.plan = plan

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute every coded exchange and return the run's accounting."""
        medium = WirelessMedium(self.topology, rng=self.rng)
        result = RunResult(self.topology_name, self.payload_bits)
        for _ in range(self.plan.flow_a.packets):
            self._run_exchange(medium, result)
        result.air_time_samples = medium.air_time
        result.slots_used = medium.slots
        return result

    # ------------------------------------------------------------------
    def _uplink(
        self,
        medium: WirelessMedium,
        sender_id: int,
        packet: Packet,
        overhearer: int,
    ) -> Tuple[Optional[Packet], Optional[Packet]]:
        """One clean uplink slot: the relay receives; ``overhearer`` snoops if the plan says so."""
        relay_id = self.plan.relay
        sender = self.nodes[sender_id]
        waveform = sender.transmit(packet)
        snoops = self.plan.side_info[overhearer] == "overhear"
        receivers = [relay_id, overhearer] if snoops else [relay_id]
        slot = medium.deliver(
            [Transmission(sender=sender_id, waveform=waveform)], receivers=receivers
        )
        relay_result = self.nodes[relay_id].receive(slot[relay_id])
        relay_packet = relay_result.packet if relay_result.delivered else None
        overheard_packet = None
        if snoops:
            ov_result = self.nodes[overhearer].receive(slot[overhearer])
            if ov_result.delivered:
                overheard_packet = ov_result.packet
                # Remember the overheard frame (useful to ANC; harmless here).
                self.nodes[overhearer].remember_packet(ov_result.packet)
        return relay_packet, overheard_packet

    def _run_exchange(self, medium: WirelessMedium, result: RunResult) -> None:
        """Three slots: two clean uplinks and one XOR broadcast."""
        plan = self.plan
        src_a, dst_a = plan.flow_a.source, plan.flow_a.destination
        src_b, dst_b = plan.flow_b.source, plan.flow_b.destination
        node_a = self.nodes[src_a]
        node_b = self.nodes[src_b]
        packet_a = node_a.make_packet(dst_a, rng=self.rng)
        packet_b = node_b.make_packet(dst_b, rng=self.rng)
        result.packets_offered += 2

        # The destination of flow B may overhear source A, and vice versa.
        relay_a, overheard_by_dst_b = self._uplink(medium, src_a, packet_a, dst_b)
        relay_b, overheard_by_dst_a = self._uplink(medium, src_b, packet_b, dst_a)

        if relay_a is None or relay_b is None:
            # The relay failed to receive one of the packets: nothing to code.
            result.packets_lost += 2
            return

        # The relay XORs the two payloads and broadcasts the coded packet.
        relay_id = plan.relay
        relay_node = self.nodes[relay_id]
        xor_payload = relay_a.xor_payload(relay_b)
        coded = Packet(
            source=relay_id,
            destination=0 if relay_id != 0 else 255,
            sequence=relay_node.next_sequence(),
            payload=xor_payload,
        )
        waveform = relay_node.transmit(coded)
        slot = medium.deliver(
            [Transmission(sender=relay_id, waveform=waveform)],
            receivers=list(plan.downlink_receivers),
        )

        # A "reverse" destination sent the paired packet itself.
        reverse_a = plan.side_info[dst_a] == "reverse"
        reverse_b = plan.side_info[dst_b] == "reverse"
        delivered_a = self._decode_at_destination(
            destination=dst_a,
            coded_slot_waveform=slot[dst_a],
            side_packet=packet_b if reverse_a else overheard_by_dst_a,
            truth=packet_a,
        )
        delivered_b = self._decode_at_destination(
            destination=dst_b,
            coded_slot_waveform=slot[dst_b],
            side_packet=packet_a if reverse_b else overheard_by_dst_b,
            truth=packet_b,
        )
        for delivered in (delivered_a, delivered_b):
            if delivered:
                result.packets_delivered += 1
            else:
                result.packets_lost += 1

    def _decode_at_destination(
        self,
        destination: int,
        coded_slot_waveform,
        side_packet: Optional[Packet],
        truth: Packet,
    ) -> bool:
        """XOR the received coded payload with the side packet and check it."""
        if side_packet is None:
            return False
        receive = self.nodes[destination].receive(coded_slot_waveform)
        if receive.outcome != ReceiveOutcome.CLEAN_DECODED or not receive.delivered:
            return False
        recovered = np.bitwise_xor(receive.packet.payload, side_packet.payload).astype(np.uint8)
        return decoded_ber(truth.payload, recovered) <= self.ber_acceptance
