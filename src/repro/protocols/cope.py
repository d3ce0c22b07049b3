"""Digital network coding baseline (COPE, §11.1b).

The relay collects one packet from each of two crossing flows — in
separate, collision-free slots — XORs their payloads and broadcasts the
XOR-ed packet once.  Each destination recovers the packet it wants by
XOR-ing again with the packet it already has:

* in the Alice–Bob topology each endpoint uses its *own* packet (it is the
  source of the reverse flow), and
* in the "X" topology each destination uses the packet it *overheard* from
  the nearby sender in the sender's clean uplink slot.

Three slots deliver two packets, versus four for traditional routing —
COPE's 4/3 advantage — and every transmission is a clean one, which is why
the paper's COPE numbers have essentially no residual BER.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.anc.pipeline import ReceiveOutcome
from repro.framing.packet import Packet
from repro.network.flows import Flow
from repro.network.medium import Transmission, WirelessMedium
from repro.network.topology import Topology
from repro.protocols.base import ProtocolRun, fresh_run_result, RunResult
from repro.utils.bits import decoded_ber


class CopeRelayProtocol(ProtocolRun):
    """XOR-in-the-router network coding for two flows crossing at a relay."""

    def __init__(
        self,
        topology: Topology,
        relay: int,
        flow_a: Flow,
        flow_b: Flow,
        payload_bits: int = 512,
        ber_acceptance: float = 0.05,
        overhearing: bool = False,
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
        )
        if flow_a.packets != flow_b.packets:
            raise ValueError("COPE pairing requires both flows to carry the same packet count")
        self.relay_id = int(relay)
        self.flow_a = flow_a
        self.flow_b = flow_b
        self.overhearing = bool(overhearing)
        self.topology_name = topology_name
        for node_id in topology.nodes:
            self.make_node(node_id)
        self.make_relay(self.relay_id)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute every coded exchange and return the run's accounting."""
        medium = WirelessMedium(self.topology, rng=self.rng)
        result = fresh_run_result(self, self.topology_name)
        for _ in range(self.flow_a.packets):
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
        overhearer: Optional[int],
    ) -> Tuple[Optional[Packet], Optional[Packet]]:
        """One clean uplink slot: relay receives, an optional overhearer snoops."""
        sender = self.nodes[sender_id]
        waveform = sender.transmit(packet)
        receivers = [self.relay_id]
        if overhearer is not None:
            receivers.append(overhearer)
        slot = medium.deliver(
            [Transmission(sender=sender_id, waveform=waveform)], receivers=receivers
        )
        relay_result = self.nodes[self.relay_id].receive(slot[self.relay_id])
        relay_packet = relay_result.packet if relay_result.delivered else None
        overheard_packet = None
        if overhearer is not None:
            ov_result = self.nodes[overhearer].receive(slot[overhearer])
            if ov_result.delivered:
                overheard_packet = ov_result.packet
                # Remember the overheard frame (useful to ANC; harmless here).
                self.nodes[overhearer].remember_packet(ov_result.packet)
        return relay_packet, overheard_packet

    def _run_exchange(self, medium: WirelessMedium, result: RunResult) -> None:
        """Three slots: two clean uplinks and one XOR broadcast."""
        src_a, dst_a = self.flow_a.source, self.flow_a.destination
        src_b, dst_b = self.flow_b.source, self.flow_b.destination
        node_a = self.nodes[src_a]
        node_b = self.nodes[src_b]
        packet_a = node_a.make_packet(dst_a, rng=self.rng)
        packet_b = node_b.make_packet(dst_b, rng=self.rng)
        result.packets_offered += 2

        overhear_a = dst_b if self.overhearing else None  # dst of flow B hears src A
        overhear_b = dst_a if self.overhearing else None
        relay_a, overheard_by_dst_b = self._uplink(medium, src_a, packet_a, overhear_a)
        relay_b, overheard_by_dst_a = self._uplink(medium, src_b, packet_b, overhear_b)

        if relay_a is None or relay_b is None:
            # The relay failed to receive one of the packets: nothing to code.
            result.packets_lost += 2
            return

        # The relay XORs the two payloads and broadcasts the coded packet.
        relay_node = self.nodes[self.relay_id]
        xor_payload = relay_a.xor_payload(relay_b)
        coded = Packet(
            source=self.relay_id,
            destination=0 if self.relay_id != 0 else 255,
            sequence=relay_node.next_sequence(),
            payload=xor_payload,
        )
        waveform = relay_node.transmit(coded)
        slot = medium.deliver(
            [Transmission(sender=self.relay_id, waveform=waveform)],
            receivers=[dst_a, dst_b],
        )

        delivered_a = self._decode_at_destination(
            destination=dst_a,
            coded_slot_waveform=slot[dst_a],
            side_packet=packet_b if not self.overhearing else overheard_by_dst_a,
            truth=packet_a,
        )
        delivered_b = self._decode_at_destination(
            destination=dst_b,
            coded_slot_waveform=slot[dst_b],
            side_packet=packet_a if not self.overhearing else overheard_by_dst_b,
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
