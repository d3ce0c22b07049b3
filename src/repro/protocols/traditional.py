"""Traditional store-and-forward routing ("No Coding", §11.1a).

Every packet travels its shortest path one hop per slot, with the optimal
MAC scheduling exactly one transmission per slot so there are never
collisions or backoffs.  The implementation is fully signal-level: every
hop is a real MSK transmission over the simulated medium, decoded by the
receiving node's pipeline — so the baseline pays for channel noise exactly
like ANC does, just never for interference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.anc.pipeline import ReceiveOutcome
from repro.network.flows import Flow
from repro.network.medium import Transmission, WirelessMedium
from repro.network.topology import Topology
from repro.protocols.base import ProtocolRun, RunResult


class TraditionalRouting(ProtocolRun):
    """Shortest-path routing with one transmission per slot."""

    def __init__(
        self,
        topology: Topology,
        flows: Sequence[Flow],
        payload_bits: int = 512,
        ber_acceptance: float = 0.05,
        *,
        rng: np.random.Generator,
        topology_name: str = "generic",
    ) -> None:
        """Route ``flows`` over ``topology``; at least one flow is required."""
        super().__init__(
            topology,
            payload_bits=payload_bits,
            ber_acceptance=ber_acceptance,
            redundancy_overhead=0.0,
            rng=rng,
            topology_name=topology_name,
        )
        if not flows:
            raise ValueError("at least one flow is required")
        self.flows = list(flows)

    def run(self) -> RunResult:
        """Deliver every flow's packets hop by hop and account the air time."""
        medium = WirelessMedium(self.topology, rng=self.rng)
        result = RunResult(self.topology_name, self.payload_bits)

        # Interleave the flows round-robin, matching the fair time-sharing
        # assumed by the capacity analysis (§8).
        remaining = [[flow, flow.packets] for flow in self.flows]
        while any(count > 0 for _, count in remaining):
            for entry in remaining:
                flow, count = entry
                if count <= 0:
                    continue
                delivered = self._send_one_packet(flow, medium)
                result.packets_offered += 1
                if delivered:
                    result.packets_delivered += 1
                else:
                    result.packets_lost += 1
                entry[1] = count - 1

        result.air_time_samples = medium.air_time
        result.slots_used = medium.slots
        return result

    # ------------------------------------------------------------------
    def _send_one_packet(self, flow: Flow, medium: WirelessMedium) -> bool:
        """Push one packet along the flow's path, one hop per slot."""
        path = self.topology.shortest_path(flow.source, flow.destination)
        source_node = self.nodes[flow.source]
        packet = source_node.make_packet(flow.destination, rng=self.rng)
        current_packet = packet
        for hop_index in range(len(path) - 1):
            sender_id = path[hop_index]
            receiver_id = path[hop_index + 1]
            sender = self.nodes[sender_id]
            waveform = sender.transmit(current_packet)
            slot = medium.deliver(
                [Transmission(sender=sender_id, waveform=waveform)],
                receivers=[receiver_id],
            )
            outcome = self.nodes[receiver_id].receive(slot[receiver_id])
            if outcome.outcome != ReceiveOutcome.CLEAN_DECODED or not outcome.delivered:
                return False
            current_packet = outcome.packet
        return current_packet.payload_equals(packet)
