"""Integration tests exercising the full stack across modules.

These recreate the paper's canonical scenarios end to end — transmitter
chain, medium, relay behaviour, receiver chain — and check the system-level
claims (packets recovered from deliberate collisions, throughput ordering
ANC > COPE > traditional, hidden-terminal immunity in the chain).
"""

import numpy as np

from repro.anc.pipeline import ReceiveOutcome
from repro.channel.interference import OverlapModel
from repro.channel.relay import amplify_and_forward
from repro.constants import DEFAULT_TX_AMPLITUDE
from repro.mac.planner import plan_relay_exchange
from repro.network.flows import Flow
from repro.network.medium import Transmission, WirelessMedium
from repro.network.topologies import (
    ALICE,
    BOB,
    N1,
    N2,
    N3,
    N4,
    N5,
    RELAY,
    ChannelConditions,
    alice_bob_topology,
    chain_topology,
    x_topology,
)
from repro.node.node import Node, NodeConfig
from repro.protocols.anc import ANCRelayProtocol
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.scheduled import ChainPipelineProtocol
from repro.protocols.traditional import TraditionalRouting

PAYLOAD = 384
#: The paper's 3-hop chain N1 -> N2 -> N3 -> N4 (Fig. 2).
CHAIN = (1, 2, 3, 4)


def _overlap(seed):
    return OverlapModel(mean_overlap=0.85, jitter=0.05, rng=np.random.default_rng(seed))


class TestAliceBobExchangeManual:
    """Drive one full Alice-Bob ANC exchange by hand through the medium."""

    def test_both_directions_recovered(self):
        conditions = ChannelConditions(snr_db=28.0)
        rng = np.random.default_rng(42)
        topology = alice_bob_topology(conditions, rng)
        config = NodeConfig(payload_bits=PAYLOAD, noise_power=conditions.noise_power)
        alice = Node(ALICE, config)
        bob = Node(BOB, config)
        relay = Node(RELAY, config)
        medium = WirelessMedium(topology, rng=rng)

        packet_a = alice.make_packet(BOB, rng)
        packet_b = bob.make_packet(ALICE, rng)
        wave_a = alice.transmit(packet_a)
        wave_b = bob.transmit(packet_b)
        offsets = _overlap(1).draw_offsets(len(wave_a))

        # Slot 1: deliberate collision at the router.
        uplink = medium.deliver(
            [
                Transmission(ALICE, wave_a, offsets[0]),
                Transmission(BOB, wave_b, offsets[1]),
            ],
            receivers=[RELAY],
        )
        # The relay knows neither packet, so it amplifies the collision.
        assert relay.receive(uplink[RELAY]).outcome == ReceiveOutcome.NEEDS_RELAY
        broadcast = amplify_and_forward(uplink[RELAY], DEFAULT_TX_AMPLITUDE ** 2)

        # Slot 2: the relay broadcasts the amplified collision.
        downlink = medium.deliver(
            [Transmission(RELAY, broadcast)], receivers=[ALICE, BOB]
        )
        alice_result = alice.receive(downlink[ALICE])
        bob_result = bob.receive(downlink[BOB])

        assert alice_result.outcome == ReceiveOutcome.ANC_DECODED
        assert bob_result.outcome == ReceiveOutcome.ANC_DECODED
        assert alice_result.packet.identity == packet_b.identity
        assert bob_result.packet.identity == packet_a.identity
        assert np.mean(alice_result.packet.payload != packet_b.payload) < 0.05
        assert np.mean(bob_result.packet.payload != packet_a.payload) < 0.05
        # Two packets crossed the network in exactly two slots.
        assert medium.slots == 2


class TestThroughputOrdering:
    def test_alice_bob_ordering_matches_paper(self):
        conditions = ChannelConditions(snr_db=28.0)
        topology = alice_bob_topology(conditions, np.random.default_rng(7))
        flow_a, flow_b = Flow(ALICE, BOB, 6), Flow(BOB, ALICE, 6)
        traditional = TraditionalRouting(
            topology, [flow_a, flow_b], payload_bits=PAYLOAD, rng=np.random.default_rng(8)
        ).run()
        plan = plan_relay_exchange(topology, flow_a, flow_b)
        cope = CopeRelayProtocol(
            topology, plan, payload_bits=PAYLOAD, rng=np.random.default_rng(9)
        ).run()
        anc = ANCRelayProtocol(
            topology, plan, payload_bits=PAYLOAD,
            overlap_model=_overlap(10), rng=np.random.default_rng(10),
        ).run()
        # The paper's headline ordering (§11.3).
        assert anc.throughput > cope.throughput > traditional.throughput
        assert 1.3 < anc.throughput / traditional.throughput < 2.0
        assert 1.0 < anc.throughput / cope.throughput < 1.5

    def test_x_topology_ordering(self):
        conditions = ChannelConditions(snr_db=28.0)
        topology = x_topology(conditions, np.random.default_rng(11))
        flow_a, flow_b = Flow(N1, N4, 6), Flow(N3, N2, 6)
        traditional = TraditionalRouting(
            topology, [flow_a, flow_b], payload_bits=PAYLOAD, rng=np.random.default_rng(12)
        ).run()
        plan = plan_relay_exchange(topology, flow_a, flow_b)
        assert plan.relay == N5
        anc = ANCRelayProtocol(
            topology, plan, payload_bits=PAYLOAD,
            overlap_model=_overlap(13), rng=np.random.default_rng(13), topology_name="x",
        ).run()
        assert anc.throughput > traditional.throughput


class TestChainPipeline:
    def test_packets_traverse_three_hops_in_two_slots(self):
        conditions = ChannelConditions(snr_db=28.0)
        topology = chain_topology(conditions, np.random.default_rng(14))
        packets = 6
        anc = ChainPipelineProtocol(
            topology, CHAIN, packets=packets, payload_bits=PAYLOAD,
            overlap_model=_overlap(15), rng=np.random.default_rng(15),
        ).run()
        assert anc.packets_delivered >= packets - 1
        # Steady state approaches 2 slots per packet (plus bootstrap).
        assert anc.slots_used <= 2 * packets + 3
        # The middle node decoded collisions, so interfered BER samples exist.
        assert len(anc.packet_bers) >= packets - 2

    def test_hidden_terminal_is_harmless(self):
        """N1 and N3 transmit together, yet N2 still gets N1's packet (§2b)."""
        conditions = ChannelConditions(snr_db=28.0)
        rng = np.random.default_rng(16)
        topology = chain_topology(conditions, rng)
        config = NodeConfig(payload_bits=PAYLOAD, noise_power=conditions.noise_power)
        n1, n2, n3 = Node(1, config), Node(2, config), Node(3, config)
        medium = WirelessMedium(topology, rng=rng)

        # N2 previously forwarded packet P to N3, so it knows P.
        old_packet = n1.make_packet(4, rng)
        n2.remember_packet(old_packet)
        forwarded_wave = n3.transmit(old_packet)
        new_packet = n1.make_packet(4, rng)
        new_wave = n1.transmit(new_packet)

        offsets = _overlap(17).draw_offsets(len(new_wave))
        slot = medium.deliver(
            [
                Transmission(1, new_wave, offsets[0]),
                Transmission(3, forwarded_wave, offsets[1]),
            ],
            receivers=[2, 4],
        )
        result = n2.receive(slot[2])
        assert result.outcome == ReceiveOutcome.ANC_DECODED
        assert result.packet.identity == new_packet.identity
        assert np.mean(result.packet.payload != new_packet.payload) < 0.05
