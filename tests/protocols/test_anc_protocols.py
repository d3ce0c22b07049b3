"""Tests for the ANC relay and chain protocols."""

import numpy as np
import pytest

from repro.channel.interference import OverlapModel
from repro.exceptions import ConfigurationError
from repro.mac.planner import plan_relay_exchange
from repro.network.flows import Flow
from repro.network.topologies import (
    ALICE,
    BOB,
    N1,
    N2,
    N3,
    N4,
    ChannelConditions,
    alice_bob_topology,
    chain_topology,
    x_topology,
)
from repro.protocols.anc import ANCRelayProtocol, default_min_offset
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.scheduled import ChainPipelineProtocol
from repro.protocols.traditional import TraditionalRouting

PAYLOAD = 384
#: The paper's 3-hop chain N1 -> N2 -> N3 -> N4 (Fig. 2).
CHAIN = (1, 2, 3, 4)


def _conditions():
    return ChannelConditions(snr_db=30.0)


def _overlap(seed, mean=0.85):
    return OverlapModel(
        mean_overlap=mean, jitter=0.05, min_offset=default_min_offset(),
        rng=np.random.default_rng(seed),
    )


class TestDefaultMinOffset:
    def test_covers_pilot_and_header(self):
        assert default_min_offset() >= 64 + 48

    def test_margin_parameter(self):
        assert default_min_offset(margin_bits=0) == 64 + 48


class TestANCAliceBob:
    def test_two_slots_per_exchange(self):
        """Fig. 1d: ANC delivers two packets in 2 slots."""
        topo = alice_bob_topology(_conditions(), np.random.default_rng(0))
        result = ANCRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(ALICE, BOB, 4), Flow(BOB, ALICE, 4)),
            payload_bits=PAYLOAD, overlap_model=_overlap(1), rng=np.random.default_rng(1),
        ).run()
        assert result.slots_used == 2 * 4
        assert result.packets_offered == 8

    def test_delivers_packets_with_low_ber(self):
        topo = alice_bob_topology(_conditions(), np.random.default_rng(2))
        result = ANCRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(ALICE, BOB, 5), Flow(BOB, ALICE, 5)),
            payload_bits=PAYLOAD, overlap_model=_overlap(3), rng=np.random.default_rng(3),
        ).run()
        assert result.packets_delivered >= 9
        decoded_bers = [b for b in result.packet_bers if b < 0.5]
        assert decoded_bers
        assert float(np.mean(decoded_bers)) < 0.05

    def test_overlap_fraction_recorded(self):
        topo = alice_bob_topology(_conditions(), np.random.default_rng(4))
        result = ANCRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(ALICE, BOB, 3), Flow(BOB, ALICE, 3)),
            payload_bits=PAYLOAD, overlap_model=_overlap(5, mean=0.8),
            rng=np.random.default_rng(5),
        ).run()
        assert 0.6 < result.mean_overlap < 1.0

    def test_air_time_charges_the_stretched_collision_and_broadcast(self):
        """Each exchange costs (frame + offset) twice, plus the medium's tail padding.

        The uplink slot lasts until the later sender ends; the relay
        rebroadcasts that whole slot, padding included (§11.4).
        """
        topo = alice_bob_topology(_conditions(), np.random.default_rng(6))
        protocol = ANCRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(ALICE, BOB, 3), Flow(BOB, ALICE, 3)),
            payload_bits=PAYLOAD, overlap_model=_overlap(7), rng=np.random.default_rng(7),
        )
        result = protocol.run()
        frame = protocol.nodes[ALICE].frame_samples
        offsets = [round(frame * (1.0 - overlap)) for overlap in result.overlap_fractions]
        assert len(offsets) == 3
        assert result.air_time_samples == sum(2 * (frame + offset) + 32 for offset in offsets)

    def test_beats_traditional_and_cope(self):
        topo = alice_bob_topology(_conditions(), np.random.default_rng(6))
        flow_a, flow_b = Flow(ALICE, BOB, 5), Flow(BOB, ALICE, 5)
        traditional = TraditionalRouting(
            topo, [flow_a, flow_b], payload_bits=PAYLOAD, rng=np.random.default_rng(7)
        ).run()
        plan = plan_relay_exchange(topo, flow_a, flow_b)
        cope = CopeRelayProtocol(
            topo, plan, payload_bits=PAYLOAD, rng=np.random.default_rng(8)
        ).run()
        anc = ANCRelayProtocol(
            topo, plan, payload_bits=PAYLOAD,
            overlap_model=_overlap(9), rng=np.random.default_rng(9),
        ).run()
        assert anc.throughput > cope.throughput > traditional.throughput
        assert anc.throughput / traditional.throughput > 1.3
        assert anc.throughput / cope.throughput > 1.05

    def test_redundancy_overhead_charged(self):
        topo = alice_bob_topology(_conditions(), np.random.default_rng(10))
        result = ANCRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(ALICE, BOB, 2), Flow(BOB, ALICE, 2)),
            payload_bits=PAYLOAD, redundancy_overhead=0.08,
            overlap_model=_overlap(11), rng=np.random.default_rng(11),
        ).run()
        assert result.useful_bits == pytest.approx(
            result.delivered_payload_bits / 1.08
        )

class TestANCXTopology:
    def test_overhearing_enables_decoding(self):
        topo = x_topology(_conditions(), np.random.default_rng(13))
        result = ANCRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(N1, N4, 5), Flow(N3, N2, 5)),
            payload_bits=PAYLOAD,
            overlap_model=_overlap(14), rng=np.random.default_rng(14), topology_name="x",
        ).run()
        assert result.slots_used == 2 * 5
        assert result.packets_delivered >= 6  # overhearing can occasionally fail


class TestANCChain:
    def test_two_slots_per_packet_steady_state(self):
        topo = chain_topology(_conditions(), np.random.default_rng(15))
        packets = 8
        result = ChainPipelineProtocol(
            topo, CHAIN, packets=packets, payload_bits=PAYLOAD,
            overlap_model=_overlap(16), rng=np.random.default_rng(16),
        ).run()
        # 2 slots per packet plus bootstrap/drain overhead.
        assert result.slots_used <= 2 * packets + 3
        assert result.packets_delivered >= packets - 1

    def test_beats_traditional(self):
        topo = chain_topology(_conditions(), np.random.default_rng(17))
        packets = 8
        traditional = TraditionalRouting(
            topo, [Flow(1, 4, packets)], payload_bits=PAYLOAD, rng=np.random.default_rng(18)
        ).run()
        anc = ChainPipelineProtocol(
            topo, CHAIN, packets=packets, payload_bits=PAYLOAD, redundancy_overhead=0.04,
            overlap_model=_overlap(19), rng=np.random.default_rng(19),
        ).run()
        assert anc.throughput > traditional.throughput
        assert anc.throughput / traditional.throughput > 1.1

    def test_ber_lower_than_relay_topology(self):
        """§11.6: decoding at the first receiver avoids amplified noise."""
        conditions = ChannelConditions(snr_db=24.0)
        chain_topo = chain_topology(conditions, np.random.default_rng(20))
        ab_topo = alice_bob_topology(conditions, np.random.default_rng(21))
        chain_result = ChainPipelineProtocol(
            chain_topo, CHAIN, packets=6, payload_bits=PAYLOAD,
            overlap_model=_overlap(22), rng=np.random.default_rng(22),
        ).run()
        ab_result = ANCRelayProtocol(
            ab_topo, plan_relay_exchange(ab_topo, Flow(ALICE, BOB, 6), Flow(BOB, ALICE, 6)),
            payload_bits=PAYLOAD, overlap_model=_overlap(23), rng=np.random.default_rng(23),
        ).run()
        chain_bers = [b for b in chain_result.packet_bers if b < 0.5]
        ab_bers = [b for b in ab_result.packet_bers if b < 0.5]
        assert float(np.mean(chain_bers)) <= float(np.mean(ab_bers)) + 1e-9

    def test_invalid_parameters(self):
        topo = chain_topology(_conditions(), np.random.default_rng(24))
        with pytest.raises(ConfigurationError):
            ChainPipelineProtocol(
                topo, CHAIN, packets=0, payload_bits=PAYLOAD,
                overlap_model=_overlap(24), rng=np.random.default_rng(24),
            )
        with pytest.raises(ConfigurationError):
            ChainPipelineProtocol(
                topo, CHAIN, coding="xor", packets=4, payload_bits=PAYLOAD,
                overlap_model=_overlap(24), rng=np.random.default_rng(24),
            )
