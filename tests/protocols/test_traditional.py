"""Tests for the traditional routing baseline."""

import numpy as np
import pytest

from repro.network.flows import Flow
from repro.network.topologies import (
    ALICE,
    BOB,
    ChannelConditions,
    alice_bob_topology,
    chain_topology,
)
from repro.protocols.traditional import TraditionalRouting

PAYLOAD = 256


def _conditions():
    return ChannelConditions(snr_db=30.0)


class TestTraditionalAliceBob:
    def test_delivers_all_packets(self):
        topo = alice_bob_topology(_conditions(), np.random.default_rng(0))
        flows = [Flow(ALICE, BOB, 3), Flow(BOB, ALICE, 3)]
        result = TraditionalRouting(
            topo, flows, payload_bits=PAYLOAD, rng=np.random.default_rng(1),
            topology_name="alice_bob",
        ).run()
        assert result.packets_offered == 6
        assert result.packets_delivered == 6
        assert result.packets_lost == 0

    def test_four_slots_per_exchange(self):
        """Two packets (one per direction) need 4 transmission slots (Fig. 1b)."""
        topo = alice_bob_topology(_conditions(), np.random.default_rng(2))
        flows = [Flow(ALICE, BOB, 5), Flow(BOB, ALICE, 5)]
        result = TraditionalRouting(
            topo, flows, payload_bits=PAYLOAD, rng=np.random.default_rng(3)
        ).run()
        assert result.slots_used == 4 * 5

    def test_air_time_is_slots_times_frame(self):
        topo = alice_bob_topology(_conditions(), np.random.default_rng(4))
        flows = [Flow(ALICE, BOB, 2), Flow(BOB, ALICE, 2)]
        protocol = TraditionalRouting(
            topo, flows, payload_bits=PAYLOAD, rng=np.random.default_rng(5)
        )
        result = protocol.run()
        frame_samples = protocol.nodes[ALICE].frame_samples
        assert result.air_time_samples == result.slots_used * frame_samples

    def test_throughput_positive(self):
        topo = alice_bob_topology(_conditions(), np.random.default_rng(6))
        result = TraditionalRouting(
            topo, [Flow(ALICE, BOB, 2)], payload_bits=PAYLOAD, rng=np.random.default_rng(7)
        ).run()
        assert result.throughput > 0

    def test_no_ber_samples_for_clean_routing(self):
        topo = alice_bob_topology(_conditions(), np.random.default_rng(8))
        result = TraditionalRouting(
            topo, [Flow(ALICE, BOB, 2)], payload_bits=PAYLOAD, rng=np.random.default_rng(9)
        ).run()
        assert result.packet_bers == []
        assert result.mean_ber == 0.0


class TestTraditionalChain:
    def test_three_slots_per_packet(self):
        topo = chain_topology(_conditions(), np.random.default_rng(10))
        result = TraditionalRouting(
            topo, [Flow(1, 4, 4)], payload_bits=PAYLOAD, rng=np.random.default_rng(11),
            topology_name="chain",
        ).run()
        assert result.slots_used == 3 * 4
        assert result.packets_delivered == 4

    def test_requires_at_least_one_flow(self):
        topo = chain_topology(_conditions(), np.random.default_rng(12))
        with pytest.raises(ValueError):
            TraditionalRouting(topo, [], payload_bits=PAYLOAD, rng=np.random.default_rng(12))
