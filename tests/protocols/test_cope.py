"""Tests for the COPE digital network coding baseline."""

import numpy as np
import pytest

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
    x_topology,
)
from repro.protocols.cope import CopeRelayProtocol

PAYLOAD = 256


def _conditions():
    return ChannelConditions(snr_db=30.0)


class TestCopeAliceBob:
    def test_three_slots_per_exchange(self):
        """Fig. 1c: COPE delivers two packets in 3 slots."""
        topo = alice_bob_topology(_conditions(), np.random.default_rng(0))
        result = CopeRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(ALICE, BOB, 4), Flow(BOB, ALICE, 4)),
            payload_bits=PAYLOAD, rng=np.random.default_rng(1),
        ).run()
        assert result.slots_used == 3 * 4
        assert result.packets_offered == 8
        assert result.packets_delivered == 8

    def test_air_time_is_slots_times_frame(self):
        """Every COPE slot carries one frame of the same length, at offset 0."""
        topo = alice_bob_topology(_conditions(), np.random.default_rng(2))
        protocol = CopeRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(ALICE, BOB, 2), Flow(BOB, ALICE, 2)),
            payload_bits=PAYLOAD, rng=np.random.default_rng(3),
        )
        result = protocol.run()
        assert result.air_time_samples == result.slots_used * protocol.nodes[ALICE].frame_samples

    def test_throughput_beats_traditional(self):
        from repro.protocols.traditional import TraditionalRouting

        topo = alice_bob_topology(_conditions(), np.random.default_rng(2))
        flows = [Flow(ALICE, BOB, 4), Flow(BOB, ALICE, 4)]
        traditional = TraditionalRouting(
            topo, flows, payload_bits=PAYLOAD, rng=np.random.default_rng(3)
        ).run()
        cope = CopeRelayProtocol(
            topo, plan_relay_exchange(topo, flows[0], flows[1]), payload_bits=PAYLOAD,
            rng=np.random.default_rng(4),
        ).run()
        gain = cope.throughput / traditional.throughput
        # The theoretical COPE gain for this topology is 4/3.
        assert gain == pytest.approx(4 / 3, rel=0.05)

class TestCopeXTopology:
    def test_overhearing_delivery(self):
        topo = x_topology(_conditions(), np.random.default_rng(6))
        result = CopeRelayProtocol(
            topo, plan_relay_exchange(topo, Flow(N1, N4, 4), Flow(N3, N2, 4)),
            payload_bits=PAYLOAD,
            rng=np.random.default_rng(7), topology_name="x",
        ).run()
        assert result.packets_offered == 8
        # Overhearing on clean uplink slots succeeds essentially always.
        assert result.packets_delivered >= 7
        assert result.slots_used == 3 * 4
