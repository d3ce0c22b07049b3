"""Tests for the ANC-aware schedule planner."""

import numpy as np
import pytest

from repro.channel.link import Link
from repro.exceptions import ConfigurationError, TopologyError
from repro.mac.planner import (
    plan_chain_pipeline,
    plan_mesh_exchanges,
    plan_relay_exchange,
)
from repro.network.flows import Flow
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
from repro.network.topology import Topology

CONDITIONS = ChannelConditions(snr_db=28.0)


def _chain(hops, seed=0):
    return chain_topology(CONDITIONS, np.random.default_rng(seed), hops=hops)


def _star(leaves):
    """``leaves`` endpoints around router 0, each in range of the router only."""
    topo = Topology()
    for node in range(leaves + 1):
        topo.add_node(node)
    for leaf in range(1, leaves + 1):
        topo.add_symmetric_link(leaf, 0, Link())
    return topo


class TestChainPipelinePlan:
    def test_canonical_3_hop_anc_schedule(self):
        """The planner must derive the paper's hand-coded Fig. 12 schedule."""
        plan = plan_chain_pipeline(_chain(3), (1, 2, 3, 4), coding="anc")
        assert plan.stride == 2
        assert plan.has_deliberate_collisions
        assert len(plan.phases) == 2
        forward, inject = plan.phases
        assert forward.transmit_positions == (2,)
        assert forward.listen_positions == (3,)
        assert forward.collision_positions == ()
        assert inject.transmit_positions == (1, 3)
        assert inject.listen_positions == (2, 4)
        assert inject.collision_positions == (2,)

    def test_anc_collisions_grow_with_chain_length(self):
        plan = plan_chain_pipeline(_chain(7), tuple(range(1, 9)), coding="anc")
        all_collisions = [p for phase in plan.phases for p in phase.collision_positions]
        # Positions 2..6 all capture deliberate collisions somewhere in the cycle.
        assert sorted(all_collisions) == [2, 3, 4, 5, 6]

    def test_plain_schedule_is_collision_free(self):
        for hops in (2, 3, 5, 8):
            plan = plan_chain_pipeline(
                _chain(hops), tuple(range(1, hops + 2)), coding="plain"
            )
            assert plan.stride == 3
            assert not plan.has_deliberate_collisions
            for phase in plan.phases:
                # No two transmit candidates share a listener's ear.
                for p in phase.transmit_positions:
                    assert p + 2 not in phase.transmit_positions

    def test_every_position_transmits_somewhere(self):
        for coding in ("anc", "plain"):
            plan = plan_chain_pipeline(_chain(6), tuple(range(1, 8)), coding=coding)
            covered = sorted(
                p for phase in plan.phases for p in phase.transmit_positions
            )
            assert covered == list(range(1, 7))

    def test_rejects_bad_inputs(self):
        topo = _chain(3)
        with pytest.raises(ConfigurationError):
            plan_chain_pipeline(topo, (1, 2), coding="anc")
        with pytest.raises(ConfigurationError):
            plan_chain_pipeline(topo, (1, 2, 3, 4), coding="turbo")
        with pytest.raises(ConfigurationError):
            plan_chain_pipeline(topo, (1, 2, 1, 2), coding="anc")
        with pytest.raises(TopologyError):
            plan_chain_pipeline(topo, (1, 3, 4), coding="anc")  # 1->3 not a link


class TestRelayExchangePlan:
    def test_alice_bob_reverse_side_info(self):
        topo = alice_bob_topology(CONDITIONS, np.random.default_rng(0))
        plan = plan_relay_exchange(
            topo, Flow(ALICE, BOB, 4), Flow(BOB, ALICE, 4), relay=RELAY,
            overhearing=False,
        )
        assert plan.relay == RELAY
        assert plan.uplink_senders == (ALICE, BOB)
        assert plan.uplink_receivers == (RELAY,)
        assert plan.downlink_receivers == (BOB, ALICE)
        assert plan.side_info == {BOB: "reverse", ALICE: "reverse"}
        assert not plan.overhearing

    def test_x_topology_overhearing_side_info(self):
        topo = x_topology(CONDITIONS, np.random.default_rng(1))
        plan = plan_relay_exchange(
            topo, Flow(N1, N4, 4), Flow(N3, N2, 4), relay=N5, overhearing=True
        )
        assert plan.side_info == {N4: "overhear", N2: "overhear"}
        assert plan.uplink_receivers == (N5, N4, N2)
        assert plan.overhearing

    def test_relay_auto_detected(self):
        topo = alice_bob_topology(CONDITIONS, np.random.default_rng(2))
        plan = plan_relay_exchange(topo, Flow(ALICE, BOB, 2), Flow(BOB, ALICE, 2))
        assert plan.relay == RELAY

    def test_missing_side_info_rejected(self):
        """Crossing flows whose destinations cannot learn the paired packet."""
        topo = _star(4)
        with pytest.raises(ConfigurationError):
            # Leaves are out of each other's range, so overhearing fails
            # and the flows are not reverses of each other.
            plan_relay_exchange(topo, Flow(1, 2, 3), Flow(3, 4, 3), relay=0)

    def test_mismatched_packet_counts_rejected(self):
        topo = alice_bob_topology(CONDITIONS, np.random.default_rng(4))
        with pytest.raises(ConfigurationError):
            plan_relay_exchange(topo, Flow(ALICE, BOB, 2), Flow(BOB, ALICE, 3))

    def test_relay_cannot_be_an_endpoint(self):
        topo = alice_bob_topology(CONDITIONS, np.random.default_rng(5))
        with pytest.raises(ConfigurationError, match="relay cannot be a flow endpoint"):
            plan_relay_exchange(topo, Flow(ALICE, BOB, 2), Flow(BOB, ALICE, 2), relay=ALICE)

    def test_relay_off_the_route_rejected(self):
        topo = _chain(4)
        with pytest.raises(ConfigurationError, match="flow 1->3 does not cross relay 0"):
            plan_relay_exchange(topo, Flow(1, 3, 2), Flow(3, 1, 2), relay=0)

    def test_forbidding_overhearing_rejects_the_x_topology(self):
        # X-topology destinations only learn the paired packet by overhearing.
        topo = x_topology(CONDITIONS, np.random.default_rng(6))
        with pytest.raises(ConfigurationError, match="has no side information"):
            plan_relay_exchange(
                topo, Flow(N1, N4, 4), Flow(N3, N2, 4), relay=N5, overhearing=False
            )


class TestMeshExchanges:
    def test_pairs_reverse_flows_on_a_star(self):
        topo = _star(4)
        flows = [Flow(1, 2, 3), Flow(2, 1, 3), Flow(3, 4, 3), Flow(4, 3, 3)]
        schedule = plan_mesh_exchanges(topo, flows)
        assert len(schedule.exchanges) == 2
        assert schedule.routed == ()
        assert schedule.paired_flows == 4
        for exchange in schedule.exchanges:
            assert set(exchange.side_info.values()) == {"reverse"}

    def test_unpairable_flows_fall_back_to_routing(self):
        topo = _star(4)
        flows = [Flow(1, 2, 3), Flow(3, 4, 3)]
        schedule = plan_mesh_exchanges(topo, flows)
        assert schedule.exchanges == ()
        assert schedule.routed == tuple(flows)

    def test_x_topology_flows_pair_by_overhearing(self):
        topo = x_topology(CONDITIONS, np.random.default_rng(7))
        flows = [Flow(N1, N4, 3), Flow(N3, N2, 3)]
        schedule = plan_mesh_exchanges(topo, flows)
        assert len(schedule.exchanges) == 1
        exchange = schedule.exchanges[0]
        assert exchange.relay == N5
        assert set(exchange.side_info.values()) == {"overhear"}

    def test_deterministic_for_a_flow_list(self):
        topo = _star(6)
        flows = [Flow(1, 2, 3), Flow(2, 1, 3), Flow(5, 6, 3), Flow(6, 5, 3)]
        first = plan_mesh_exchanges(topo, flows)
        second = plan_mesh_exchanges(topo, flows)
        assert first == second
