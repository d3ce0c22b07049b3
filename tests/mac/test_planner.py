"""Tests for the ANC-aware schedule planner."""


import numpy as np
import pytest

from repro.channel.link import Link
from repro.exceptions import ConfigurationError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.geometry_mesh import _STREAM_BASE as GEOMETRY_STREAM_BASE
from repro.experiments.mesh_sweep import _STREAM_BASE as MESH_STREAM_BASE
from repro.experiments.mesh_sweep import draw_mesh_flows
from repro.experiments.testbed import Streams, draw_testbed
from repro.mac.planner import (
    RelayExchangePlan,
    plan_chain_pipeline,
    plan_mesh_exchanges,
    plan_relay_exchange,
)
from repro.network.flows import Flow
from repro.network.generator import generate_geometric_mesh, generate_random_mesh
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
        plan = plan_relay_exchange(topo, Flow(ALICE, BOB, 4), Flow(BOB, ALICE, 4))
        assert plan.relay == RELAY
        assert plan.uplink_receivers == (RELAY,)
        assert plan.downlink_receivers == (BOB, ALICE)
        assert plan.side_info == {BOB: "reverse", ALICE: "reverse"}

    def test_x_topology_overhearing_side_info(self):
        topo = x_topology(CONDITIONS, np.random.default_rng(1))
        plan = plan_relay_exchange(topo, Flow(N1, N4, 4), Flow(N3, N2, 4))
        assert plan.relay == N5
        assert plan.side_info == {N4: "overhear", N2: "overhear"}
        assert plan.uplink_receivers == (N5, N4, N2)

    def test_mixed_side_info_lists_only_the_overhearer(self):
        """A destination that sent the paired packet does not listen to the uplink."""
        topo = _star(3)
        topo.add_link(1, 3, Link(), routable=False)  # 3 overhears 1
        plan = plan_relay_exchange(topo, Flow(1, 2, 3), Flow(2, 3, 3))
        assert plan.side_info == {2: "reverse", 3: "overhear"}
        assert plan.uplink_receivers == (0, 3)

    def test_missing_side_info_rejected(self):
        """Crossing flows whose destinations cannot learn the paired packet."""
        topo = _star(4)
        with pytest.raises(ConfigurationError, match="has no side information"):
            # Leaves are out of each other's range, so overhearing fails
            # and the flows are not reverses of each other.
            plan_relay_exchange(topo, Flow(1, 2, 3), Flow(3, 4, 3))

    def test_mismatched_packet_counts_rejected(self):
        topo = alice_bob_topology(CONDITIONS, np.random.default_rng(4))
        with pytest.raises(ConfigurationError):
            plan_relay_exchange(topo, Flow(ALICE, BOB, 2), Flow(BOB, ALICE, 3))

    def test_no_shared_relay_rejected(self):
        topo = _chain(4)
        with pytest.raises(ConfigurationError, match="do not share a relay node"):
            plan_relay_exchange(topo, Flow(1, 3, 2), Flow(4, 2, 2))

    def test_longer_flows_do_not_cross_a_relay(self):
        topo = _chain(4)
        with pytest.raises(ConfigurationError, match="flow 1->4 does not cross relay 2"):
            plan_relay_exchange(topo, Flow(1, 4, 2), Flow(4, 1, 2))


def _forced_plan(topology, flow_a, flow_b, relay, overhearing):
    """The plan a caller used to force with ``relay=`` and ``overhearing=``.

    A reference for the derived plan: the relay is the one the caller
    named, and every destination gets its side information the one way
    the caller said (overhearing, or having sent the paired packet).
    """
    for flow in (flow_a, flow_b):
        assert relay not in (flow.source, flow.destination)
        assert topology.is_routable(flow.source, relay)
        assert topology.is_routable(relay, flow.destination)
    side_info = {}
    for destination, paired_source in (
        (flow_a.destination, flow_b.source),
        (flow_b.destination, flow_a.source),
    ):
        if overhearing:
            assert topology.in_range(paired_source, destination)
        else:
            assert destination == paired_source
        side_info[destination] = "overhear" if overhearing else "reverse"
    destinations = (flow_a.destination, flow_b.destination)
    return RelayExchangePlan(
        relay=relay,
        flow_a=flow_a,
        flow_b=flow_b,
        uplink_receivers=(relay,) + destinations if overhearing else (relay,),
        downlink_receivers=destinations,
        side_info=side_info,
    )


def _mesh_schedules():
    """The mesh planner's schedules for the flow sets the two mesh sweeps draw."""
    cfg = ExperimentConfig()
    builds = (
        (generate_random_mesh, MESH_STREAM_BASE),
        (generate_geometric_mesh, GEOMETRY_STREAM_BASE),
    )
    for build, base in builds:
        for n_flows in (2, 4, 6, 8):
            for run in range(8):
                bed = draw_testbed(cfg, run, Streams.mesh(base + 64 * n_flows), build, "mesh")
                flows = draw_mesh_flows(
                    bed.topology, n_flows, cfg.packets_per_run, bed.topology_rng
                )
                yield bed.topology, plan_mesh_exchanges(bed.topology, flows)


class TestDerivedPlanEqualsForcedPlan:
    """The relay and the side information follow from the topology.

    Callers used to name the relay and force the side-information mode;
    the plan derived from the topology alone is the plan they forced.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_alice_bob(self, seed):
        topo = alice_bob_topology(CONDITIONS, np.random.default_rng(seed))
        flow_a, flow_b = Flow(ALICE, BOB, 3), Flow(BOB, ALICE, 3)
        assert plan_relay_exchange(topo, flow_a, flow_b) == _forced_plan(
            topo, flow_a, flow_b, RELAY, overhearing=False
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_x_topology(self, seed):
        topo = x_topology(CONDITIONS, np.random.default_rng(seed))
        flow_a, flow_b = Flow(N1, N4, 3), Flow(N3, N2, 3)
        assert plan_relay_exchange(topo, flow_a, flow_b) == _forced_plan(
            topo, flow_a, flow_b, N5, overhearing=True
        )

    def test_mesh_exchanges(self):
        modes = []
        for topo, schedule in _mesh_schedules():
            for plan in schedule.exchanges:
                (mode,) = set(plan.side_info.values())
                modes.append(mode)
                assert plan == _forced_plan(
                    topo, plan.flow_a, plan.flow_b, plan.relay, overhearing=mode == "overhear"
                )
        # Both ways of learning the side information are exercised.
        assert modes.count("reverse") >= 10
        assert modes.count("overhear") >= 10


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
