"""Tests for the canonical topology factories."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
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


class TestChannelConditions:
    def test_noise_power_from_snr(self):
        # A main link's mean received power is MEAN_ATTENUATION ** 2 = 0.64.
        assert ChannelConditions(snr_db=20.0).noise_power == pytest.approx(0.0064)


class TestAliceBobTopology:
    def test_structure(self, rng):
        topo = alice_bob_topology(ChannelConditions(), rng)
        assert set(topo.nodes) == {RELAY, ALICE, BOB}
        assert topo.in_range(ALICE, RELAY)
        assert topo.in_range(BOB, RELAY)
        assert not topo.in_range(ALICE, BOB)

    def test_routing_goes_through_relay(self, rng):
        topo = alice_bob_topology(ChannelConditions(), rng)
        assert topo.shortest_path(ALICE, BOB) == [ALICE, RELAY, BOB]

    def test_different_seeds_draw_different_links(self):
        a = alice_bob_topology(ChannelConditions(), np.random.default_rng(1))
        b = alice_bob_topology(ChannelConditions(), np.random.default_rng(2))
        assert a.link(ALICE, RELAY).phase_shift != b.link(ALICE, RELAY).phase_shift

    def test_noise_power_propagates(self, rng):
        conditions = ChannelConditions(snr_db=25.0)
        topo = alice_bob_topology(conditions, rng)
        assert topo.noise_power(ALICE) == pytest.approx(conditions.noise_power)


class TestChainTopology:
    def test_structure(self, rng):
        topo = chain_topology(ChannelConditions(), rng)
        assert topo.nodes == [1, 2, 3, 4]
        assert topo.in_range(1, 2) and topo.in_range(3, 4)
        assert not topo.in_range(1, 3)
        assert not topo.in_range(1, 4)

    def test_route_is_the_chain(self, rng):
        topo = chain_topology(ChannelConditions(), rng)
        assert topo.shortest_path(1, 4) == [1, 2, 3, 4]

    def test_custom_hop_count(self, rng):
        topo = chain_topology(ChannelConditions(), rng, hops=5)
        assert len(topo.nodes) == 6

    def test_minimum_hops(self, rng):
        with pytest.raises(ConfigurationError):
            chain_topology(ChannelConditions(), rng, hops=1)


class TestXTopology:
    def test_structure(self, rng):
        topo = x_topology(ChannelConditions(), rng)
        assert set(topo.nodes) == {N1, N2, N3, N4, N5}
        for endpoint in (N1, N2, N3, N4):
            assert topo.in_range(endpoint, N5)
        # Overhearing links exist but are not routable.
        assert topo.in_range(N1, N2)
        assert topo.in_range(N3, N4)
        assert not topo.is_routable(N1, N2)

    def test_routes_cross_at_router(self, rng):
        topo = x_topology(ChannelConditions(), rng)
        assert topo.shortest_path(N1, N4) == [N1, N5, N4]
        assert topo.shortest_path(N3, N2) == [N3, N5, N2]

    def test_cross_interference_weaker_than_overhearing(self, rng):
        conditions = ChannelConditions()
        topo = x_topology(conditions, rng)
        assert topo.link(N3, N2).attenuation < topo.link(N1, N2).attenuation
