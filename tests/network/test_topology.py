"""Tests for the Topology graph."""

import pytest

from repro.channel.link import Link
from repro.exceptions import TopologyError
from repro.network.topology import Topology


def _triangle():
    topo = Topology()
    for node in (1, 2, 3):
        topo.add_node(node, noise_power=1e-3)
    topo.add_symmetric_link(1, 2, Link(attenuation=0.8))
    topo.add_symmetric_link(2, 3, Link(attenuation=0.7))
    return topo


class TestConstruction:
    def test_nodes_sorted(self):
        topo = _triangle()
        assert topo.nodes == [1, 2, 3]

    def test_has_node(self):
        topo = _triangle()
        assert topo.has_node(2)
        assert not topo.has_node(9)

    def test_link_before_node_rejected(self):
        topo = Topology()
        topo.add_node(1)
        with pytest.raises(TopologyError):
            topo.add_link(1, 2, Link())

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_node(1)
        with pytest.raises(TopologyError):
            topo.add_link(1, 1, Link())

    def test_negative_node_rejected(self):
        with pytest.raises(TopologyError):
            Topology().add_node(-1)

    def test_negative_noise_power_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError, match="noise power must be non-negative"):
            topo.add_node(0, noise_power=-1e-3)
        assert not topo.has_node(0)

    def test_add_link_rejects_non_link(self):
        topo = Topology()
        topo.add_node(1)
        topo.add_node(2)
        with pytest.raises(TopologyError, match="must be a Link"):
            topo.add_link(1, 2, {"attenuation": 0.8})
        assert not topo.in_range(1, 2)

    def test_edges_in_insertion_order(self):
        topo = Topology()
        for node in (3, 1, 2):
            topo.add_node(node)
        topo.add_link(1, 3, Link())
        topo.add_link(3, 2, Link())
        topo.add_link(1, 2, Link(), routable=False)
        topo.add_link(3, 1, Link())
        # Sources in add_node order, each one's destinations in add_link order.
        assert topo.edges() == [(3, 2), (3, 1), (1, 3), (1, 2)]


class TestQueries:
    def test_in_range(self):
        topo = _triangle()
        assert topo.in_range(1, 2)
        assert not topo.in_range(1, 3)

    def test_link_lookup(self):
        topo = _triangle()
        assert topo.link(1, 2).attenuation == pytest.approx(0.8)
        with pytest.raises(TopologyError):
            topo.link(1, 3)

    def test_noise_power(self):
        topo = _triangle()
        assert topo.noise_power(1) == pytest.approx(1e-3)
        with pytest.raises(TopologyError):
            topo.noise_power(42)

    def test_shortest_path(self):
        topo = _triangle()
        assert topo.shortest_path(1, 3) == [1, 2, 3]

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_node(1)
        topo.add_node(2)
        with pytest.raises(TopologyError):
            topo.shortest_path(1, 2)

    def test_unknown_endpoint_raises(self):
        with pytest.raises(TopologyError, match="unknown node 9"):
            _triangle().shortest_path(1, 9)

    def test_path_to_self(self):
        assert _triangle().shortest_path(2, 2) == [2]

    def test_asymmetric_links(self):
        topo = Topology()
        topo.add_node(1)
        topo.add_node(2)
        topo.add_symmetric_link(1, 2, Link(attenuation=0.9), Link(attenuation=0.4))
        assert topo.link(1, 2).attenuation == pytest.approx(0.9)
        assert topo.link(2, 1).attenuation == pytest.approx(0.4)


class TestRoutableLinks:
    def test_non_routable_excluded_from_paths(self):
        topo = Topology()
        for node in (1, 2, 3):
            topo.add_node(node)
        topo.add_symmetric_link(1, 2, Link())
        topo.add_symmetric_link(2, 3, Link())
        topo.add_link(1, 3, Link(attenuation=0.1), routable=False)
        assert topo.in_range(1, 3)
        assert not topo.is_routable(1, 3)
        assert topo.shortest_path(1, 3) == [1, 2, 3]

    def test_non_routable_link_is_no_route(self):
        topo = Topology()
        for node in (1, 2):
            topo.add_node(node)
        topo.add_link(1, 2, Link(), routable=False)
        assert topo.edges() == [(1, 2)]
        with pytest.raises(TopologyError, match="no route"):
            topo.shortest_path(1, 2)
