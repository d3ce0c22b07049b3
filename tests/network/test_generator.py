"""Tests for the parameterized topology generators."""

import numpy as np
import pytest

from repro.channel.pathloss import PathLossModel
from repro.exceptions import ConfigurationError
from repro.network.generator import (
    generate_geometric_mesh,
    generate_random_mesh,
)
from repro.network.topologies import (
    ATTENUATION_JITTER,
    MEAN_ATTENUATION,
    ChannelConditions,
    chain_topology,
)

CONDITIONS = ChannelConditions(snr_db=28.0)


class TestChain:
    def test_lengths(self):
        for hops in (2, 3, 5, 8):
            topo = chain_topology(CONDITIONS, np.random.default_rng(0), hops=hops)
            assert len(topo.nodes) == hops + 1
            assert topo.shortest_path(1, hops + 1) == list(range(1, hops + 2))

    def test_only_adjacent_nodes_in_range(self):
        topo = chain_topology(CONDITIONS, np.random.default_rng(1), hops=5)
        assert topo.in_range(2, 3) and topo.in_range(3, 2)
        assert not topo.in_range(1, 3)
        assert not topo.in_range(2, 5)


class TestRandomMesh:
    def test_deterministic_given_seed(self):
        first = generate_random_mesh(CONDITIONS, np.random.default_rng(7), nodes=10)
        second = generate_random_mesh(CONDITIONS, np.random.default_rng(7), nodes=10)
        assert sorted(first.edges()) == sorted(second.edges())
        for a, b in first.edges():
            assert first.link(a, b).attenuation == second.link(a, b).attenuation

    @pytest.mark.parametrize("seed", range(6))
    def test_always_connected(self, seed):
        topo = generate_random_mesh(
            CONDITIONS, np.random.default_rng(seed), nodes=10, radius=0.3
        )
        nodes = topo.nodes
        for destination in nodes[1:]:
            assert topo.shortest_path(nodes[0], destination)

    def test_attenuation_decays_with_distance(self):
        topo = generate_random_mesh(CONDITIONS, np.random.default_rng(11), nodes=12)
        attenuations = [topo.link(a, b).attenuation for a, b in topo.edges()]
        assert max(attenuations) <= MEAN_ATTENUATION + ATTENUATION_JITTER + 1e-9
        assert min(attenuations) >= 0.05

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            generate_random_mesh(CONDITIONS, np.random.default_rng(0), nodes=2)
        with pytest.raises(ConfigurationError):
            generate_random_mesh(CONDITIONS, np.random.default_rng(0), radius=0.0)


class TestGeometricMesh:
    def test_deterministic_given_seed(self):
        first = generate_geometric_mesh(CONDITIONS, np.random.default_rng(7), nodes=10)
        second = generate_geometric_mesh(CONDITIONS, np.random.default_rng(7), nodes=10)
        assert sorted(first.edges()) == sorted(second.edges())
        for a, b in first.edges():
            assert first.link(a, b).attenuation == second.link(a, b).attenuation
        assert first.positions == second.positions

    @pytest.mark.parametrize("seed", range(4))
    def test_always_connected(self, seed):
        topo = generate_geometric_mesh(
            CONDITIONS, np.random.default_rng(seed), nodes=10, radius=0.3
        )
        nodes = topo.nodes
        for destination in nodes[1:]:
            assert topo.shortest_path(nodes[0], destination)

    def test_gain_follows_the_path_loss_law(self):
        model = PathLossModel(
            exponent=2.0,
            reference_distance=0.2,
            reference_attenuation=0.95,
            min_attenuation=0.05,
        )
        topo = generate_geometric_mesh(
            ChannelConditions(snr_db=28.0), np.random.default_rng(11), nodes=12, path_loss=model
        )
        for a, b in topo.edges():
            pos_a = np.asarray(topo.positions[a])
            pos_b = np.asarray(topo.positions[b])
            mean = model.attenuation(float(np.linalg.norm(pos_a - pos_b)))
            # Each link jitters uniformly around the law's mean gain.
            low, high = np.clip([mean - ATTENUATION_JITTER, mean + ATTENUATION_JITTER], 0.05, 1.5)
            assert low - 1e-12 <= topo.link(a, b).attenuation <= high + 1e-12

    def test_positions_cover_every_node(self):
        topo = generate_geometric_mesh(CONDITIONS, np.random.default_rng(2), nodes=8)
        assert sorted(topo.positions) == topo.nodes
        for x, y in topo.positions.values():
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_same_placement_as_random_mesh(self):
        """Both mesh families share the placement draw, so a given seed
        yields the same radio graph — only the gain law differs."""
        random_mesh = generate_random_mesh(
            CONDITIONS, np.random.default_rng(9), nodes=10
        )
        geometric = generate_geometric_mesh(
            CONDITIONS, np.random.default_rng(9), nodes=10
        )
        assert sorted(random_mesh.edges()) == sorted(geometric.edges())
        assert random_mesh.positions == geometric.positions

    def test_positions_declared_on_every_topology(self):
        """`positions` is a declared Topology attribute: mesh families set
        it, placement-free generators leave it None (no AttributeError)."""
        assert chain_topology(CONDITIONS, np.random.default_rng(0)).positions is None
        mesh = generate_random_mesh(CONDITIONS, np.random.default_rng(0), nodes=8)
        assert sorted(mesh.positions) == mesh.nodes

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            generate_geometric_mesh(CONDITIONS, np.random.default_rng(0), nodes=2)
        with pytest.raises(ConfigurationError):
            generate_geometric_mesh(CONDITIONS, np.random.default_rng(0), radius=0.0)
