"""Tests for the RunResult accounting and ProtocolRun helpers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.network.topologies import ChannelConditions, alice_bob_topology, RELAY
from repro.node.node import Node
from repro.protocols.base import ProtocolRun, RunResult


def _result(**kwargs):
    defaults = dict(topology="alice_bob", payload_bits=100)
    defaults.update(kwargs)
    return RunResult(**defaults)


class TestRunResult:
    def test_useful_bits_charges_redundancy(self):
        result = _result(packets_delivered=10, redundancy_overhead=0.08)
        assert result.delivered_payload_bits == 1000
        assert result.useful_bits == pytest.approx(1000 / 1.08)

    def test_throughput(self):
        result = _result(packets_delivered=4, air_time_samples=2000)
        assert result.throughput == pytest.approx(0.2)

    def test_throughput_requires_air_time(self):
        with pytest.raises(SimulationError):
            _ = _result(packets_delivered=1).throughput

    def test_mean_ber(self):
        result = _result(packet_bers=[0.0, 0.02, 0.04])
        assert result.mean_ber == pytest.approx(0.02)
        assert _result().mean_ber == 0.0

    def test_delivery_ratio(self):
        result = _result(packets_offered=10, packets_delivered=7)
        assert result.delivery_ratio == pytest.approx(0.7)
        assert _result().delivery_ratio == 0.0

    def test_mean_overlap(self):
        result = _result(overlap_fractions=[0.8, 0.9])
        assert result.mean_overlap == pytest.approx(0.85)


class TestProtocolRunHelpers:
    def _protocol(self, seed=0):
        topo = alice_bob_topology(ChannelConditions(), np.random.default_rng(seed))
        return ProtocolRun(
            topo, payload_bits=128, rng=np.random.default_rng(seed), topology_name="alice_bob"
        )

    def test_one_plain_node_per_topology_node(self):
        protocol = self._protocol()
        assert list(protocol.nodes) == list(protocol.topology.nodes)
        assert RELAY in protocol.nodes
        for node_id, node in protocol.nodes.items():
            assert type(node) is Node
            assert node.node_id == node_id
            assert node.config.payload_bits == 128
            assert node.config.noise_power == protocol.topology.noise_power(node_id)
        assert protocol.topology_name == "alice_bob"

    def test_counts_as_delivered(self):
        protocol = self._protocol()
        assert protocol.counts_as_delivered(0.2, crc_ok=True)
        assert protocol.counts_as_delivered(0.03, crc_ok=False)
        assert not protocol.counts_as_delivered(0.2, crc_ok=False)

    def test_validation(self):
        topo = alice_bob_topology(ChannelConditions(), np.random.default_rng(1))
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigurationError):
            ProtocolRun(topo, payload_bits=0, rng=rng, topology_name="t")
        with pytest.raises(ConfigurationError):
            ProtocolRun(topo, ber_acceptance=0.6, rng=rng, topology_name="t")
        with pytest.raises(ConfigurationError):
            ProtocolRun(topo, redundancy_overhead=-0.1, rng=rng, topology_name="t")
