"""Tests for the plan-driven generalized chain executor."""

import numpy as np
import pytest

from repro.channel.interference import OverlapModel
from repro.exceptions import ConfigurationError
from repro.network.flows import Flow
from repro.network.topologies import ChannelConditions, chain_topology
from repro.protocols.anc import default_min_offset
from repro.protocols.scheduled import ChainPipelineProtocol
from repro.protocols.traditional import TraditionalRouting

PAYLOAD = 384
CONDITIONS = ChannelConditions(snr_db=30.0)


def _chain(hops, seed=0):
    return chain_topology(CONDITIONS, np.random.default_rng(seed), hops=hops)


def _overlap(seed, mean=0.85):
    return OverlapModel(
        mean_overlap=mean, jitter=0.05, min_offset=default_min_offset(),
        rng=np.random.default_rng(seed),
    )


def _anc(topology, hops, packets, seed):
    return ChainPipelineProtocol(
        topology,
        path=tuple(range(1, hops + 2)),
        coding="anc",
        packets=packets,
        payload_bits=PAYLOAD,
        overlap_model=_overlap(seed),
        rng=np.random.default_rng(seed),
    )


def _plain(topology, hops, packets, seed):
    return ChainPipelineProtocol(
        topology,
        path=tuple(range(1, hops + 2)),
        coding="plain",
        packets=packets,
        payload_bits=PAYLOAD,
        redundancy_overhead=0.0,
        rng=np.random.default_rng(seed),
    )


class TestGeneralizedAncPipeline:
    @pytest.mark.parametrize("hops", [2, 4, 5, 7])
    def test_delivers_across_chain_lengths(self, hops):
        packets = 5
        result = _anc(_chain(hops, seed=hops), hops, packets, seed=hops).run()
        assert result.packets_offered == packets
        assert result.packets_delivered >= packets - 1
        decoded = [b for b in result.packet_bers if b < 0.5]
        if decoded:
            assert float(np.mean(decoded)) < 0.05

    def test_steady_state_two_slots_per_packet(self):
        """In steady state the stride-2 pipeline moves one packet per 2 slots."""
        hops, packets = 5, 10
        result = _anc(_chain(5, seed=9), hops, packets, seed=9).run()
        # 2 slots per packet plus pipeline fill/drain overhead.
        assert result.slots_used <= 2 * packets + 2 * hops

    def test_interior_collisions_recorded(self):
        result = _anc(_chain(5, seed=11), hops=5, packets=6, seed=11).run()
        assert result.overlap_fractions  # deliberate collisions happened
        assert all(0.0 < f <= 1.0 for f in result.overlap_fractions)


class TestCollisionFreePipeline:
    @pytest.mark.parametrize("hops", [3, 5, 8])
    def test_plain_pipeline_has_no_interference(self, hops):
        result = _plain(_chain(hops, seed=hops), hops, packets=5, seed=hops).run()
        assert result.packets_delivered == 5
        assert result.overlap_fractions == []
        assert result.packet_bers == []

    def test_beats_hop_by_hop_routing_on_long_chains(self):
        """Spatial reuse pipelines ~3 slots/packet vs K slots/packet."""
        hops, packets = 6, 8
        topology = _chain(hops, seed=21)
        pipelined = _plain(topology, hops, packets, seed=21).run()
        naive = TraditionalRouting(
            topology, [Flow(1, hops + 1, packets)], payload_bits=PAYLOAD,
            rng=np.random.default_rng(22),
        ).run()
        assert pipelined.throughput > 1.3 * naive.throughput


class TestValidation:
    def test_rejects_non_positive_packets(self):
        with pytest.raises(ConfigurationError):
            ChainPipelineProtocol(
                _chain(3), path=(1, 2, 3, 4), packets=0, payload_bits=PAYLOAD,
                overlap_model=_overlap(0), rng=np.random.default_rng(0),
            )

    def test_collision_plan_requires_an_overlap_model(self):
        with pytest.raises(ConfigurationError):
            ChainPipelineProtocol(
                _chain(3), path=(1, 2, 3, 4), coding="anc", packets=2,
                payload_bits=PAYLOAD, rng=np.random.default_rng(0),
            )
