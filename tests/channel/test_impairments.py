"""Tests of the impairment config and its application to topologies."""

import numpy as np
import pytest

from repro.channel.impairments import ImpairmentConfig, apply_impairments
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine
from repro.network.topologies import ChannelConditions, alice_bob_topology


def _rng_state(rng):
    return rng.bit_generator.state


class TestImpairmentConfig:
    def test_default_is_disabled(self):
        assert not ImpairmentConfig().enabled

    def test_any_active_field_enables(self):
        assert ImpairmentConfig(sender_cfo=0.01).enabled
        assert ImpairmentConfig(fading="rayleigh").enabled

    def test_rejects_negative_or_huge_cfo(self):
        with pytest.raises(ConfigurationError):
            ImpairmentConfig(sender_cfo=-0.1)
        with pytest.raises(ConfigurationError):
            ImpairmentConfig(sender_cfo=np.pi)

    def test_rejects_unknown_fading_kind(self):
        with pytest.raises(ConfigurationError):
            ImpairmentConfig(fading="weibull")

    def test_rejects_unknown_fading_mode(self):
        with pytest.raises(ConfigurationError):
            ImpairmentConfig(fading_mode="warp")

    def test_rejects_doppler_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ImpairmentConfig(fading_mode="drift", fading_doppler=1.0)

    def test_rejects_doppler_in_block_mode(self):
        with pytest.raises(ConfigurationError):
            ImpairmentConfig(fading_doppler=0.1)

    def test_sender_offsets_spread_linearly(self):
        config = ImpairmentConfig(sender_cfo=0.06)
        offsets = config.sender_offsets([0, 1, 2, 5])
        assert offsets[0] == pytest.approx(0.06)
        assert offsets[1] == pytest.approx(0.02)
        assert offsets[2] == pytest.approx(-0.02)
        assert offsets[5] == pytest.approx(-0.06)

    def test_sender_offsets_pairwise_distinct(self):
        """Any two radios must get distinct oscillators — in the chain and
        X topologies the colliding senders are nodes 1 and 3, which an
        alternating-sign scheme would hand identical offsets."""
        config = ImpairmentConfig(sender_cfo=0.05)
        for n in (2, 3, 4, 5, 8):
            offsets = config.sender_offsets(list(range(1, n + 1)))
            assert len(set(offsets.values())) == n
        chain = config.sender_offsets([1, 2, 3, 4])
        assert chain[1] != chain[3], "chain colliders must differ"

    def test_sender_offsets_single_node(self):
        config = ImpairmentConfig(sender_cfo=0.04)
        assert config.sender_offsets([7]) == {7: 0.04}

    def test_alice_bob_colliders_differ_by_exactly_the_axis_value(self):
        """In the 3-node exchange (relay 0, Alice 1, Bob 2) the two
        colliding senders differ by exactly sender_cfo — what makes the
        cfo_sweep axis an exact relative offset."""
        config = ImpairmentConfig(sender_cfo=0.08)
        offsets = config.sender_offsets([0, 1, 2])
        assert offsets[1] - offsets[2] == pytest.approx(0.08)


class TestApplyImpairments:
    def test_disabled_is_a_strict_noop(self):
        topology = alice_bob_topology(ChannelConditions(), np.random.default_rng(1))
        before = {
            (s, d): (
                topology.link(s, d).sender_cfo,
                topology.link(s, d).fading,
            )
            for s, d in topology.edges()
        }
        rng = np.random.default_rng(2)
        state = _rng_state(rng)
        out = apply_impairments(topology, ImpairmentConfig(), rng)
        assert out is topology
        assert _rng_state(rng) == state, "disabled impairments must not draw"
        for (s, d), (cfo, fading) in before.items():
            assert topology.link(s, d).sender_cfo == cfo
            assert topology.link(s, d).fading == fading

    def test_sender_cfo_consistent_per_sender(self):
        topology = alice_bob_topology(ChannelConditions(), np.random.default_rng(3))
        apply_impairments(
            topology, ImpairmentConfig(sender_cfo=0.04), np.random.default_rng(4)
        )
        offsets = ImpairmentConfig(sender_cfo=0.04).sender_offsets(topology.nodes)
        for source, destination in topology.edges():
            assert topology.link(source, destination).sender_cfo == offsets[source]

    def test_fading_fields_stamped_on_every_link(self):
        topology = alice_bob_topology(ChannelConditions(), np.random.default_rng(5))
        config = ImpairmentConfig(
            fading="rayleigh", fading_mode="drift", fading_doppler=0.01
        )
        apply_impairments(topology, config, np.random.default_rng(6))
        for source, destination in topology.edges():
            link = topology.link(source, destination)
            assert link.fading == "rayleigh"
            assert link.fading_mode == "drift"
            assert link.fading_doppler == 0.01
            assert link.sender_cfo == 0.0

    def test_rician_los_phases_are_deterministic_per_seed(self):
        phases = []
        for _ in range(2):
            topology = alice_bob_topology(ChannelConditions(), np.random.default_rng(7))
            apply_impairments(
                topology,
                ImpairmentConfig(fading="rician", rician_k_db=3.0),
                np.random.default_rng(8),
            )
            phases.append(
                [
                    topology.link(s, d).fading_los_phase
                    for s, d in sorted(topology.edges())
                ]
            )
        assert phases[0] == phases[1]
        assert len(set(phases[0])) > 1, "per-link LOS phases should differ"


class TestExperimentConfigSnapshot:
    def test_disabled_impairments_are_omitted_from_snapshot(self):
        snapshot = ExperimentConfig().snapshot()
        assert "impairments" not in snapshot
        assert snapshot["runs"] == ExperimentConfig().runs

    def test_enabled_impairments_appear_in_snapshot(self):
        config = ExperimentConfig(impairments=ImpairmentConfig(sender_cfo=0.02))
        snapshot = config.snapshot()
        assert snapshot["impairments"]["sender_cfo"] == 0.02

    def test_config_rejects_non_impairment_value(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(impairments="rayleigh")

    def test_engine_digest_stable_for_disabled_impairments(self):
        def trial(config, key):
            return key

        base = ExperimentConfig.quick()
        explicit = ExperimentConfig.quick().with_overrides(
            impairments=ImpairmentConfig()
        )
        assert ExperimentEngine.task_digest("t", trial, base) == (
            ExperimentEngine.task_digest("t", trial, explicit)
        )

    def test_engine_digest_changes_when_impairments_enable(self):
        def trial(config, key):
            return key

        base = ExperimentConfig.quick()
        impaired = base.with_overrides(
            impairments=ImpairmentConfig(fading="rayleigh")
        )
        assert ExperimentEngine.task_digest("t", trial, base) != (
            ExperimentEngine.task_digest("t", trial, impaired)
        )
