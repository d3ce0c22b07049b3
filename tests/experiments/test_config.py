"""Tests for the experiment configuration."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.runs == 40

    def test_quick_is_small(self):
        quick = ExperimentConfig.quick()
        assert quick.runs <= 5
        assert quick.packets_per_run <= 10

    def test_paper_scale(self):
        paper = ExperimentConfig.paper_scale()
        assert paper.packets_per_run == 1000

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(runs=3)
        assert config.runs == 3
        assert ExperimentConfig().runs == 40

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(runs=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(packets_per_run=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(payload_bits=100)  # not a multiple of 8
        with pytest.raises(ConfigurationError):
            ExperimentConfig(snr_db_range=(30.0, 20.0))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlap_range=(0.9, 0.5))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlap_jitter=0.9)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("batch_size", 0, "batch_size must be positive"),
            ("sim_duration", -1.0, "sim_duration must be non-negative"),
        ],
    )
    def test_execution_knob_validation(self, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig(**{field: value})

    def test_run_rng_deterministic(self):
        config = ExperimentConfig(seed=99)
        a = config.run_rng(3, stream=1).integers(0, 1000, 5)
        b = config.run_rng(3, stream=1).integers(0, 1000, 5)
        c = config.run_rng(3, stream=2).integers(0, 1000, 5)
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_draws_within_ranges(self):
        config = ExperimentConfig(snr_db_range=(20.0, 25.0), overlap_range=(0.7, 0.9))
        rng = config.run_rng(0)
        for _ in range(20):
            assert 20.0 <= config.draw_run_snr(rng) <= 25.0
            assert 0.7 <= config.draw_run_overlap(rng) <= 0.9

    def test_degenerate_ranges(self):
        config = ExperimentConfig(snr_db_range=(25.0, 25.0), overlap_range=(0.8, 0.8))
        rng = config.run_rng(1)
        assert config.draw_run_snr(rng) == 25.0
        assert config.draw_run_overlap(rng) == 0.8


class TestSnapshotRoundTrip:
    """Regression: snapshot() omission rules must be injective.

    Campaign job digests hash the config snapshot
    (repro.campaign.spec.job_digest), so every knob — in particular
    every knob a scenario declares in its ``consumes`` contract — must
    survive ``from_snapshot(cfg.snapshot())`` unchanged.  A lossy
    omission rule would let two distinct grid points collide on one
    digest and silently dedupe wrong results.
    """

    def test_default_round_trips(self):
        config = ExperimentConfig()
        assert ExperimentConfig.from_snapshot(config.snapshot()) == config

    def test_every_consumed_knob_round_trips(self):
        from repro.experiments import REGISTRY

        non_default = {
            "arrival_rate": 0.7,
            "sim_duration": 123.0,
            "mac_policy": "scheduled",
        }
        consumed = {
            knob for entry in REGISTRY.values() for knob in entry.consumes
        }
        assert consumed  # the contract exists
        for knob in sorted(consumed):
            config = ExperimentConfig(**{knob: non_default[knob]})
            rebuilt = ExperimentConfig.from_snapshot(config.snapshot())
            assert rebuilt == config, f"knob {knob} lost in snapshot round-trip"
            assert config.snapshot() != ExperimentConfig().snapshot(), (
                f"knob {knob} missing from snapshot: digests would collide"
            )

    def test_every_field_round_trips(self):
        from dataclasses import fields

        from repro.channel.impairments import ImpairmentConfig

        variants = {
            "runs": 3,
            "packets_per_run": 5,
            "payload_bits": 256,
            "snr_db_range": (5.0, 9.0),
            "overlap_range": (0.8, 0.9),
            "overlap_jitter": 0.01,
            "ber_acceptance": 0.02,
            "anc_redundancy_overhead": 0.2,
            "chain_redundancy_overhead": 0.1,
            "seed": 7,
            "batch_size": 4,
            "impairments": ImpairmentConfig(sender_cfo=0.01),
            "arrival_rate": 0.4,
            "sim_duration": 55.0,
            "mac_policy": "scheduled",
        }
        assert set(variants) == {f.name for f in fields(ExperimentConfig)}
        for name, value in variants.items():
            config = ExperimentConfig(**{name: value})
            rebuilt = ExperimentConfig.from_snapshot(config.snapshot())
            assert rebuilt == config, f"field {name} lost in snapshot round-trip"

    def test_snapshot_json_round_trip_coerces_types(self):
        import json

        config = ExperimentConfig(
            snr_db_range=(5.0, 9.0), arrival_rate=0.4
        )
        wire = json.loads(json.dumps(config.snapshot()))
        rebuilt = ExperimentConfig.from_snapshot(wire)
        assert rebuilt == config  # lists coerce back to tuples

    def test_unknown_snapshot_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_snapshot({"bogus": 1})
