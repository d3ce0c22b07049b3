"""Tests for the experiment configuration."""

import json
import math
from dataclasses import asdict

import pytest

from repro.channel.impairments import ImpairmentConfig
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
            ("sim_duration", -1.0, "sim_duration must be non-negative"),
            ("sim_duration", math.inf, "sim_duration must be a finite number"),
            ("sim_duration", math.nan, "sim_duration must be a finite number"),
            ("arrival_rate", math.nan, "arrival_rate must be a finite number"),
            ("seed", -1, "seed must be non-negative"),
            ("seed", 1.5, "seed must be an integer"),
            ("runs", 2.5, "runs must be an integer"),
            ("runs", True, "runs must be an integer"),
            ("snr_db_range", (math.nan, 20.0), "snr_db_range must be a finite number"),
            ("overlap_range", (0.5, math.inf), "overlap_range must be a finite number"),
            ("ber_acceptance", -1.0, r"ber_acceptance must lie in \[0, 0.5\)"),
            ("ber_acceptance", 0.5, r"ber_acceptance must lie in \[0, 0.5\)"),
            ("ber_acceptance", 2.0, r"ber_acceptance must lie in \[0, 0.5\)"),
            ("anc_redundancy_overhead", -0.5, "anc_redundancy_overhead must be non-negative"),
            ("chain_redundancy_overhead", -1.0, "chain_redundancy_overhead must be non-negative"),
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
    every field an experiment declares in its ``reads`` contract — must
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
            knob for entry in REGISTRY.values() for knob in entry.reads
        } & set(non_default)
        assert consumed == set(non_default)  # every traffic knob is read somewhere
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


def _asdict_snapshot(config):
    """The ``dataclasses.asdict`` construction ``snapshot()`` used to run."""
    payload = asdict(config)
    if config.impairments == ImpairmentConfig():
        payload.pop("impairments")
    for knob, default in (("arrival_rate", 0.0), ("sim_duration", 0.0), ("mac_policy", "csma")):
        if payload[knob] == default:
            payload.pop(knob)
    return payload


def _snapshot_cases():
    """Every config shape a snapshot is taken of, with a readable id."""
    from repro.cli import _config_from_args, build_parser
    from repro.experiments import REGISTRY

    cases = [("default", ExperimentConfig()), ("quick", ExperimentConfig.quick())]
    for name in sorted(REGISTRY):
        for flags in ([], ["--quick"]):
            args = build_parser().parse_args([name, *flags])
            cases.append((f"cli:{name}{''.join(flags)}", _config_from_args(args)))
    for label, impairments in (
        ("cfo", ImpairmentConfig(sender_cfo=0.02)),
        ("rician-drift", ImpairmentConfig(fading="rician", rician_k_db=3.0,
                                          fading_mode="drift", fading_doppler=0.01)),
        ("drift-only", ImpairmentConfig(fading_mode="drift")),
    ):
        cases.append((f"impairments:{label}", ExperimentConfig(impairments=impairments)))
    cases += [
        ("arrival_rate", ExperimentConfig(arrival_rate=0.7)),
        ("sim_duration", ExperimentConfig(sim_duration=123.0)),
        ("mac_policy", ExperimentConfig(mac_policy="scheduled")),
        ("every-knob", ExperimentConfig.quick().with_overrides(
            snr_db_range=(3, 9), impairments=ImpairmentConfig(fading="rayleigh"),
            arrival_rate=1.2, sim_duration=48.0, mac_policy="scheduled")),
    ]
    return [pytest.param(config, id=label) for label, config in cases]


class TestSnapshotMatchesAsdict:
    """``snapshot()`` builds its dict by hand; it must equal the old ``asdict`` payload.

    Engine trial digests, campaign job digests and result snapshots are all
    taken from it, so the dict, its key order, its value types and its
    ``json.dumps`` bytes must not move.
    """

    @pytest.mark.parametrize("config", _snapshot_cases())
    def test_same_payload(self, config):
        reference = _asdict_snapshot(config)
        snapshot = config.snapshot()
        assert snapshot == reference
        assert list(snapshot) == list(reference)
        # repr tells tuples from lists and ints from floats.
        assert repr(snapshot) == repr(reference)
        assert json.dumps(snapshot) == json.dumps(reference)
        assert json.dumps(snapshot, sort_keys=True) == json.dumps(reference, sort_keys=True)

    def test_snapshot_is_a_fresh_dict(self):
        config = ExperimentConfig(impairments=ImpairmentConfig(sender_cfo=0.02))
        first = config.snapshot()
        first["impairments"]["sender_cfo"] = 0.0
        first.pop("seed")
        assert config.snapshot() == _asdict_snapshot(config)
