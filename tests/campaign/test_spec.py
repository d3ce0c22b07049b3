"""Tests for campaign grid specs: expansion determinism and validation."""

import json

import pytest

from repro.campaign.spec import (
    CAMPAIGN_SCHEMA,
    CampaignSpec,
    audit_snapshot_roundtrip,
    job_digest,
)
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig


def small_spec(**overrides):
    """A 2x2 alice-bob grid used throughout these tests."""
    kwargs = dict(
        experiment="alice-bob",
        base={"runs": 1, "packets_per_run": 2, "payload_bits": 64},
        axes={"seed": (1, 2), "snr_db_range": ((20, 20), (25, 25))},
        quick=True,
        name="unit",
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestExpansionDeterminism:
    def test_grid_size(self):
        spec = small_spec()
        assert spec.total_jobs == 4
        assert len(spec.jobs()) == 4

    def test_axis_order_is_sorted_last_fastest(self):
        jobs = small_spec().jobs()
        # sorted axes: seed, snr_db_range -> snr varies fastest
        assert [dict(j.overrides)["seed"] for j in jobs] == [1, 1, 2, 2]
        assert [dict(j.overrides)["snr_db_range"] for j in jobs] == [
            (20, 20), (25, 25), (20, 20), (25, 25),
        ]
        assert [j.index for j in jobs] == [0, 1, 2, 3]

    def test_digests_stable_across_expansions(self):
        first = [j.digest for j in small_spec().jobs()]
        second = [j.digest for j in small_spec().jobs()]
        assert first == second

    def test_digests_stable_across_json_roundtrip(self):
        spec = small_spec()
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert [j.digest for j in rebuilt.jobs()] == [j.digest for j in spec.jobs()]
        assert rebuilt.campaign_id() == spec.campaign_id()

    def test_digests_distinct_per_job(self):
        digests = [j.digest for j in small_spec().jobs()]
        assert len(set(digests)) == len(digests)

    def test_digest_is_full_sha256_hex(self):
        job = small_spec().jobs()[0]
        assert len(job.digest) == 64
        int(job.digest, 16)

    def test_quick_flag_forks_digests(self):
        quick = [j.digest for j in small_spec(quick=True).jobs()]
        full = [j.digest for j in small_spec(quick=False).jobs()]
        assert not set(quick) & set(full)

    def test_campaign_id_ignores_name(self):
        assert (
            small_spec(name="a").campaign_id() == small_spec(name="b").campaign_id()
        )
        assert small_spec().campaign_id() != small_spec(quick=False).campaign_id()


class TestSharding:
    def test_round_robin_partition(self):
        spec = small_spec()
        full = {j.index for j in spec.jobs()}
        shard0 = spec.jobs(shard_index=0, shard_count=2)
        shard1 = spec.jobs(shard_index=1, shard_count=2)
        assert {j.index for j in shard0} == {0, 2}
        assert {j.index for j in shard1} == {1, 3}
        assert {j.index for j in shard0} | {j.index for j in shard1} == full

    def test_shards_agree_on_digests(self):
        spec = small_spec()
        by_index = {j.index: j.digest for j in spec.jobs()}
        for shard in range(3):
            for job in spec.jobs(shard_index=shard, shard_count=3):
                assert job.digest == by_index[job.index]

    def test_invalid_shard_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec().jobs(shard_index=2, shard_count=2)
        with pytest.raises(ConfigurationError):
            small_spec().jobs(shard_index=0, shard_count=0)


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            small_spec(experiment="not-an-experiment")

    def test_unknown_config_field(self):
        with pytest.raises(ConfigurationError, match="unknown config field"):
            small_spec(axes={"bogus_knob": (1, 2)})

    def test_base_axis_overlap(self):
        with pytest.raises(ConfigurationError, match="both"):
            small_spec(base={"seed": 1}, axes={"seed": (1, 2)})

    def test_empty_axis(self):
        with pytest.raises(ConfigurationError, match="no values"):
            small_spec(axes={"seed": ()})

    def test_non_scalar_axis_value(self):
        with pytest.raises(ConfigurationError, match="JSON scalars"):
            small_spec(axes={"seed": ({"nested": 1},)})

    def test_duplicate_grid_point_raises(self):
        with pytest.raises(ConfigurationError, match="duplicate grid point"):
            small_spec(axes={"seed": (1, 1)}).jobs()

    def test_figure_rejects_traffic_knobs(self):
        with pytest.raises(ConfigurationError, match="does not read the config field"):
            small_spec(axes={"arrival_rate": (0.2, 0.4)})

    def test_scenario_reads_contract(self):
        # offered_load_sweep reads sim_duration/mac_policy but sweeps
        # arrival_rate itself; chain_sweep reads none of them.
        with pytest.raises(ConfigurationError, match="does not read"):
            CampaignSpec(
                experiment="chain_sweep",
                base={"arrival_rate": 0.5},
                axes={"seed": (1, 2)},
            )
        spec = CampaignSpec(
            experiment="offered_load_sweep",
            base={"sim_duration": 100.0},
            axes={"seed": (1, 2)},
            quick=True,
        )
        assert spec.total_jobs == 2


class TestSerialization:
    def test_schema_tag_emitted(self):
        assert small_spec().to_dict()["schema"] == CAMPAIGN_SCHEMA

    def test_unknown_schema_rejected(self):
        payload = small_spec().to_dict()
        payload["schema"] = "anc-repro.campaign/999"
        with pytest.raises(ConfigurationError, match="schema"):
            CampaignSpec.from_dict(payload)

    def test_unknown_key_rejected(self):
        payload = small_spec().to_dict()
        payload["surprise"] = True
        with pytest.raises(ConfigurationError, match="unknown key"):
            CampaignSpec.from_dict(payload)

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="experiment"):
            CampaignSpec.from_dict({"axes": {"seed": [1]}})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            CampaignSpec.from_json("{not json")

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            CampaignSpec.from_json('["alice_bob"]')

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("axes", [["seed", [1, 2]]], "'axes' must be an object"),
            ("quick", "false", "'quick' must be true or false"),
            ("quick", 1, "'quick' must be true or false"),
            ("base", [["runs", 1]], "'base' must be an object"),
            ("axes", {"seed": 5}, "axis 'seed' must be a list"),
            ("axes", {"seed": "12"}, "axis 'seed' must be a list"),
        ],
        ids=["axes_list", "quick_string", "quick_int", "base_list", "axis_scalar", "axis_string"],
    )
    def test_malformed_spec_field_rejected(self, key, value, message):
        payload = small_spec().to_dict()
        payload[key] = value
        with pytest.raises(ConfigurationError, match=message):
            CampaignSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "base, message",
        [
            ({"overlap_range": [0.8]}, r"overlap_range must be a \(low, high\) pair"),
            ({"overlap_range": [0.8, 0.9, 0.95]}, r"overlap_range must be a \(low, high\) pair"),
            ({"snr_db_range": 25}, r"snr_db_range must be a \(low, high\) pair"),
            ({"snr_db_range": "25"}, r"snr_db_range must be a \(low, high\) pair"),
            ({"impairments": {"bogus": 1}}, r"unknown impairment field\(s\): bogus"),
        ],
        ids=["range_one_end", "range_three_ends", "range_scalar", "range_string", "impairment_key"],
    )
    def test_malformed_base_value_rejected(self, base, message):
        document = json.dumps({"experiment": "alice-bob", "base": base})
        with pytest.raises(ConfigurationError, match=message):
            CampaignSpec.from_json(document)

    def test_schema_optional_on_input(self):
        payload = small_spec().to_dict()
        del payload["schema"]
        assert CampaignSpec.from_dict(payload).campaign_id() == (
            small_spec().campaign_id()
        )


class TestDigestInjectivity:
    def test_audit_accepts_defaults_and_tuples(self):
        for config in (
            ExperimentConfig(),
            ExperimentConfig(snr_db_range=(3, 9), arrival_rate=0.7),
        ):
            audit_snapshot_roundtrip(config, config.snapshot())

    def test_distinct_configs_distinct_digests(self):
        base = ExperimentConfig(runs=1, packets_per_run=2)
        variants = [
            base,
            base.with_overrides(seed=base.seed + 1),
            base.with_overrides(snr_db_range=(3, 9)),
            base.with_overrides(arrival_rate=0.7),
            base.with_overrides(mac_policy="scheduled"),
        ]
        digests = {job_digest("alice-bob", False, cfg.snapshot()) for cfg in variants}
        assert len(digests) == len(variants)

    def test_digest_payload_carries_schema_tag(self):
        # The digest must be derived from a schema-tagged payload so a
        # format change can bump the tag and invalidate old stores.
        cfg = ExperimentConfig(runs=1, packets_per_run=2)
        payload = {
            "schema": CAMPAIGN_SCHEMA,
            "experiment": "alice-bob",
            "quick": False,
            "config": cfg.snapshot(),
        }
        import hashlib

        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        assert job_digest("alice-bob", False, cfg.snapshot()) == expected
