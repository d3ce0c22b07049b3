"""Tests for the unified :mod:`repro.api` facade."""

import pytest

from repro import api
from repro.campaign.spec import TRAFFIC_KNOBS, CampaignSpec
from repro.exceptions import ConfigurationError
from repro.experiments import REGISTRY, ExperimentConfig, ExperimentEngine
from repro.experiments.chain_sweep import CHAIN_SWEEP
from repro.experiments.mesh_sweep import MESH_SWEEP
from repro.results import ExperimentResult, SCHEMA_VERSION, render_text

QUICK = ExperimentConfig.quick(seed=11)
TINY = ExperimentConfig(runs=1, packets_per_run=2, payload_bits=512, seed=3)

FIGURES = ["capacity", "alice-bob", "x", "chain", "sir", "snr", "summary"]
SCENARIOS_IN_ORDER = [
    "chain_sweep", "mesh_sweep", "cfo_sweep", "fading_sweep",
    "geometry_mesh", "offered_load_sweep", "queueing_delay",
]

#: A non-default value for each traffic knob.
KNOB_VALUES = {"arrival_rate": 0.7, "sim_duration": 123.0, "mac_policy": "scheduled"}


class TestRegistry:
    def test_namespace_merges_both_registries(self):
        names = api.list_experiments()
        assert names == list(REGISTRY) == FIGURES + SCENARIOS_IN_ORDER

    def test_kind_filters(self):
        assert api.list_experiments(kind="figure") == FIGURES
        assert api.list_experiments(kind="scenario") == SCENARIOS_IN_ORDER
        with pytest.raises(ConfigurationError):
            api.list_experiments(kind="nope")

    def test_get_experiment(self):
        entry = api.get_experiment("alice-bob")
        assert entry is REGISTRY["alice-bob"]
        assert entry.kind == "figure"
        assert entry.description == "Fig. 9  — Alice-Bob topology"
        assert entry.consumes == ()
        mesh = api.get_experiment("mesh_sweep")
        assert mesh.kind == "scenario"
        assert mesh.description == MESH_SWEEP.description

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            api.get_experiment("does-not-exist")
        with pytest.raises(ConfigurationError):
            api.run("does-not-exist")


class TestRun:
    def test_figure_run_returns_schema_versioned_result(self):
        result = api.run("alice-bob", config=QUICK)
        assert isinstance(result, ExperimentResult)
        assert result.schema_version == SCHEMA_VERSION
        assert result.name == "alice-bob"
        assert result.kind == "figure"
        assert result.seed == QUICK.seed
        assert result.config["runs"] == QUICK.runs

    def test_scenario_run_round_trips_losslessly(self):
        result = api.run("chain_sweep", config=TINY, quick=True)
        assert result.kind == "scenario"
        assert ExperimentResult.from_dict(result.to_dict()) == result

    def test_engine_metadata_attached(self):
        engine = ExperimentEngine(workers=1)
        result = api.run("chain", config=QUICK, engine=engine)
        meta = result.meta["engine"]
        assert meta["workers"] == 1
        assert meta["invocations"] == 1
        assert meta["total_trials"] == QUICK.runs
        assert meta["executed_trials"] == QUICK.runs
        assert meta["cached_trials"] == 0
        assert meta["elapsed_seconds"] >= 0.0
        assert meta["digests"]

    def test_engine_cache_metadata_reflects_resume(self, tmp_path):
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        api.run("chain", config=QUICK, engine=engine)
        again = api.run("chain", config=QUICK, engine=engine)
        meta = again.meta["engine"]
        assert meta["executed_trials"] == 0
        assert meta["cached_trials"] == QUICK.runs
        assert meta["cache_dir"] == str(tmp_path)

    def test_summary_aggregates_multiple_engine_invocations(self):
        engine = ExperimentEngine(workers=1)
        result = api.run("summary", config=QUICK, engine=engine)
        assert result.meta["engine"]["invocations"] > 1

    def test_quick_thins_scenario_axis(self):
        result = api.run("chain_sweep", config=TINY, quick=True)
        assert tuple(result.meta["sweep_values"]) == CHAIN_SWEEP.values_for(quick=True)


class TestConsumesContract:
    """Every entry rejects exactly the traffic knobs outside its ``consumes``."""

    @pytest.mark.parametrize("knob", TRAFFIC_KNOBS)
    @pytest.mark.parametrize("name", api.list_experiments())
    def test_knob_rejected_or_accepted_per_entry(self, name, knob):
        entry = api.get_experiment(name)
        value = KNOB_VALUES[knob]
        if knob in entry.consumes:
            spec = CampaignSpec(experiment=name, base={knob: value}, quick=True)
            assert spec.total_jobs == 1
            return
        engine = ExperimentEngine(workers=1)
        with pytest.raises(ConfigurationError, match="ignores the traffic knob") as run_error:
            api.run(name, config=TINY.with_overrides(**{knob: value}), engine=engine)
        assert engine.stats_log == []  # rejected before any trial ran
        with pytest.raises(ConfigurationError, match="consumes") as spec_error:
            CampaignSpec(experiment=name, base={knob: value})
        assert str(run_error.value) == str(spec_error.value)
        assert knob in str(run_error.value)


class TestDeprecationShims:
    def test_parallel_equals_serial_through_facade(self):
        serial = api.run("chain_sweep", config=TINY, quick=True)
        parallel = api.run(
            "chain_sweep", config=TINY, engine=ExperimentEngine(workers=2), quick=True
        )
        assert render_text(serial) == render_text(parallel)
        assert serial.get_series("cells") == parallel.get_series("cells")
