"""Tests for the unified :mod:`repro.api` facade."""

import functools

import pytest

from repro import api
from repro.campaign.spec import CampaignSpec
from repro.channel.impairments import ImpairmentConfig
from repro.exceptions import ConfigurationError
from repro.experiments import REGISTRY, ExperimentConfig, ExperimentEngine
from repro.experiments.config import MODEL_FIELDS
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

#: A non-default value for each model field; every experiment that reads
#: the field computes something different with it, except the pairs
#: :data:`MOVE_CASES` overrides.
FIELD_VALUES = {
    "snr_db_range": (14.0, 16.0),
    "overlap_range": (0.3, 0.4),
    "overlap_jitter": 0.5,
    "ber_acceptance": 0.0,
    "anc_redundancy_overhead": 0.5,
    "chain_redundancy_overhead": 0.5,
    "impairments": ImpairmentConfig(sender_cfo=0.01),
    "arrival_rate": 0.5,
    "sim_duration": 20.0,
    "mac_policy": "scheduled",
}

#: The size every declared read is bumped at (all 14 entries in seconds).
MOVE_BASE = ExperimentConfig(runs=2, packets_per_run=3, payload_bits=128, seed=7)

#: (experiment, field) pairs whose effect depends on the data, with a
#: (base, value) that provably moves them: 128-bit chain packets all
#: decode at BER 0, so the acceptance threshold needs 512-bit payloads;
#: a 0.01 CFO leaves the mesh's decodes unchanged while fading does not;
#: and ``cfo_sweep`` rejects a set CFO (its sweep axis), so only fading
#: can move it.
MOVE_CASES = {
    ("chain", "ber_acceptance"): (MOVE_BASE.with_overrides(payload_bits=512), 0.0),
    ("mesh_sweep", "impairments"): (MOVE_BASE, ImpairmentConfig(fading="rayleigh")),
    ("cfo_sweep", "impairments"): (MOVE_BASE, ImpairmentConfig(fading="rayleigh")),
}


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
        assert entry.reads == (
            "snr_db_range", "overlap_range", "overlap_jitter", "ber_acceptance",
            "impairments", "anc_redundancy_overhead",
        )
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


class TestReadsContract:
    """Every entry rejects exactly the model fields outside its ``reads``."""

    @pytest.mark.parametrize("field", MODEL_FIELDS)
    @pytest.mark.parametrize("name", api.list_experiments())
    def test_field_rejected_or_accepted_per_entry(self, name, field):
        entry = api.get_experiment(name)
        value = ExperimentConfig(**{field: FIELD_VALUES[field]}).snapshot()[field]
        if field in entry.reads:
            spec = CampaignSpec(experiment=name, base={field: value}, quick=True)
            assert spec.total_jobs == 1
            return
        engine = ExperimentEngine(workers=1)
        with pytest.raises(ConfigurationError, match="does not read") as run_error:
            api.run(name, config=TINY.with_overrides(**{field: FIELD_VALUES[field]}), engine=engine)
        assert engine.stats_log == []  # rejected before any trial ran
        with pytest.raises(ConfigurationError, match="does not read") as spec_error:
            CampaignSpec(experiment=name, base={field: value})
        assert str(run_error.value) == str(spec_error.value)
        assert field in str(run_error.value)

    def test_spec_checks_every_job(self):
        # One of the two grid points sets a field alice-bob does not read.
        with pytest.raises(ConfigurationError, match="chain_redundancy_overhead"):
            CampaignSpec(
                experiment="alice-bob",
                axes={"chain_redundancy_overhead": (0.04, 0.5)},
            )
        # An axis that only ever takes the default value sets nothing.
        assert CampaignSpec(
            experiment="alice-bob", axes={"chain_redundancy_overhead": (0.04,)}
        ).total_jobs == 1

    @pytest.mark.parametrize(
        "name, field",
        [(name, field) for name in api.list_experiments() for field in REGISTRY[name].reads],
    )
    def test_every_declared_read_moves_the_result(self, name, field):
        base, value = MOVE_CASES.get((name, field), (MOVE_BASE, FIELD_VALUES[field]))
        moved = api.run(name, config=base.with_overrides(**{field: value}), quick=True)
        reference = _move_reference(name, base)
        assert (moved.series, moved.scalars) != (reference.series, reference.scalars), (
            f"{name} accepts {field} but computes the same result with it"
        )


@functools.lru_cache(maxsize=None)
def _move_reference(name, base):
    """The unbumped result of one experiment at one base."""
    return api.run(name, config=base, quick=True)


class TestDeprecationShims:
    def test_parallel_equals_serial_through_facade(self):
        serial = api.run("chain_sweep", config=TINY, quick=True)
        with ExperimentEngine(workers=2) as engine:
            parallel = api.run("chain_sweep", config=TINY, engine=engine, quick=True)
        assert render_text(serial) == render_text(parallel)
        assert serial.get_series("cells") == parallel.get_series("cells")
