"""Tests of the time-domain scenarios: offered_load_sweep and queueing_delay."""

import pytest

from repro import api
from repro.exceptions import ConfigurationError
from repro.results.model import config_digest
from repro.experiments import ExperimentConfig, ExperimentEngine, run_scenario
from repro.experiments.config import DEFAULT_MAC_POLICY
from repro.experiments.chain_sweep import CHAIN_SWEEP
from repro.experiments.offered_load import OFFERED_LOAD_SWEEP, run_offered_load_trial
from repro.experiments.queueing_delay import QUEUEING_DELAY, run_queueing_delay_trial
from repro.sim.traffic import TRAFFIC_MODELS

QUICK = ExperimentConfig(runs=1, packets_per_run=2, payload_bits=512, seed=7)
SHORT = QUICK.with_overrides(sim_duration=24.0)


class TestRegistration:
    def test_offered_load_spec_shape(self):
        spec = OFFERED_LOAD_SWEEP
        assert spec.sweep_axis == "load"
        assert spec.schemes == ("anc", "cope", "traditional")
        assert set(spec.values_for(quick=True)) <= set(spec.values_for(quick=False))
        assert set(spec.consumes) == {"sim_duration", "mac_policy"}

    def test_queueing_delay_spec_shape(self):
        spec = QUEUEING_DELAY
        assert spec.sweep_axis == "traffic"
        assert spec.sweep_values == TRAFFIC_MODELS
        assert set(spec.consumes) == {"arrival_rate", "sim_duration", "mac_policy"}

    def test_reachable_through_api(self):
        for name in ("offered_load_sweep", "queueing_delay"):
            assert api.get_experiment(name).kind == "scenario"


class TestTrials:
    def test_offered_load_cell_reports_every_scheme(self):
        cell = run_offered_load_trial(SHORT, (0.8, 0))
        assert set(cell) == {"anc", "cope", "traditional"}
        for metrics in cell.values():
            assert {
                "throughput",
                "drop_rate",
                "delay_mean",
                "delay_p95",
                "queue_wait_mean",
            } <= set(metrics)

    def test_trials_are_deterministic(self):
        assert run_offered_load_trial(SHORT, (0.8, 0)) == run_offered_load_trial(
            SHORT, (0.8, 0)
        )
        assert run_queueing_delay_trial(SHORT, ("cbr", 0)) == run_queueing_delay_trial(
            SHORT, ("cbr", 0)
        )

    def test_schemes_share_the_offered_sample_path(self):
        cell = run_offered_load_trial(SHORT, (0.8, 0))
        offered = {metrics["offered"] for metrics in cell.values()}
        assert len(offered) == 1, "identical entropy must give identical arrivals"

    def test_high_load_reproduces_the_section8_ordering(self):
        """§8's qualitative result: ANC goodput > COPE > traditional when
        the Alice-relay-Bob exchange saturates (hidden-terminal collapse)."""
        cell = run_offered_load_trial(QUICK, (1.2, 0))
        assert cell["anc"]["throughput"] > cell["cope"]["throughput"]
        assert cell["anc"]["throughput"] > cell["traditional"]["throughput"]
        assert cell["anc"]["drop_rate"] < cell["traditional"]["drop_rate"]

    def test_queueing_delay_honours_arrival_rate_knob(self):
        low = run_queueing_delay_trial(SHORT.with_overrides(arrival_rate=0.2), ("poisson", 0))
        high = run_queueing_delay_trial(SHORT.with_overrides(arrival_rate=1.2), ("poisson", 0))
        assert high["anc"]["offered"] > low["anc"]["offered"]


class TestEngineParity:
    def test_serial_and_parallel_results_identical(self):
        serial = api.run("offered_load_sweep", config=SHORT, quick=True)
        parallel = api.run(
            "offered_load_sweep",
            config=SHORT,
            engine=ExperimentEngine(workers=2),
            quick=True,
        )
        a, b = serial.to_dict(), parallel.to_dict()
        assert a["series"] == b["series"]
        assert a["scalars"] == b["scalars"]
        assert a["config_digest"] == b["config_digest"]


class TestConfigKnobs:
    def test_defaults_are_digest_neutral(self):
        snapshot = QUICK.snapshot()
        assert "arrival_rate" not in snapshot
        assert "sim_duration" not in snapshot
        assert "mac_policy" not in snapshot
        explicit_default = ExperimentConfig(
            runs=1, packets_per_run=2, payload_bits=512, seed=7,
            mac_policy=DEFAULT_MAC_POLICY,
        )
        assert config_digest(QUICK.snapshot()) == config_digest(
            explicit_default.snapshot()
        )

    def test_consumed_knobs_fork_the_digest(self):
        assert config_digest(SHORT.snapshot()) != config_digest(QUICK.snapshot())

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(arrival_rate=-0.5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mac_policy="aloha")

    def test_unconsumed_knob_rejected_by_scenarios(self):
        spec = CHAIN_SWEEP
        with pytest.raises(ConfigurationError, match="ignores the traffic knob"):
            run_scenario(spec, QUICK.with_overrides(arrival_rate=0.5), quick=True)

    def test_sweep_axis_knob_rejected_by_offered_load(self):
        # arrival_rate IS the sweep axis: setting it would be silently wrong.
        spec = OFFERED_LOAD_SWEEP
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            run_scenario(spec, QUICK.with_overrides(arrival_rate=0.5), quick=True)

    def test_unconsumed_knob_rejected_by_figures(self):
        with pytest.raises(ConfigurationError, match="ignores the traffic knob"):
            api.run("alice-bob", config=QUICK.with_overrides(sim_duration=10.0))
