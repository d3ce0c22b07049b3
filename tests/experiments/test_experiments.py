"""Quick-configuration end-to-end tests for every figure experiment.

These use ``ExperimentConfig.quick()`` so the whole module runs in tens of
seconds; the benchmark harness runs the full-size versions.
"""

import pytest

from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.capacity_fig7 import run_capacity_experiment
from repro.experiments.chain import run_chain_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.sir_sweep import run_sir_sweep, sir_points
from repro.experiments.summary import run_summary
from repro.experiments.x_topology import run_x_topology_experiment
from repro.results.render import gain_samples, render_text


def mean_gain(result, baseline):
    gains = gain_samples(result, baseline)
    return sum(gains) / len(gains)


def mean_ber(result):
    bers = result.get_series("ber").column("ber")
    return sum(bers) / len(bers)


@pytest.fixture(scope="module")
def quick_config():
    return ExperimentConfig.quick(seed=11)


@pytest.fixture(scope="module")
def alice_bob_result(quick_config):
    return run_alice_bob_experiment(quick_config)


class TestAliceBobExperiment:
    def test_runs_and_pairs(self, quick_config, alice_bob_result):
        runs = alice_bob_result.get_series("runs")
        assert runs.column("scheme").count("anc") == quick_config.runs
        assert runs.column("scheme").count("traditional") == quick_config.runs
        assert len(gain_samples(alice_bob_result, "traditional")) == quick_config.runs

    def test_anc_beats_baselines_on_average(self, alice_bob_result):
        assert mean_gain(alice_bob_result, "traditional") > 1.2
        assert mean_gain(alice_bob_result, "cope") > 1.0

    def test_ber_cdf_present_and_small(self, alice_bob_result):
        assert "ber" in alice_bob_result.series
        assert mean_ber(alice_bob_result) < 0.2

    def test_report_renders(self, alice_bob_result):
        text = render_text(alice_bob_result)
        assert "fig09_alice_bob" in text
        assert "gain" in text

    def test_deterministic_given_seed(self, quick_config):
        again = run_alice_bob_experiment(quick_config)
        first = run_alice_bob_experiment(quick_config)
        assert first.get_series("gains") == again.get_series("gains")


class TestXTopologyExperiment:
    def test_shape(self, quick_config):
        result = run_x_topology_experiment(quick_config)
        assert result.meta["title"] == "fig10_x_topology"
        assert mean_gain(result, "traditional") > 1.0
        assert 0.5 <= result.scalars["anc_delivery_ratio"] <= 1.0


class TestChainExperiment:
    def test_shape(self, quick_config):
        result = run_chain_experiment(quick_config)
        assert result.meta["title"] == "fig12_chain"
        assert result.meta["baselines"] == ["traditional"]  # COPE does not apply (§11.6)
        assert mean_gain(result, "traditional") > 1.1
        assert mean_ber(result) < 0.1


class TestSIRSweep:
    def test_points(self, quick_config):
        points = sir_points(quick_config, sir_db_values=(-3.0, 0.0, 3.0), packets_per_point=3)
        assert [p.sir_db for p in points] == [-3.0, 0.0, 3.0]
        assert all(0.0 <= p.mean_ber <= 0.5 for p in points)

    def test_result_and_rendering(self, quick_config):
        result = run_sir_sweep(quick_config)
        assert len(result.get_series("points")) == 8
        assert result.meta["params"] == {"packets_per_point": quick_config.packets_per_run}
        assert "SIR" in render_text(result)

    def test_decodes_at_negative_sir(self, quick_config):
        """§11.7: decoding still works at -3 dB SIR (BER below ~5 %)."""
        points = sir_points(quick_config, sir_db_values=(-3.0,), packets_per_point=6)
        assert points[0].mean_ber < 0.08


class TestCapacityExperiment:
    def test_curve_and_table(self):
        result = run_capacity_experiment()
        assert result.scalars["asymptotic_gain"] > 1.7
        assert "crossover" in render_text(result)


class TestSummary:
    def test_summary_rows(self):
        config = ExperimentConfig.quick(seed=5)
        result = run_summary(config)
        rows = dict(result.get_series("rows").rows)
        assert rows["alice_bob_gain_over_traditional"] > 1.2
        assert rows["chain_gain_over_traditional"] > 1.1
        assert rows == result.scalars
        assert "=== Summary" in render_text(result)
