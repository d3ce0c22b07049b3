"""Byte-identity of the text view over structured results.

For every figure runner and scenario sweep, ``render_text(result)`` must
reproduce the legacy ``.render()`` report *exactly* — the acceptance
contract that makes text a pure view over the structured data.  Each
comparison also pushes the result through a JSON round-trip first, so the
view is proven to survive serialization, not just in-memory conversion.
"""

import pytest

from repro import api
from repro.experiments import ExperimentConfig
from repro.experiments.capacity_fig7 import render_capacity_table, run_capacity_experiment
from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.chain import run_chain_experiment
from repro.experiments.chain_sweep import CHAIN_SWEEP
from repro.experiments.mesh_sweep import MESH_SWEEP
from repro.experiments.scenarios import run_scenario
from repro.experiments.sir_sweep import render_sir_table, run_sir_sweep
from repro.experiments.snr_sweep import render_snr_table, run_snr_sweep
from repro.experiments.summary import run_summary
from repro.experiments.x_topology import run_x_topology_experiment
from repro.results import ExperimentResult, render_text


@pytest.fixture(scope="module")
def quick_config():
    return ExperimentConfig.quick(seed=11)


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(runs=1, packets_per_run=2, payload_bits=512, seed=3)


def roundtripped(result):
    """Push a result through JSON and back before rendering it."""
    return ExperimentResult.from_json(result.to_json())


class TestFigureByteIdentity:
    def test_alice_bob(self, quick_config):
        legacy = run_alice_bob_experiment(quick_config).render()
        result = api.run("alice-bob", config=quick_config)
        assert render_text(roundtripped(result)) == legacy

    def test_x_topology(self, quick_config):
        legacy = run_x_topology_experiment(quick_config).render()
        result = api.run("x", config=quick_config)
        assert render_text(roundtripped(result)) == legacy

    def test_chain(self, quick_config):
        legacy = run_chain_experiment(quick_config).render()
        result = api.run("chain", config=quick_config)
        assert render_text(roundtripped(result)) == legacy

    def test_capacity(self, quick_config):
        legacy = render_capacity_table(run_capacity_experiment(config=quick_config))
        result = api.run("capacity", config=quick_config)
        assert render_text(roundtripped(result)) == legacy

    def test_sir(self, quick_config):
        legacy = render_sir_table(
            run_sir_sweep(quick_config, packets_per_point=quick_config.packets_per_run)
        )
        result = api.run("sir", config=quick_config)
        assert render_text(roundtripped(result)) == legacy

    def test_snr(self, tiny_config):
        legacy = render_snr_table(run_snr_sweep(tiny_config))
        result = api.run("snr", config=tiny_config)
        assert render_text(roundtripped(result)) == legacy

    def test_summary(self, quick_config):
        legacy = run_summary(quick_config).render()
        result = api.run("summary", config=quick_config)
        assert render_text(roundtripped(result)) == legacy


class TestScenarioByteIdentity:
    @pytest.mark.parametrize("name", ["chain_sweep", "mesh_sweep"])
    def test_scenarios(self, name, tiny_config):
        spec = {"chain_sweep": CHAIN_SWEEP, "mesh_sweep": MESH_SWEEP}[name]
        legacy = run_scenario(spec, tiny_config, quick=True).render()
        result = api.run(name, config=tiny_config, quick=True)
        assert render_text(roundtripped(result)) == legacy

    def test_scenario_report_to_result(self, tiny_config):
        report = run_scenario(CHAIN_SWEEP, tiny_config, quick=True)
        result = report.to_result(tiny_config)
        assert result.kind == "scenario"
        assert render_text(result) == report.render()


class TestReportToResult:
    def test_experiment_report_to_result(self, quick_config):
        report = run_alice_bob_experiment(quick_config)
        result = report.to_result("alice-bob", quick_config)
        assert result.name == "alice-bob"
        assert result.kind == "figure"
        assert render_text(result) == report.render()
        # Per-run table covers every scheme of the experiment.
        runs = result.get_series("runs")
        assert set(runs.column("scheme")) == {"anc", "traditional", "cope"}
        assert len(runs) == 3 * quick_config.runs

    def test_renderer_dispatch_rejects_unknown(self):
        from repro.exceptions import ConfigurationError

        stray = ExperimentResult(name="toy", kind="figure", config={}, meta={})
        with pytest.raises(ConfigurationError):
            render_text(stray)

    def test_capacity_nan_crossover_omitted_and_restored(self, quick_config):
        from repro.capacity.sweep import CapacityCurve
        from repro.results.adapters import capacity_result

        curve = CapacityCurve(
            snr_db=(10.0, 20.0),
            traditional=(1.0, 2.0),
            anc=(1.5, 3.0),
            gain=(1.5, 1.5),
            crossover_db=float("nan"),
        )
        result = capacity_result("capacity", curve, quick_config)
        # The model stores only finite numbers; the undefined crossover is
        # omitted and the text view restores the legacy NaN rendering.
        assert "crossover_db" not in result.scalars
        assert "crossover SNR: nan dB" in render_text(result)
        assert ExperimentResult.from_json(result.to_json()) == result
