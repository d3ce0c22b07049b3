"""Tests for scenario registration and the two shipped sweeps."""

import numpy as np
import pytest

from repro import api
from repro.exceptions import ConfigurationError
from repro.experiments import REGISTRY, ExperimentConfig, ExperimentEngine, run_scenario
from repro.experiments.chain_sweep import CHAIN_SWEEP, run_chain_sweep_trial
from repro.experiments.mesh_sweep import draw_mesh_flows, run_mesh_sweep_trial
from repro.network.generator import generate_random_mesh
from repro.network.topologies import ChannelConditions
from repro.results import render_text

QUICK = ExperimentConfig(runs=2, packets_per_run=3, payload_bits=512, seed=11)
TINY = ExperimentConfig(runs=1, packets_per_run=2, payload_bits=512, seed=3)


class TestRegistry:
    def test_shipped_scenarios_registered(self):
        assert "chain_sweep" in api.list_experiments(kind="scenario")
        assert "mesh_sweep" in api.list_experiments(kind="scenario")

    def test_lookup(self):
        entry = api.get_experiment("chain_sweep")
        assert entry is REGISTRY["chain_sweep"]
        assert entry.kind == "scenario"
        assert entry.description == CHAIN_SWEEP.description
        assert CHAIN_SWEEP.schemes[0] == "anc"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            api.get_experiment("does-not-exist")

    def test_quick_values_thin_the_axis(self):
        spec = CHAIN_SWEEP
        assert set(spec.values_for(quick=True)) <= set(spec.values_for(quick=False))


class TestChainSweep:
    def test_trial_reports_all_schemes(self):
        cell = run_chain_sweep_trial(QUICK, (3, 0))
        assert set(cell) == {"anc", "cope", "traditional"}
        for scheme in cell:
            assert cell[scheme]["throughput"] > 0
            assert cell[scheme]["offered"] == QUICK.packets_per_run

    def test_trial_deterministic(self):
        assert run_chain_sweep_trial(QUICK, (4, 1)) == run_chain_sweep_trial(
            QUICK, (4, 1)
        )

    def test_three_hop_point_shows_anc_gain(self):
        cell = run_chain_sweep_trial(QUICK, (3, 0))
        assert cell["anc"]["throughput"] > cell["cope"]["throughput"]
        # Digital coding has nothing to XOR on a one-way chain: it equals
        # the optimal-MAC pipelined routing schedule.
        assert cell["cope"]["throughput"] >= cell["traditional"]["throughput"]

    def test_result_renders_table(self):
        spec = CHAIN_SWEEP
        text = render_text(run_scenario(spec, QUICK, quick=True))
        assert "=== scenario chain_sweep ===" in text
        assert "anc/traditional" in text
        assert f"runs per point: {QUICK.runs}" in text
        for hops in spec.values_for(quick=True):
            assert f"\n{hops:>8}" in text


class TestMeshSweep:
    def test_flow_draw_prefers_two_hop_pairs(self):
        conditions = ChannelConditions(snr_db=28.0)
        rng = np.random.default_rng(5)
        topology = generate_random_mesh(conditions, rng, nodes=12, radius=0.45)
        flows = draw_mesh_flows(topology, 6, packets=3, rng=rng)
        assert len(flows) == 6
        assert len({(f.source, f.destination) for f in flows}) == 6
        for flow in flows:
            assert len(topology.shortest_path(flow.source, flow.destination)) >= 3

    def test_trial_reports_all_schemes(self):
        cell = run_mesh_sweep_trial(QUICK, (4, 0), nodes=10, radius=0.5)
        assert set(cell) == {"anc", "cope", "traditional"}
        assert cell["traditional"]["paired"] == 0.0
        assert cell["anc"]["paired"] == cell["cope"]["paired"]
        assert cell["anc"]["offered"] == cell["traditional"]["offered"]

    def test_trial_deterministic(self):
        assert run_mesh_sweep_trial(QUICK, (4, 1)) == run_mesh_sweep_trial(QUICK, (4, 1))


class TestEngineIntegration:
    def test_parallel_equals_serial(self):
        spec = CHAIN_SWEEP
        serial = run_scenario(spec, TINY, engine=ExperimentEngine(workers=1), quick=True)
        with ExperimentEngine(workers=2) as engine:
            parallel = run_scenario(spec, TINY, engine=engine, quick=True)
        assert serial == parallel

    def test_cache_resume(self, tmp_path):
        spec = CHAIN_SWEEP
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        first = run_scenario(spec, TINY, engine=engine, quick=True)
        assert engine.last_stats.executed_trials > 0
        second = run_scenario(spec, TINY, engine=engine, quick=True)
        assert engine.last_stats.executed_trials == 0
        assert engine.last_stats.cached_trials == engine.last_stats.total_trials
        assert first == second
