"""Tests of the impairment-sweep scenarios (cfo, fading, geometry)."""

import numpy as np
import pytest

from repro import api
from repro.channel.impairments import ImpairmentConfig
from repro.experiments.cfo_sweep import CFO_SWEEP, run_cfo_sweep_trial
from repro.experiments.config import ExperimentConfig
from repro.experiments.fading_sweep import FADING_SWEEP, RAYLEIGH_K_DB, run_fading_sweep_trial
from repro.experiments.geometry_mesh import GEOMETRY_MESH, run_geometry_mesh_trial
from repro.experiments.scenarios import run_scenario
from repro.network.topologies import ChannelConditions
from repro.results import render_text

TINY = ExperimentConfig(runs=1, packets_per_run=2, payload_bits=512, seed=5)


class TestRegistration:
    @pytest.mark.parametrize(
        "name,axis,schemes",
        [
            ("cfo_sweep", "cfo", ("anc", "traditional")),
            ("fading_sweep", "k_db", ("anc", "cope", "traditional")),
            ("geometry_mesh", "flows", ("anc", "cope", "traditional")),
        ],
    )
    def test_specs_registered_with_expected_shape(self, name, axis, schemes):
        spec = {s.name: s for s in (CFO_SWEEP, FADING_SWEEP, GEOMETRY_MESH)}[name]
        assert api.get_experiment(name).description == spec.description
        assert spec.sweep_axis == axis
        assert spec.schemes == schemes
        assert len(spec.values_for(quick=True)) < len(spec.values_for(quick=False))

    def test_scenarios_reachable_through_api(self):
        for name in ("cfo_sweep", "fading_sweep", "geometry_mesh"):
            assert api.get_experiment(name).kind == "scenario"


class TestCfoSweepTrial:
    def test_cell_reports_every_scheme_metric(self):
        cell = run_cfo_sweep_trial(TINY, (0.02, 0))
        assert set(cell) == {"anc", "traditional"}
        for metrics in cell.values():
            assert {"throughput", "delivered", "offered", "mean_ber", "slots"} <= set(
                metrics
            )

    def test_trial_is_deterministic(self):
        assert run_cfo_sweep_trial(TINY, (0.05, 1)) == run_cfo_sweep_trial(
            TINY, (0.05, 1)
        )

    def test_zero_cfo_point_matches_unimpaired_baseline(self):
        """The Δω=0 cell must be the exact baseline exchange: the axis
        origin proves the sweep machinery adds nothing when disabled."""
        baseline = run_cfo_sweep_trial(TINY, (0.0, 0))
        again = run_cfo_sweep_trial(
            TINY.with_overrides(impairments=ImpairmentConfig()), (0.0, 0)
        )
        assert baseline == again

    def test_sweep_points_share_the_run_environment(self):
        """Different Δω points of one run see identical traditional cells
        (routing never collides, so sender CFO cannot affect it... it does
        shift every link's ramp, but the topology draw is shared)."""
        low = run_cfo_sweep_trial(TINY, (0.0, 2))
        high = run_cfo_sweep_trial(TINY, (0.1, 2))
        assert low["traditional"]["offered"] == high["traditional"]["offered"]


class TestFadingSweepTrial:
    def test_cell_reports_every_scheme(self):
        cell = run_fading_sweep_trial(TINY, (6.0, 0))
        assert set(cell) == {"anc", "cope", "traditional"}

    def test_trial_is_deterministic(self):
        assert run_fading_sweep_trial(TINY, (0.0, 1)) == run_fading_sweep_trial(
            TINY, (0.0, 1)
        )

    def test_sentinel_selects_rayleigh(self):
        # At/below the sentinel the trial must run (pure Rayleigh) and
        # produce valid cells rather than a degenerate K-factor.
        cell = run_fading_sweep_trial(TINY, (RAYLEIGH_K_DB - 9.0, 0))
        assert cell["anc"]["offered"] > 0

    def test_drift_mode_params_accepted(self):
        cell = run_fading_sweep_trial(
            TINY, (6.0, 0), fading_mode="drift", fading_doppler=0.005
        )
        assert cell["anc"]["offered"] > 0


class TestGeometryMeshTrial:
    def test_cell_reports_every_scheme_with_pairing(self):
        cell = run_geometry_mesh_trial(TINY, (2, 0), nodes=10, radius=0.5)
        assert set(cell) == {"anc", "cope", "traditional"}
        assert cell["anc"]["paired"] >= 0.0
        assert cell["traditional"]["paired"] == 0.0

    def test_trial_is_deterministic(self):
        assert run_geometry_mesh_trial(TINY, (2, 1)) == run_geometry_mesh_trial(
            TINY, (2, 1)
        )

    def test_exponent_shapes_the_link_budget(self):
        """A harsher path-loss exponent weakens the generated links (the
        trial metrics can tie at smoke scale when every packet still
        gets through, so assert on the geometry-derived gains)."""
        from repro.channel.pathloss import PathLossModel
        from repro.network.generator import generate_geometric_mesh

        def mean_gain(exponent):
            topology = generate_geometric_mesh(
                ChannelConditions(),
                np.random.default_rng(6),
                nodes=10,
                radius=0.5,
                path_loss=PathLossModel(
                    exponent=exponent,
                    reference_distance=0.2,
                    reference_attenuation=0.95,
                    min_attenuation=0.05,
                ),
            )
            return np.mean(
                [
                    topology.link(s, d).attenuation
                    for s, d in topology.edges()
                ]
            )

        assert mean_gain(3.5) < mean_gain(2.0)


class TestImpairmentThreading:
    """Every waveform experiment honours cfg.impairments; the analytic
    capacity runner rejects them instead of silently recording them."""

    IMPAIRED = TINY.with_overrides(
        impairments=ImpairmentConfig(sender_cfo=0.1, fading="rayleigh")
    )

    def test_capacity_rejects_impairments(self):
        from repro.exceptions import ConfigurationError

        unread = r"does not read the config field\(s\) impairments"
        with pytest.raises(ConfigurationError, match=unread):
            api.run("capacity", config=self.IMPAIRED)

    def test_mesh_sweep_trial_honours_impairments(self):
        from repro.experiments.mesh_sweep import run_mesh_sweep_trial

        clean = run_mesh_sweep_trial(TINY, (2, 0))
        impaired = run_mesh_sweep_trial(self.IMPAIRED, (2, 0))
        assert clean != impaired

    def test_chain_sweep_trial_honours_impairments(self):
        from repro.experiments.chain_sweep import run_chain_sweep_trial

        # 3 hops: the K=2 chain decodes every packet perfectly with or
        # without impairments at this smoke scale, so its metrics tie.
        clean = run_chain_sweep_trial(TINY, (3, 0))
        impaired = run_chain_sweep_trial(self.IMPAIRED, (3, 0))
        assert clean != impaired

    def test_snr_point_trial_honours_impairments(self):
        from repro.experiments.snr_sweep import run_snr_point_trial

        clean = run_snr_point_trial(TINY, 0, (24.0,), 1)
        impaired = run_snr_point_trial(self.IMPAIRED, 0, (24.0,), 1)
        assert clean != impaired

    def test_sir_sweep_honours_impairments(self):
        from repro.experiments.sir_sweep import sir_points

        clean = sir_points(TINY, sir_db_values=(0.0,), packets_per_point=3)
        impaired = sir_points(
            self.IMPAIRED, sir_db_values=(0.0,), packets_per_point=3
        )
        assert clean != impaired

    def test_fading_sweep_respects_drift_request_in_config(self):
        """--fading-mode drift must not be silently reset to block."""
        drift_cfg = TINY.with_overrides(
            impairments=ImpairmentConfig(
                fading_mode="drift", fading_doppler=0.005
            )
        )
        block = run_fading_sweep_trial(TINY, (6.0, 0))
        drift = run_fading_sweep_trial(drift_cfg, (6.0, 0))
        assert block != drift

    def test_cli_scenario_config_carries_bare_drift_flags(self):
        """A lone --fading-mode/--fading-doppler reaches the config even
        though no impairment is 'enabled' by it."""
        from repro.cli import _config_from_args, build_parser

        args = build_parser().parse_args(
            ["fading_sweep", "--quick", "--fading-mode", "drift",
             "--fading-doppler", "0.01"]
        )
        cfg = _config_from_args(args)
        assert cfg.impairments.fading_mode == "drift"
        assert cfg.impairments.fading_doppler == 0.01
        # ... and it forks the snapshot/digest, so cached block-mode
        # cells can never be served to a drift-mode sweep.
        assert "impairments" in cfg.snapshot()

    def test_cfo_sweep_rejects_configured_sender_cfo(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="sweeps the per-sender"):
            run_cfo_sweep_trial(
                TINY.with_overrides(
                    impairments=ImpairmentConfig(sender_cfo=0.05)
                ),
                (0.0, 0),
            )

    def test_fading_sweep_rejects_configured_fading(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="sweeps the fading"):
            run_fading_sweep_trial(
                TINY.with_overrides(
                    impairments=ImpairmentConfig(fading="rayleigh")
                ),
                (6.0, 0),
            )


class TestScenarioRuns:
    def test_cfo_sweep_result_renders(self):
        text = render_text(run_scenario(CFO_SWEEP, TINY, quick=True))
        assert "=== scenario cfo_sweep ===" in text
        assert "anc/traditional" in text

    def test_fading_sweep_through_api_round_trips(self):
        result = api.run("fading_sweep", config=TINY, quick=True)
        assert result.name == "fading_sweep"
        from repro.results.model import ExperimentResult

        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()

    def test_impaired_config_digest_differs(self):
        """Engine caches can never serve impaired cells to clean configs."""
        from repro.experiments.engine import ExperimentEngine

        clean = ExperimentEngine.task_digest("s", run_cfo_sweep_trial, TINY)
        impaired = ExperimentEngine.task_digest(
            "s",
            run_cfo_sweep_trial,
            TINY.with_overrides(impairments=ImpairmentConfig(fading="rayleigh")),
        )
        assert clean != impaired

    def test_parallel_matches_serial(self):
        from repro.experiments.engine import ExperimentEngine

        serial = api.run("cfo_sweep", config=TINY, quick=True)
        with ExperimentEngine(workers=2) as engine:
            parallel = api.run("cfo_sweep", config=TINY, engine=engine, quick=True)
        assert serial.get_series("cells").rows == parallel.get_series("cells").rows
