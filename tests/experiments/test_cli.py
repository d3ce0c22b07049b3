"""Tests for the command-line interface."""

import pytest

from repro import api
from repro.cli import _config_from_args, build_parser, main
from repro.experiments.engine import ExperimentEngine

SCENARIO_NAMES = {
    "chain_sweep",
    "mesh_sweep",
    "cfo_sweep",
    "fading_sweep",
    "geometry_mesh",
    "offered_load_sweep",
    "queueing_delay",
}


class TestParser:
    def test_all_experiments_listed(self):
        parser = build_parser()
        for name in api.list_experiments(kind="figure"):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["does-not-exist"])

    def test_defaults(self):
        args = build_parser().parse_args(["capacity"])
        # Size flags default to "not given"; the 10/10/768 size is
        # resolved per experiment kind by _config_from_args.
        assert (args.runs, args.packets, args.payload_bits) == (None, None, None)
        config = _config_from_args(args)
        assert config.runs == 10
        assert config.packets_per_run == 10
        assert config.payload_bits == 768
        assert args.workers == 1
        assert args.resume is False
        assert args.cache_dir is None

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["alice-bob", "--workers", "4", "--resume", "--cache-dir", "/tmp/c"]
        )
        assert args.workers == 4
        assert args.resume is True
        assert args.cache_dir == "/tmp/c"


class TestMain:
    def test_capacity_runs_and_prints(self, capsys):
        assert main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out

    def test_alice_bob_small(self, capsys):
        assert main(["alice-bob", "--runs", "2", "--packets", "3", "--payload-bits", "512"]) == 0
        out = capsys.readouterr().out
        assert "fig09_alice_bob" in out
        assert "gain" in out

    def test_sir_small(self, capsys):
        assert main(["sir", "--runs", "1", "--packets", "3", "--payload-bits", "512"]) == 0
        assert "SIR" in capsys.readouterr().out

    def test_chain_small(self, capsys):
        assert main(["chain", "--runs", "2", "--packets", "3", "--payload-bits", "512"]) == 0
        assert "fig12_chain" in capsys.readouterr().out

    def test_parallel_output_matches_serial(self, capsys):
        base = ["alice-bob", "--runs", "2", "--packets", "3", "--payload-bits", "512"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_invalid_workers_is_clean_error(self, capsys):
        assert main(["alice-bob", "--workers", "0"]) == 2
        assert "workers must be a positive integer" in capsys.readouterr().err

    def test_resume_reuses_cache(self, capsys, tmp_path):
        base = [
            "sir", "--runs", "1", "--packets", "3", "--payload-bits", "512",
            "--cache-dir", str(tmp_path),
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert any(tmp_path.iterdir()), "trials should have been cached"
        assert main(base) == 0
        assert capsys.readouterr().out == first


class TestScenarioCommand:
    def test_all_scenarios_listed(self):
        parser = build_parser()
        assert set(api.list_experiments(kind="scenario")) == SCENARIO_NAMES
        for name in SCENARIO_NAMES:
            args = parser.parse_args([name, "--quick"])
            assert args.experiment == name
            assert args.quick is True

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["does-not-exist", "--quick"])

    def test_chain_sweep_quick_runs(self, capsys):
        assert main(["chain_sweep", "--quick", "--runs", "1",
                     "--packets", "2"]) == 0
        out = capsys.readouterr().out
        assert "=== scenario chain_sweep ===" in out
        assert "anc/traditional" in out

    def test_mesh_sweep_quick_runs(self, capsys):
        assert main(["mesh_sweep", "--quick", "--runs", "1",
                     "--packets", "2"]) == 0
        assert "=== scenario mesh_sweep ===" in capsys.readouterr().out

    def test_parallel_output_matches_serial(self, capsys):
        base = ["chain_sweep", "--quick", "--runs", "1", "--packets", "2"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_invalid_workers_is_clean_error(self, capsys):
        assert main(["chain_sweep", "--quick", "--workers", "0"]) == 2
        assert "workers must be a positive integer" in capsys.readouterr().err

    def test_infinite_sim_duration_fails_before_any_trial(self, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(ExperimentEngine, "map", lambda *args, **kwargs: trials.append(args))
        assert main(["queueing_delay", "--quick", "--sim-duration", "inf"]) == 2
        assert "sim_duration must be a finite number" in capsys.readouterr().err
        assert trials == []
