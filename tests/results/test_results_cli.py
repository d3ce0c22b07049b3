"""Tests for the CLI's structured-output formats and unified registry."""

import json

import pytest

from repro import __version__, api
from repro.cli import FORMATS, _config_from_args, build_parser, main
from repro.experiments import ExperimentConfig
from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.results.render import render_text
from repro.results import ExperimentResult, SCHEMA_VERSION

SMALL = ["--runs", "2", "--packets", "3", "--payload-bits", "512"]


class TestRegistryDerivation:
    def test_experiment_lists_derive_from_unified_registry(self):
        parser = build_parser()
        (positional,) = [a for a in parser._actions if a.dest == "experiment"]
        assert list(positional.choices) == sorted(api.list_experiments())
        for name in api.list_experiments():
            assert f"{name}: {api.get_experiment(name).description}" in parser.epilog

    def test_main_parser_accepts_scenarios_too(self):
        args = build_parser().parse_args(["chain_sweep", "--quick"])
        assert args.experiment == "chain_sweep"
        assert args.quick is True

    def test_format_choices(self):
        args = build_parser().parse_args(["alice-bob", "--format", "json"])
        assert args.format == "json"
        assert set(FORMATS) == {"text", "json", "csv"}
        with pytest.raises(SystemExit):
            build_parser().parse_args(["alice-bob", "--format", "xml"])


class TestVersionFlag:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"anc-repro {__version__}"

    def test_scenario_parser_version_flag(self, capsys):
        # The scenario form of the command answers --version too.
        with pytest.raises(SystemExit) as excinfo:
            main(["chain_sweep", "--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"anc-repro {__version__}"


class TestFormats:
    def test_text_format_renders_the_result_tables(self, capsys):
        assert main(["alice-bob"] + SMALL) == 0
        out = capsys.readouterr().out
        expected = render_text(run_alice_bob_experiment(
            ExperimentConfig(runs=2, packets_per_run=3, payload_bits=512)
        ))
        assert out == expected + "\n"

    def test_json_format_parses_and_is_schema_versioned(self, capsys):
        assert main(["alice-bob"] + SMALL + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["name"] == "alice-bob"
        result = ExperimentResult.from_dict(payload)
        assert result.config["runs"] == 2

    def test_csv_format_is_schema_versioned(self, capsys):
        assert main(["sir"] + SMALL + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"schema_version,{SCHEMA_VERSION}")
        assert "[series points]" in out

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert main(
            ["chain"] + SMALL + ["--format", "json", "--output", str(target)]
        ) == 0
        assert capsys.readouterr().out == ""
        result = ExperimentResult.from_json(target.read_text())
        assert result.name == "chain"
        assert result.meta["engine"]["workers"] == 1

    def test_scenario_subcommand_json(self, capsys):
        assert main(
            ["chain_sweep", "--quick", "--runs", "1", "--packets", "2",
             "--payload-bits", "512", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "scenario"
        assert payload["meta"]["runs"] == 1

    def test_scenario_via_main_parser(self, capsys):
        assert main(["chain_sweep", "--quick", "--runs", "1", "--packets", "2",
                     "--payload-bits", "512"]) == 0
        assert "=== scenario chain_sweep ===" in capsys.readouterr().out

    def test_scenario_quick_config_matches_run_subcommand(self):
        # 'anc-repro chain_sweep --quick' uses the smoke-test config base.
        parser = build_parser()
        args = parser.parse_args(["chain_sweep", "--quick"])
        assert _config_from_args(args) == ExperimentConfig.quick(seed=args.seed)
        # Explicit flags still override the quick base.
        args = parser.parse_args(["chain_sweep", "--quick", "--runs", "5"])
        config = _config_from_args(args)
        assert config.runs == 5
        assert config.packets_per_run == ExperimentConfig.quick().packets_per_run
        # Figures ignore --quick and keep the 10/10/768 defaults.
        args = parser.parse_args(["alice-bob", "--quick"])
        config = _config_from_args(args)
        assert (config.runs, config.packets_per_run, config.payload_bits) == (10, 10, 768)
        # Scenarios without --quick get the same defaults.
        config = _config_from_args(parser.parse_args(["chain_sweep"]))
        assert (config.runs, config.packets_per_run, config.payload_bits) == (10, 10, 768)

    def test_default_valued_flags_win_over_quick_base(self):
        # Flags that happen to equal the non-quick defaults are still
        # explicit: they must override the --quick base, not be dropped.
        args = build_parser().parse_args(
            ["chain_sweep", "--quick", "--runs", "10", "--packets", "10",
             "--payload-bits", "768"]
        )
        config = _config_from_args(args)
        assert (config.runs, config.packets_per_run, config.payload_bits) == (10, 10, 768)
        assert config == ExperimentConfig.quick(seed=args.seed).with_overrides(
            runs=10, packets_per_run=10, payload_bits=768
        )

    @pytest.mark.parametrize("name", api.list_experiments())
    def test_size_defaults_resolved_per_kind(self, name):
        parser = build_parser()

        def sizes(argv):
            config = _config_from_args(parser.parse_args(argv))
            return config.runs, config.packets_per_run, config.payload_bits

        quick = ExperimentConfig.quick()
        quick_sizes = (quick.runs, quick.packets_per_run, quick.payload_bits)
        is_scenario = api.get_experiment(name).kind == "scenario"
        assert sizes([name]) == (10, 10, 768)
        assert sizes([name, "--quick"]) == (quick_sizes if is_scenario else (10, 10, 768))
        explicit = ["--runs", "10", "--packets", "10", "--payload-bits", "768"]
        assert sizes([name, "--quick", *explicit]) == (10, 10, 768)

    def test_unwritable_output_is_clean_error(self, capsys):
        code = main(["capacity"] + SMALL + [
            "--format", "json", "--output", "/nonexistent-dir/result.json",
        ])
        assert code == 2
        assert "anc-repro: error:" in capsys.readouterr().err
