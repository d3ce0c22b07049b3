"""Command-line interface for the ANC reproduction experiments.

``python -m repro.cli <experiment>`` (or the ``anc-repro`` console script)
runs any experiment in the :mod:`repro.api` registry — the seven figure
reproductions *and* the registered scenario sweeps — and emits the result
in the requested format::

    python -m repro.cli alice-bob --runs 10 --packets 20
    python -m repro.cli capacity --format json --output capacity.json
    python -m repro.cli sir --seed 3 --format csv
    python -m repro.cli chain_sweep --quick --workers 2
    python -m repro.cli mesh_sweep --runs 20 --workers 8 --resume
    python -m repro.cli --version

``--format text`` (the default) prints the familiar plain-text report —
byte-identical to the pre-structured-results CLI — while ``json`` and
``csv`` emit the schema-versioned machine-readable serializations of the
underlying :class:`~repro.results.model.ExperimentResult` (see
``docs/API.md``).  ``--output PATH`` writes to a file instead of stdout.

``--runs`` / ``--packets`` / ``--payload-bits`` default to 10 / 10 / 768;
``--quick`` shrinks a scenario sweep to smoke-test size (a thinned sweep
axis and the :meth:`ExperimentConfig.quick` base of 3 / 4 / 512, which
explicit flags still override).

Monte-Carlo trials execute through the
:class:`~repro.experiments.engine.ExperimentEngine`: ``--workers N`` fans
them out over ``N`` processes (bit-identical to serial, just faster),
and ``--resume`` caches completed trials on disk so an interrupted
paper-scale sweep picks up where it left off::

    python -m repro.cli alice-bob --runs 40 --packets 1000 --workers 8 --resume

``--arrival-rate`` / ``--sim-duration`` / ``--mac-policy`` configure the
event-driven traffic scenarios.  A flag that sets a config field the
chosen experiment does not read is an error, not a silent no-op::

    python -m repro.cli offered_load_sweep --quick --mac-policy scheduled
    python -m repro.cli queueing_delay --quick --arrival-rate 0.9

The ``campaign run`` subcommand runs a declarative sweep grid against a
resumable result store (:mod:`repro.campaign`, documented in
``docs/CAMPAIGNS.md``)::

    python -m repro.cli campaign run grid.json --store results/
    python -m repro.cli campaign run grid.json --store results/ --shard-index 0 --shard-count 2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__, api
from repro.channel.fading import FADING_KINDS, FADING_MODES
from repro.channel.impairments import ImpairmentConfig
from repro.exceptions import ConfigurationError
from repro.experiments.config import DEFAULT_MAC_POLICY, ExperimentConfig
from repro.experiments.engine import DEFAULT_CACHE_DIR, ExperimentEngine
from repro.sim.mac import MAC_POLICIES
from repro.results.model import ExperimentResult
from repro.results.render import render_text

#: Output formats the CLI can emit.
FORMATS = ("text", "json", "csv")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (figures and scenarios alike)."""
    parser = argparse.ArgumentParser(
        prog="anc-repro",
        description="Regenerate the evaluation figures of 'Embracing Wireless "
        "Interference: Analog Network Coding' (SIGCOMM 2007) or run a "
        "registered scenario sweep (see docs/SCENARIOS.md).  Emits the "
        "plain-text report by default; --format json/csv emits the "
        "schema-versioned structured result (docs/API.md).",
        epilog="experiments: " + "; ".join(
            f"{name}: {api.get_experiment(name).description}"
            for name in api.list_experiments()
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(api.list_experiments()),
        help="which experiment (figure or scenario sweep) to run",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="independent testbed runs (default 10)"
    )
    parser.add_argument(
        "--packets", type=int, default=None, help="packets per direction per run (default 10)"
    )
    parser.add_argument(
        "--payload-bits", type=int, default=None, help="payload size in bits (default 768)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scenario sweeps only: thin the sweep axis and start from the "
        "smoke-test size (3 runs, 4 packets, 512-bit payloads)",
    )
    _add_engine_arguments(parser)
    _add_impairment_arguments(parser)
    _add_sim_arguments(parser)
    _add_output_arguments(parser)
    return parser


def _add_sim_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the time-domain traffic flags.

    These only apply to the event-driven traffic scenarios
    (``offered_load_sweep`` reads ``--sim-duration``/``--mac-policy``,
    ``queueing_delay`` all three); setting one for any other experiment
    is a :class:`ConfigurationError`, not a silent no-op.
    """
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=0.0,
        help="offered load for the time-domain traffic scenarios, in "
        "packets per frame-time over both directions (0 = the scenario "
        "default)",
    )
    parser.add_argument(
        "--sim-duration",
        type=float,
        default=0.0,
        help="simulated horizon of the traffic scenarios in frame-times "
        "(0 = the scenario default)",
    )
    parser.add_argument(
        "--mac-policy",
        choices=MAC_POLICIES,
        default=DEFAULT_MAC_POLICY,
        help="medium access for the traffic scenarios: 'csma' contention "
        "with binary exponential backoff (default) or the collision-free "
        "'scheduled' TDMA grid",
    )


def _add_impairment_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the channel-impairment flags.

    The defaults disable every impairment, which reproduces the baseline
    flat channel byte-for-byte (see ``docs/CHANNELS.md``).
    """
    parser.add_argument(
        "--cfo",
        type=float,
        default=0.0,
        help="per-sender carrier frequency offset magnitude in radians per "
        "sample (offsets spread deterministically over [-cfo, +cfo], so "
        "every radio's oscillator differs; 0 disables the stage)",
    )
    parser.add_argument(
        "--fading",
        choices=FADING_KINDS,
        default="none",
        help="stochastic fading family applied to every link (default none)",
    )
    parser.add_argument(
        "--rician-k-db",
        type=float,
        default=6.0,
        help="Rician K-factor in dB (requires --fading rician)",
    )
    parser.add_argument(
        "--fading-mode",
        choices=FADING_MODES,
        default="block",
        help="fading time structure: one fade per packet ('block') or "
        "in-packet Gauss-Markov evolution ('drift')",
    )
    parser.add_argument(
        "--fading-doppler",
        type=float,
        default=0.0,
        help="normalised fade rate for --fading-mode drift (fraction of the "
        "gain decorrelated per sample)",
    )


def _impairments_from_args(args: argparse.Namespace) -> ImpairmentConfig:
    """Build the impairment declaration the CLI flags describe."""
    return ImpairmentConfig(
        sender_cfo=args.cfo,
        fading=args.fading,
        rician_k_db=args.rician_k_db,
        fading_mode=args.fading_mode,
        fading_doppler=args.fading_doppler,
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the seed/engine flags."""
    parser.add_argument("--seed", type=int, default=20070823, help="master random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the trial engine (default 1 = serial; "
        "parallel output is bit-identical to serial)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="cache completed trials to disk and reuse them on the next "
        f"invocation (default cache: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="trial-cache directory (implies --resume when set)",
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the result-format/output/version flags."""
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        dest="format",
        help="output format: 'text' (default, the classic report), or the "
        "schema-versioned 'json' / 'csv' structured result",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the result to this file instead of stdout",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config the flags describe, with each experiment kind's size defaults.

    A size flag the user gave always wins.  Otherwise the run is 10 runs
    of 10 packets with 768-bit payloads, except that a scenario under
    ``--quick`` starts from :meth:`ExperimentConfig.quick`.
    """
    if args.quick and api.get_experiment(args.experiment).kind == "scenario":
        base = ExperimentConfig.quick(seed=args.seed)
    else:
        base = ExperimentConfig(runs=10, packets_per_run=10, payload_bits=768, seed=args.seed)
    sizes = {
        "runs": args.runs,
        "packets_per_run": args.packets,
        "payload_bits": args.payload_bits,
    }
    return base.with_overrides(
        **{name: value for name, value in sizes.items() if value is not None},
        impairments=_impairments_from_args(args),
        arrival_rate=args.arrival_rate,
        sim_duration=args.sim_duration,
        mac_policy=args.mac_policy,
    )


def _engine_from_args(args: argparse.Namespace) -> ExperimentEngine:
    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = DEFAULT_CACHE_DIR
    return ExperimentEngine(workers=args.workers, cache_dir=cache_dir)


def format_result(result: ExperimentResult, fmt: str) -> str:
    """Serialize a result in one of the CLI's output formats."""
    if fmt == "text":
        return render_text(result)
    if fmt == "json":
        return result.to_json()
    if fmt == "csv":
        return result.to_csv()
    raise ConfigurationError(f"unknown output format {fmt!r}; choose from {FORMATS}")


def _write(text: str, output: Optional[str]) -> None:
    """Write newline-terminated text to stdout or to the ``--output`` file."""
    payload = text if text.endswith("\n") else text + "\n"
    if output is not None:
        Path(output).write_text(payload)
    else:
        sys.stdout.write(payload)


def build_campaign_parser() -> argparse.ArgumentParser:
    """Construct the parser of the ``campaign`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="anc-repro campaign",
        description="Run declarative sweep-grid campaigns against a resumable "
        "result store (see docs/CAMPAIGNS.md for the grid-spec format).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="expand a grid spec and run its jobs locally, one after another"
    )
    run_parser.add_argument(
        "spec", help="path to the campaign spec JSON ('-' reads stdin)"
    )
    run_parser.add_argument(
        "--store",
        type=str,
        default=None,
        help="content-addressed result-store directory; completed jobs are "
        "published there and a re-run resumes from it (default: no store)",
    )
    run_parser.add_argument(
        "--shard-index",
        type=int,
        default=0,
        help="this worker's shard (0-based, round-robin over the grid)",
    )
    run_parser.add_argument(
        "--shard-count",
        type=int,
        default=1,
        help="total workers sharding the grid (default 1 = whole grid)",
    )
    run_parser.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="worker processes each job's trials fan out over (default 4; "
        "results are bit-identical at every value)",
    )
    run_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: human-readable summary (default) or JSON",
    )
    run_parser.add_argument(
        "--output", type=str, default=None, help="write the report to this file"
    )
    return parser


def run_campaign_main(argv: List[str]) -> int:
    """Entry point of the ``campaign`` subcommand; returns an exit code."""
    import json

    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec

    args = build_campaign_parser().parse_args(argv)
    try:
        spec = sys.stdin.read() if args.spec == "-" else Path(args.spec).read_text()
        runner = CampaignRunner(store=args.store, concurrency=args.concurrency)
        report = runner.run(
            CampaignSpec.from_json(spec),
            shard_index=args.shard_index,
            shard_count=args.shard_count,
        )
        _write(
            json.dumps(report.as_dict(), indent=2)
            if args.format == "json"
            else report.summary(),
            args.output,
        )
    except (ConfigurationError, OSError) as error:
        print(f"anc-repro: error: {error}", file=sys.stderr)
        return 2
    return 1 if report.failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "campaign":
        return run_campaign_main(arguments[1:])
    args = build_parser().parse_args(arguments)
    try:
        config = _config_from_args(args)
        with _engine_from_args(args) as engine:
            result = api.run(args.experiment, config=config, engine=engine, quick=args.quick)
        _write(format_result(result, args.format), args.output)
    except (ConfigurationError, OSError) as error:
        print(f"anc-repro: error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
