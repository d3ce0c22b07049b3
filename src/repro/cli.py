"""Command-line interface for the ANC reproduction experiments.

``python -m repro.cli <experiment>`` (or the ``anc-repro`` console script)
runs any experiment in the unified :mod:`repro.api` namespace — the seven
figure reproductions *and* the registered scenario sweeps — and emits the
result in the requested format::

    python -m repro.cli alice-bob --runs 10 --packets 20
    python -m repro.cli capacity --format json --output capacity.json
    python -m repro.cli sir --seed 3 --format csv
    python -m repro.cli chain_sweep --quick --workers 2
    python -m repro.cli --version

``--format text`` (the default) prints the familiar plain-text report —
byte-identical to the pre-structured-results CLI — while ``json`` and
``csv`` emit the schema-versioned machine-readable serializations of the
underlying :class:`~repro.results.model.ExperimentResult` (see
``docs/API.md``).  ``--output PATH`` writes to a file instead of stdout.

The legacy ``run`` subcommand for scenario sweeps is kept as an alias
(``--quick`` shrinks them to smoke-test size)::

    python -m repro.cli run chain_sweep --quick --workers 2
    python -m repro.cli run mesh_sweep --runs 20 --workers 8 --resume

Monte-Carlo trials execute through the
:class:`~repro.experiments.engine.ExperimentEngine`: ``--workers N`` fans
them out over ``N`` processes (bit-identical to serial, just faster),
``--batch-size`` ships workers whole trial blocks (identical results,
less dispatch overhead for short trials — see ``docs/PERFORMANCE.md``),
and ``--resume`` caches completed trials on disk so an interrupted
paper-scale sweep picks up where it left off::

    python -m repro.cli alice-bob --runs 40 --packets 1000 --workers 8 --resume
    python -m repro.cli run chain_sweep --quick --workers 4 --batch-size 8

``--arrival-rate`` / ``--sim-duration`` / ``--mac-policy`` configure the
event-driven traffic scenarios (and raise for every experiment that
would ignore them)::

    python -m repro.cli offered_load_sweep --quick --mac-policy scheduled
    python -m repro.cli queueing_delay --quick --arrival-rate 0.9

The ``campaign`` subcommand family drives declarative sweep grids
(:mod:`repro.campaign`, documented in ``docs/CAMPAIGNS.md``)::

    python -m repro.cli campaign run grid.json --store results/
    python -m repro.cli campaign serve --store results/ --port 8642
    python -m repro.cli campaign submit grid.json --url http://127.0.0.1:8642 --wait
    python -m repro.cli campaign status --url http://127.0.0.1:8642
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

#: Experiment names accepted on the command line, with the figure they map
#: to.  Derived from the unified registry (single source of truth).
EXPERIMENTS = {e.name: e.description for e in api.experiment_entries(kind="figure")}

#: Scenario names accepted by the ``run`` subcommand (same registry).
SCENARIO_NAMES = {e.name: e.description for e in api.experiment_entries(kind="scenario")}

#: Output formats the CLI can emit.
FORMATS = ("text", "json", "csv")


def _epilog(entries) -> str:
    """The one help epilog both parsers derive from the unified registry."""
    return "experiments: " + "; ".join(
        f"{entry.name}: {entry.description}" for entry in entries
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (figures and scenarios alike)."""
    parser = argparse.ArgumentParser(
        prog="anc-repro",
        description="Regenerate the evaluation figures of 'Embracing Wireless "
        "Interference: Analog Network Coding' (SIGCOMM 2007) or run a "
        "registered scenario sweep (see docs/SCENARIOS.md).  Emits the "
        "plain-text report by default; --format json/csv emits the "
        "schema-versioned structured result (docs/API.md).",
        epilog=_epilog(api.experiment_entries()),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(api.list_experiments()),
        help="which experiment (figure or scenario sweep) to run",
    )
    parser.add_argument("--runs", type=int, default=10, help="independent testbed runs (default 10)")
    parser.add_argument(
        "--packets", type=int, default=10, help="packets per direction per run (default 10)"
    )
    parser.add_argument(
        "--payload-bits", type=int, default=768, help="payload size in bits (default 768)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scenario sweeps only: thin the sweep axis to smoke-test size",
    )
    _add_engine_arguments(parser)
    _add_impairment_arguments(parser)
    _add_sim_arguments(parser)
    _add_output_arguments(parser)
    return parser


def _add_sim_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the time-domain traffic flags shared by both parsers.

    These only apply to the event-driven traffic scenarios
    (``offered_load_sweep`` honours ``--sim-duration``/``--mac-policy``,
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
    """Add the channel-impairment flags shared by both parsers.

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
        help="Rician K-factor in dB (only used with --fading rician)",
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
    """Add the seed/engine flags shared by the figure and scenario parsers."""
    parser.add_argument("--seed", type=int, default=20070823, help="master random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the trial engine (default 1 = serial; "
        "parallel output is bit-identical to serial)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help="trials dispatched to a worker as one block (default 1 = "
        "trial-by-trial; results are identical at every batch size, "
        "larger blocks amortize dispatch overhead for short trials)",
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
    """Add the result-format/output/version flags shared by both parsers."""
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


def build_scenario_parser() -> argparse.ArgumentParser:
    """Construct the parser of the ``run`` (scenario) subcommand."""
    parser = argparse.ArgumentParser(
        prog="anc-repro run",
        description="Run a registered scenario sweep (see docs/SCENARIOS.md).",
        epilog=_epilog(api.experiment_entries(kind="scenario")),
    )
    parser.add_argument(
        "scenario", choices=sorted(SCENARIO_NAMES), help="which scenario sweep to run"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test size: few runs/packets and a thinned sweep axis",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="independent runs per sweep point"
    )
    parser.add_argument(
        "--packets", type=int, default=None, help="packets per flow per run"
    )
    parser.add_argument(
        "--payload-bits", type=int, default=None, help="payload size in bits"
    )
    _add_engine_arguments(parser)
    _add_impairment_arguments(parser)
    _add_sim_arguments(parser)
    _add_output_arguments(parser)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        runs=args.runs,
        packets_per_run=args.packets,
        payload_bits=args.payload_bits,
        seed=args.seed,
        batch_size=args.batch_size,
        impairments=_impairments_from_args(args),
        arrival_rate=args.arrival_rate,
        sim_duration=args.sim_duration,
        mac_policy=args.mac_policy,
    )


def _unified_config_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> ExperimentConfig:
    """Config for the main parser, honouring each experiment kind's semantics.

    Figures use the parser defaults directly.  Scenario names reuse the
    ``run`` subcommand's semantics so ``anc-repro chain_sweep --quick``
    behaves exactly like ``anc-repro run chain_sweep --quick``: under
    ``--quick`` the smoke-test config is the base and only flags that
    differ from the parser defaults override it.
    """
    if api.get_experiment(args.experiment).kind == "figure":
        return _config_from_args(args)

    def explicit(name: str):
        value = getattr(args, name)
        return None if value == parser.get_default(name) else value

    return _scenario_config_from_args(
        argparse.Namespace(
            quick=args.quick,
            seed=args.seed,
            batch_size=args.batch_size,
            runs=explicit("runs"),
            packets=explicit("packets"),
            payload_bits=explicit("payload_bits"),
            cfo=args.cfo,
            fading=args.fading,
            rician_k_db=args.rician_k_db,
            fading_mode=args.fading_mode,
            fading_doppler=args.fading_doppler,
            arrival_rate=args.arrival_rate,
            sim_duration=args.sim_duration,
            mac_policy=args.mac_policy,
        )
    )


def _scenario_config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Scenario config: ``--quick`` sets the smoke-test base, flags override."""
    base = (
        ExperimentConfig.quick(seed=args.seed)
        if args.quick
        else ExperimentConfig(runs=10, packets_per_run=10, seed=args.seed)
    )
    overrides = {
        key: value
        for key, value in (
            ("runs", args.runs),
            ("packets_per_run", args.packets),
            ("payload_bits", args.payload_bits),
            ("batch_size", args.batch_size),
            ("arrival_rate", args.arrival_rate if args.arrival_rate != 0.0 else None),
            ("sim_duration", args.sim_duration if args.sim_duration != 0.0 else None),
            (
                "mac_policy",
                args.mac_policy if args.mac_policy != DEFAULT_MAC_POLICY else None,
            ),
        )
        if value is not None
    }
    impairments = _impairments_from_args(args)
    if impairments != ImpairmentConfig():
        # Any non-default flag is carried — including a bare
        # --fading-mode/--fading-doppler, which `enabled` alone would
        # miss (scenarios like fading_sweep read the mode even when the
        # family is chosen by the sweep axis).
        overrides["impairments"] = impairments
    return base.with_overrides(**overrides) if overrides else base


def _engine_from_args(args: argparse.Namespace) -> ExperimentEngine:
    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = DEFAULT_CACHE_DIR
    return ExperimentEngine(
        workers=args.workers, cache_dir=cache_dir, batch_size=args.batch_size
    )


def format_result(result: ExperimentResult, fmt: str) -> str:
    """Serialize a result in one of the CLI's output formats."""
    if fmt == "text":
        return render_text(result)
    if fmt == "json":
        return result.to_json()
    if fmt == "csv":
        return result.to_csv()
    raise ConfigurationError(f"unknown output format {fmt!r}; choose from {FORMATS}")


def _emit(result: ExperimentResult, args: argparse.Namespace) -> None:
    """Write the formatted result to stdout or to ``--output``."""
    text = format_result(result, args.format)
    payload = text if text.endswith("\n") else text + "\n"
    if args.output is not None:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)


def build_campaign_parser() -> argparse.ArgumentParser:
    """Construct the parser of the ``campaign`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="anc-repro campaign",
        description="Run, serve and query declarative sweep-grid campaigns "
        "(see docs/CAMPAIGNS.md for the grid-spec format and the server's "
        "HTTP/JSON endpoints).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="expand a grid spec and run it locally on the asyncio queue"
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
    _add_campaign_runner_arguments(run_parser)
    run_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: human-readable summary (default) or JSON",
    )
    run_parser.add_argument(
        "--output", type=str, default=None, help="write the report to this file"
    )

    serve_parser = commands.add_parser(
        "serve", help="start the long-running HTTP/JSON campaign server"
    )
    serve_parser.add_argument(
        "--store",
        type=str,
        required=True,
        help="content-addressed result-store directory the server publishes to",
    )
    serve_parser.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642, help="bind port (default 8642; 0 = pick free)"
    )
    serve_parser.add_argument(
        "--max-pending-jobs",
        type=int,
        default=10_000,
        help="admission bound: refuse submissions (HTTP 503) that would "
        "push the pending-job total past this (default 10000)",
    )
    _add_campaign_runner_arguments(serve_parser)

    submit_parser = commands.add_parser(
        "submit", help="submit a grid spec to a running campaign server"
    )
    submit_parser.add_argument(
        "spec", help="path to the campaign spec JSON ('-' reads stdin)"
    )
    _add_campaign_url_argument(submit_parser)
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="poll until the campaign finishes and report the terminal status",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="--wait deadline in seconds (default 300)",
    )

    status_parser = commands.add_parser(
        "status", help="query a campaign server for campaign progress"
    )
    status_parser.add_argument(
        "campaign",
        nargs="?",
        default=None,
        help="campaign id to query (default: every campaign the server knows)",
    )
    _add_campaign_url_argument(status_parser)
    return parser


def _add_campaign_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the job-queue knobs shared by ``campaign run`` and ``serve``."""
    parser.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="jobs in flight at once on the asyncio queue (default 4)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per failing job before it counts as failed "
        "(default 2)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        help="base retry delay in seconds, doubling per attempt (default 0.5)",
    )


def _add_campaign_url_argument(parser: argparse.ArgumentParser) -> None:
    """Add the server-address flag of the client-side campaign commands."""
    parser.add_argument(
        "--url",
        type=str,
        default="http://127.0.0.1:8642",
        help="campaign server base URL (default http://127.0.0.1:8642)",
    )


def _load_campaign_spec(path: str):
    """Read a campaign spec from a JSON file (or stdin for ``-``)."""
    from repro.campaign.spec import CampaignSpec

    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return CampaignSpec.from_json(text)


def run_campaign_main(argv: List[str]) -> int:
    """Entry point of the ``campaign`` subcommand; returns an exit code."""
    import json as _json

    args = build_campaign_parser().parse_args(argv)
    try:
        if args.command == "run":
            from repro.campaign.runner import CampaignRunner

            spec = _load_campaign_spec(args.spec)
            runner = CampaignRunner(
                store=args.store,
                concurrency=args.concurrency,
                retries=args.retries,
                backoff=args.backoff,
            )
            report = runner.run_sync(
                spec, shard_index=args.shard_index, shard_count=args.shard_count
            )
            text = (
                _json.dumps(report.as_dict(), indent=2)
                if args.format == "json"
                else report.summary()
            )
            payload = text if text.endswith("\n") else text + "\n"
            if args.output is not None:
                Path(args.output).write_text(payload)
            else:
                sys.stdout.write(payload)
            return 1 if report.failed else 0
        if args.command == "serve":
            import asyncio

            from repro.campaign.server import CampaignServer

            server = CampaignServer(
                store=args.store,
                host=args.host,
                port=args.port,
                concurrency=args.concurrency,
                retries=args.retries,
                backoff=args.backoff,
                max_pending_jobs=args.max_pending_jobs,
            )

            async def _serve() -> None:
                """Bind, announce the resolved port, and serve until killed."""
                await server.start()
                print(
                    f"anc-repro campaign server on http://{server.host}:{server.port} "
                    f"(store: {args.store})",
                    flush=True,
                )
                await server.serve_forever()

            try:
                asyncio.run(_serve())
            except KeyboardInterrupt:
                pass
            return 0
        if args.command == "submit":
            from repro.campaign import client

            spec = _load_campaign_spec(args.spec)
            status = client.submit_campaign(args.url, spec)
            if args.wait:
                status = client.wait_for_campaign(
                    args.url, status["campaign"], timeout=args.timeout
                )
            sys.stdout.write(_json.dumps(status, indent=2) + "\n")
            return 1 if status["state"] == "failed" else 0
        if args.command == "status":
            from repro.campaign import client

            if args.campaign is not None:
                payload = client.campaign_status(args.url, args.campaign)
            else:
                payload = {"campaigns": client.list_campaigns(args.url)}
            sys.stdout.write(_json.dumps(payload, indent=2) + "\n")
            return 0
        raise ConfigurationError(f"unknown campaign command {args.command!r}")
    except (ConfigurationError, OSError) as error:
        print(f"anc-repro: error: {error}", file=sys.stderr)
        return 2


def run_scenario_main(argv: List[str]) -> int:
    """Entry point of the ``run`` subcommand; returns a process exit code."""
    args = build_scenario_parser().parse_args(argv)
    try:
        config = _scenario_config_from_args(args)
        engine = _engine_from_args(args)
        result = api.run(args.scenario, config=config, engine=engine, quick=args.quick)
        _emit(result, args)
    except (ConfigurationError, OSError) as error:
        print(f"anc-repro: error: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "run":
        return run_scenario_main(arguments[1:])
    if arguments and arguments[0] == "campaign":
        return run_campaign_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    try:
        config = _unified_config_from_args(args, parser)
        engine = _engine_from_args(args)
        result = api.run(args.experiment, config=config, engine=engine, quick=args.quick)
        _emit(result, args)
    except (ConfigurationError, OSError) as error:
        print(f"anc-repro: error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
