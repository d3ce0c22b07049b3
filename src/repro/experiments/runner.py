"""The one experiment registry: every runnable name, figures and scenarios.

:data:`REGISTRY` maps each public name to an :class:`ExperimentEntry` — a
description, a kind, the time-domain traffic knobs the experiment
consumes, and a ``run(config, engine, quick)`` callable that executes it
through the :class:`~repro.experiments.engine.ExperimentEngine` and
returns a typed :class:`~repro.results.model.ExperimentResult`.  The
paper figures register here at import time; scenario sweeps register
through :func:`repro.experiments.scenarios.register_scenario`.  The
:mod:`repro.api` facade, the CLI and campaigns all read this one dict, and
:func:`check_consumes` is the one place a set-but-ignored traffic knob is
rejected.

Plain text is a view over the structured result:
:func:`repro.results.render.render_text`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.capacity_fig7 import run_capacity_experiment
from repro.experiments.chain import run_chain_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine
from repro.experiments.sir_sweep import run_sir_sweep
from repro.experiments.snr_sweep import run_snr_sweep
from repro.experiments.summary import run_summary
from repro.experiments.x_topology import run_x_topology_experiment
from repro.results.adapters import (
    capacity_result,
    experiment_report_result,
    sir_result,
    snr_result,
    summary_result,
)
from repro.results.model import ExperimentResult

__all__ = [
    "ExperimentEntry",
    "REGISTRY",
    "RunFn",
    "check_consumes",
    "register",
]

#: Signature of one registered experiment: (config, engine, quick) -> result.
RunFn = Callable[[ExperimentConfig, Optional[ExperimentEngine], bool], ExperimentResult]


@dataclass(frozen=True)
class ExperimentEntry:
    """One runnable experiment.

    Attributes
    ----------
    name:
        The public name :func:`repro.api.run` and the CLI accept.
    description:
        One-line description shown in ``--help``, naming the paper figure.
    kind:
        ``"figure"`` for the paper-figure runners, ``"scenario"`` for
        registered scenario sweeps.
    consumes:
        The config's time-domain traffic knobs (``arrival_rate`` /
        ``sim_duration`` / ``mac_policy``) this experiment honours; any
        other set knob is rejected by :func:`check_consumes`.
    run:
        Executes the experiment and returns its structured result
        (without engine metadata — :func:`repro.api.run` attaches that).
        ``quick`` thins a scenario's sweep axis; figures ignore it.
    """

    name: str
    description: str
    kind: str
    consumes: Tuple[str, ...]
    run: RunFn


#: Every experiment, keyed by public name.  Figures first (registered
#: below), then scenarios in registration order.
REGISTRY: Dict[str, ExperimentEntry] = {}


def register(entry: ExperimentEntry) -> ExperimentEntry:
    """Add one entry (idempotent per name; a kind change is a collision)."""
    existing = REGISTRY.get(entry.name)
    if existing is not None and existing.kind != entry.kind:
        raise ConfigurationError(
            f"{entry.kind} name {entry.name!r} collides with a {existing.kind}"
        )
    REGISTRY[entry.name] = entry
    return entry


def check_consumes(entry, knobs: Iterable[str]) -> None:
    """Reject traffic knobs the experiment would silently ignore.

    ``entry`` is anything with a ``name`` and a ``consumes`` tuple (an
    :class:`ExperimentEntry` or a
    :class:`~repro.experiments.scenarios.ScenarioSpec`); ``knobs`` are the
    traffic knobs a config or campaign sets.
    """
    unconsumed = sorted(set(knobs) - set(entry.consumes))
    if unconsumed:
        raise ConfigurationError(
            f"experiment {entry.name!r} ignores the traffic knob(s) "
            f"{', '.join(unconsumed)}; its consumes contract is "
            f"({', '.join(sorted(entry.consumes)) or 'empty'})"
        )


def _build_capacity(
    config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool = False
) -> ExperimentResult:
    return capacity_result(
        "capacity", run_capacity_experiment(config=config, engine=engine), config
    )


def _build_alice_bob(
    config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool = False
) -> ExperimentResult:
    return experiment_report_result(
        "alice-bob", run_alice_bob_experiment(config, engine=engine), config
    )


def _build_x(
    config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool = False
) -> ExperimentResult:
    return experiment_report_result(
        "x", run_x_topology_experiment(config, engine=engine), config
    )


def _build_chain(
    config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool = False
) -> ExperimentResult:
    return experiment_report_result(
        "chain", run_chain_experiment(config, engine=engine), config
    )


def _build_sir(
    config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool = False
) -> ExperimentResult:
    points = run_sir_sweep(
        config, packets_per_point=config.packets_per_run, engine=engine
    )
    return sir_result(
        "sir", points, config, params={"packets_per_point": config.packets_per_run}
    )


def _build_snr(
    config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool = False
) -> ExperimentResult:
    return snr_result("snr", run_snr_sweep(config, engine=engine), config)


def _build_summary(
    config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool = False
) -> ExperimentResult:
    return summary_result("summary", run_summary(config, engine=engine), config)


for _entry in (
    ExperimentEntry("capacity", "Fig. 7  — capacity bounds vs SNR", "figure", (), _build_capacity),
    ExperimentEntry("alice-bob", "Fig. 9  — Alice-Bob topology", "figure", (), _build_alice_bob),
    ExperimentEntry("x", "Fig. 10 — the X topology", "figure", (), _build_x),
    ExperimentEntry("chain", "Fig. 12 — chain topology", "figure", (), _build_chain),
    ExperimentEntry("sir", "Fig. 13 — BER vs SIR", "figure", (), _build_sir),
    ExperimentEntry(
        "snr", "extension — gain and BER vs operating SNR", "figure", (), _build_snr
    ),
    ExperimentEntry("summary", "§11.3  — summary of results", "figure", (), _build_summary),
):
    register(_entry)
