"""The one experiment registry: every runnable name, figures and scenarios.

:data:`REGISTRY` maps each public name to an :class:`ExperimentEntry` — a
description, a kind, the time-domain traffic knobs the experiment
consumes, and a ``run(config, engine, quick)`` callable that executes it
through the :class:`~repro.experiments.engine.ExperimentEngine` and
returns a typed :class:`~repro.results.model.ExperimentResult`.  That
callable is the experiment module's own ``run_*`` function, which builds
the result tables directly from its trial outputs.  The paper figures
register here at import time; scenario sweeps register through
:func:`repro.experiments.scenarios.register_scenario` (their ``run`` is
:func:`~repro.experiments.scenarios.run_scenario` bound to the spec).  The
:mod:`repro.api` facade, the CLI and campaigns all read this one dict, and
:func:`check_consumes` is the one place a set-but-ignored traffic knob is
rejected.

Plain text is formatted from the result tables by
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


for _name, _description, _run in (
    ("capacity", "Fig. 7  — capacity bounds vs SNR", run_capacity_experiment),
    ("alice-bob", "Fig. 9  — Alice-Bob topology", run_alice_bob_experiment),
    ("x", "Fig. 10 — the X topology", run_x_topology_experiment),
    ("chain", "Fig. 12 — chain topology", run_chain_experiment),
    ("sir", "Fig. 13 — BER vs SIR", run_sir_sweep),
    ("snr", "extension — gain and BER vs operating SNR", run_snr_sweep),
    ("summary", "§11.3  — summary of results", run_summary),
):
    register(ExperimentEntry(_name, _description, "figure", (), _run))
