"""The one experiment registry: every runnable name, figures and scenarios.

:data:`REGISTRY` maps each public name to an :class:`ExperimentEntry` — a
description, a kind, the config fields the experiment reads, and a
``run(config, engine, quick)`` callable that executes it
through the :class:`~repro.experiments.engine.ExperimentEngine` and
returns a typed :class:`~repro.results.model.ExperimentResult`.  That
callable is the experiment module's own ``run_*`` function, which builds
the result tables directly from its trial outputs.  The paper figures
register here at import time; scenario sweeps register through
:func:`repro.experiments.scenarios.register_scenario` (their ``run`` is
:func:`~repro.experiments.scenarios.run_scenario` bound to the spec).  The
:mod:`repro.api` facade, the CLI and campaigns all read this one dict, and
:func:`check_reads` is the one place a set-but-ignored config field is
rejected.

Plain text is formatted from the result tables by
:func:`repro.results.render.render_text`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.capacity_fig7 import run_capacity_experiment
from repro.experiments.chain import run_chain_experiment
from repro.experiments.config import MODEL_FIELDS, SIZE_FIELDS, ExperimentConfig
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
    "TESTBED_READS",
    "check_reads",
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
    reads:
        The model fields of :class:`ExperimentConfig` the computation
        depends on; :func:`check_reads` rejects a config that sets any
        other model field away from its default.
    run:
        Executes the experiment and returns its structured result
        (without engine metadata — :func:`repro.api.run` attaches that).
        ``quick`` thins a scenario's sweep axis; figures ignore it.
    """

    name: str
    description: str
    kind: str
    reads: Tuple[str, ...]
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


#: The reference each field's value is compared against in :func:`check_reads`.
_DEFAULTS = ExperimentConfig()


def check_reads(entry: ExperimentEntry, config: ExperimentConfig) -> None:
    """Reject a config that sets a field the experiment never reads.

    A model field counts as set when it differs from
    ``ExperimentConfig()``.  The :data:`~repro.experiments.config.SIZE_FIELDS`
    are exempt, because every preset sets them for every experiment.
    """
    ignored = [
        name
        for name in MODEL_FIELDS
        if name not in entry.reads and getattr(config, name) != getattr(_DEFAULTS, name)
    ]
    if ignored:
        reads = ", ".join(entry.reads) or "none of the model fields"
        raise ConfigurationError(
            f"experiment {entry.name!r} does not read the config field(s) "
            f"{', '.join(ignored)}; it reads {reads} "
            f"(the size fields {', '.join(SIZE_FIELDS)} are always accepted)"
        )


#: What one sample-level testbed exchange reads: the per-run SNR and
#: overlap draws, the loss threshold and the channel impairments.
TESTBED_READS = ("snr_db_range", "overlap_range", "overlap_jitter", "ber_acceptance", "impairments")

for _name, _description, _reads, _run in (
    ("capacity", "Fig. 7  — capacity bounds vs SNR", (), run_capacity_experiment),
    ("alice-bob", "Fig. 9  — Alice-Bob topology",
     TESTBED_READS + ("anc_redundancy_overhead",), run_alice_bob_experiment),
    ("x", "Fig. 10 — the X topology",
     TESTBED_READS + ("anc_redundancy_overhead",), run_x_topology_experiment),
    ("chain", "Fig. 12 — chain topology",
     TESTBED_READS + ("chain_redundancy_overhead",), run_chain_experiment),
    ("sir", "Fig. 13 — BER vs SIR",
     ("overlap_range", "overlap_jitter", "impairments"), run_sir_sweep),
    ("snr", "extension — gain and BER vs operating SNR",
     ("overlap_range", "overlap_jitter", "ber_acceptance", "impairments",
      "anc_redundancy_overhead"), run_snr_sweep),
    ("summary", "§11.3  — summary of results",
     TESTBED_READS + ("anc_redundancy_overhead", "chain_redundancy_overhead"), run_summary),
):
    register(ExperimentEntry(_name, _description, "figure", _reads, _run))
