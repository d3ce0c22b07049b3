"""Single public facade over every experiment in the reproduction.

Figures and scenario sweeps live in one registry
(:data:`repro.experiments.runner.REGISTRY`); this module is its public
contract:

* :func:`list_experiments` — every runnable name (figures + scenarios);
* :func:`get_experiment` — the :class:`ExperimentEntry` behind a name;
* :func:`run` — execute any experiment and return a typed
  :class:`~repro.results.model.ExperimentResult` carrying the result
  tables, the config snapshot + digest, and the executing engine's
  cache/timing statistics;
* :func:`run_campaign` — run a declarative sweep grid locally.

Quickstart::

    from repro import api
    from repro.experiments import ExperimentConfig, ExperimentEngine

    result = api.run("alice-bob", config=ExperimentConfig.quick())
    print(result.scalars["anc_delivery_ratio"])
    print(result.to_json())                 # machine-readable export

    with ExperimentEngine(workers=4) as engine:
        sweep = api.run("chain_sweep", config=ExperimentConfig.quick(),
                        engine=engine, quick=True)
    gains = sweep.get_series("cells")

Text output is formatted from the result tables: ``render_text(result)``
(from :mod:`repro.results`).  See ``docs/API.md`` for the full reference.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import EngineStats, ExperimentEngine, default_engine
from repro.experiments.runner import REGISTRY, ExperimentEntry, check_reads
from repro.results.model import ExperimentResult

__all__ = [
    "ExperimentEntry",
    "get_experiment",
    "list_experiments",
    "run",
    "run_campaign",
]


def list_experiments(kind: Optional[str] = None) -> List[str]:
    """Names of every runnable experiment (figures first), optionally by kind."""
    if kind not in (None, "figure", "scenario"):
        raise ConfigurationError(
            f"unknown experiment kind {kind!r}; choose 'figure' or 'scenario'"
        )
    return [name for name, entry in REGISTRY.items() if kind in (None, entry.kind)]


def get_experiment(name: str) -> ExperimentEntry:
    """Look up one experiment by public name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {', '.join(REGISTRY)}"
        ) from None


def run(
    name: str,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Execute any registered experiment and return its structured result.

    Parameters
    ----------
    name:
        A figure name (``"alice-bob"``, ``"capacity"``, ...) or a
        scenario name (``"chain_sweep"``, ``"mesh_sweep"``, ...) — see
        :func:`list_experiments`.
    config:
        The experiment configuration; defaults to ``ExperimentConfig()``.
        A config that sets a model field the experiment does not read
        (:attr:`ExperimentEntry.reads`) is rejected before any trial runs
        (:func:`~repro.experiments.runner.check_reads`).
    engine:
        How Monte-Carlo trials execute (serial, parallel, resumed from a
        disk cache); defaults to a fresh serial engine.  The engine's
        cache/timing statistics for this run are attached to the result
        under ``meta["engine"]``.
    quick:
        Scenarios only: thin the sweep axis to its smoke-test values
        (:meth:`ScenarioSpec.values_for`).  Figures ignore it.

    Returns
    -------
    ExperimentResult
        The typed result; round-trips losslessly through
        ``ExperimentResult.from_dict(result.to_dict())`` and renders to
        its text report via :func:`repro.results.render.render_text`.
    """
    entry = get_experiment(name)
    cfg = config if config is not None else ExperimentConfig()
    check_reads(entry, cfg)
    eng = default_engine(engine)
    mark = len(eng.stats_log)
    started = time.perf_counter()
    result = entry.run(cfg, eng, quick)
    elapsed = time.perf_counter() - started
    return _attach_engine_meta(result, eng, eng.stats_log[mark:], elapsed)


def _attach_engine_meta(
    result: ExperimentResult,
    engine: ExperimentEngine,
    stats: Sequence[EngineStats],
    elapsed_seconds: float,
) -> ExperimentResult:
    """Stamp the executing engine's cache/timing statistics onto a result.

    ``stats`` is the slice of :attr:`ExperimentEngine.stats_log` produced
    while the experiment ran (one entry per ``map`` invocation —
    composite experiments like the summary produce several).
    """
    return result.with_meta(engine={
        "workers": int(engine.workers),
        "invocations": len(stats),
        "total_trials": sum(s.total_trials for s in stats),
        "executed_trials": sum(s.executed_trials for s in stats),
        "cached_trials": sum(s.cached_trials for s in stats),
        "elapsed_seconds": float(elapsed_seconds),
        "digests": [s.digest for s in stats],
        "cache_dir": str(engine.cache_dir) if engine.cache_dir is not None else None,
    })


def run_campaign(
    spec,
    store=None,
    concurrency: int = 4,
    progress=None,
):
    """Run a declarative sweep grid locally and return its report.

    The facade entry into :mod:`repro.campaign`: expands ``spec``
    (a :class:`~repro.campaign.spec.CampaignSpec`, or a mapping/JSON
    text in its ``anc-repro.campaign/1`` spec-file format) into its job grid
    and executes the jobs one after another, each once, with their trials
    spread over ``concurrency`` engine worker processes.  With ``store``
    set (a directory path or a :class:`~repro.campaign.store.ResultStore`),
    completed jobs are published to the content-addressed result store
    and a re-run resumes from it — already-stored jobs are not recomputed.

    Returns a :class:`~repro.campaign.runner.CampaignReport`; see
    ``docs/CAMPAIGNS.md`` for the grid-spec format and examples.
    """
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec

    if isinstance(spec, str):
        spec = CampaignSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = CampaignSpec.from_dict(spec)
    return CampaignRunner(store=store, concurrency=concurrency, progress=progress).run(spec)

