"""The scenario registry: N-node workloads declared as data.

A :class:`ScenarioSpec` describes a whole experiment family in one
declaration — what the sweep axis is, which values it takes, which
schemes compete — plus a picklable trial function that executes one
``(sweep value, run index)`` cell.  The
generic driver :func:`run_scenario` then provides everything the figure
runners get from PR 1's runner registry for free:

* **engine parallelism / caching** — every cell of the
  ``sweep value x run`` grid is one
  :class:`~repro.experiments.engine.ExperimentEngine` trial, so
  ``--workers`` fans the whole grid out and ``--resume`` caches it;
* **deterministic aggregation** — cells are keyed by ``(value, run)``
  and re-ordered after execution, so parallel runs build identical
  result tables (and byte-identical text through
  :func:`repro.results.render.render_text`);
* **one registry** — :func:`register_scenario` adds the sweep to
  :data:`~repro.experiments.runner.REGISTRY` beside the figures, so
  ``python -m repro.cli <scenario>``, :func:`repro.api.run` and campaigns
  resolve it like any figure name.

See ``docs/SCENARIOS.md`` for the authoring guide (anatomy of a spec, the
topology generator API, the scheduler contract, and a worked example).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.experiments.runner import ExperimentEntry, register
from repro.results.model import ExperimentResult, Series, make_result

#: Signature of a scenario trial: ``(config, (sweep_value, run_index)) ->
#: {scheme: {metric: float}}``.  Must be a picklable top-level callable so
#: the engine can dispatch it to process workers.
ScenarioTrialFn = Callable[[ExperimentConfig, Tuple[Any, int]], Dict[str, Dict[str, float]]]


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario: a sweep declared as data.

    Attributes
    ----------
    name:
        Registry / CLI name (e.g. ``"chain_sweep"``).
    description:
        One-line description shown in ``--help``.
    sweep_axis:
        Human-readable name of the swept parameter (table's first column).
    sweep_values:
        Values the axis takes at the default size.
    quick_sweep_values:
        Values used under ``--quick`` (defaults to ``sweep_values``).
    schemes:
        Scheme names every trial reports, in table-column order; the
        first scheme is the numerator of the rendered gain columns.
    trial_fn:
        Picklable top-level callable executing one ``(value, run)`` cell.
    reads:
        The model fields of :class:`ExperimentConfig` the trials depend
        on; becomes the registry entry's
        :attr:`~repro.experiments.runner.ExperimentEntry.reads`, so
        :func:`repro.api.run` and campaigns reject any other set field.
    """

    name: str
    description: str
    sweep_axis: str
    sweep_values: Tuple[Any, ...]
    schemes: Tuple[str, ...]
    trial_fn: ScenarioTrialFn
    quick_sweep_values: Optional[Tuple[Any, ...]] = None
    reads: Tuple[str, ...] = ()

    def values_for(self, quick: bool) -> Tuple[Any, ...]:
        """The sweep values to run at the requested size."""
        if quick and self.quick_sweep_values is not None:
            return self.quick_sweep_values
        return self.sweep_values


def run_scenario(
    spec: ScenarioSpec,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Execute every cell of a scenario's sweep grid through the engine.

    Each ``(sweep value, run index)`` pair is one engine trial, so worker
    fan-out and disk caching apply to the whole grid at once; results are
    keyed and re-ordered so the result is identical however they ran.
    The ``cells`` table holds one row per (sweep value, scheme, metric)
    with the metric's mean over the runs; ``meta`` carries the axis name,
    scheme order, value order and runs per point, and an empty
    ``params`` mapping that the ``anc-repro.result/1`` schema carries.
    """
    cfg = config if config is not None else ExperimentConfig()
    values = spec.values_for(quick)
    keys = [(value, run) for value in values for run in range(cfg.runs)]
    cells = default_engine(engine).map(f"scenario_{spec.name}", spec.trial_fn, cfg, keys)

    cell_rows = []
    for value in values:
        value_cells = [
            cell for (cell_value, _), cell in zip(keys, cells) if cell_value == value
        ]
        for scheme in spec.schemes:
            for metric in sorted(value_cells[0][scheme]):
                mean = float(np.mean([cell[scheme][metric] for cell in value_cells]))
                cell_rows.append((value, scheme, metric, mean))
    return make_result(
        spec.name,
        "scenario",
        cfg,
        "scenario",
        [Series("cells", ("value", "scheme", "metric", "mean"), tuple(cell_rows))],
        sweep_axis=spec.sweep_axis,
        schemes=list(spec.schemes),
        sweep_values=list(values),
        runs=int(cfg.runs),
        params={},
    )


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add one scenario to the experiment registry (idempotent per name)."""
    register(
        ExperimentEntry(
            name=spec.name,
            description=spec.description,
            kind="scenario",
            reads=spec.reads,
            run=partial(run_scenario, spec),
        )
    )
    return spec
