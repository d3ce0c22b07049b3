"""Scenario: multi-flow traffic over meshes with geometry-driven links.

The ``mesh_sweep`` scenario hand-sets its link gains (a linear decay
between two constants); this variant derives them from where the radios
actually landed, through the free-space log-distance path-loss law of
:func:`~repro.network.generator.generate_geometric_mesh`.  Nearby node
pairs get strong links and pairs at the edge of the radio range get weak
ones, so the SNR spread the schemes must survive follows from the
placement.

Everything else matches ``mesh_sweep`` byte-for-byte machinery-wise: the
same flow draw, the same ANC-aware pairing planner, the same three
schemes over the same flow set
(:func:`repro.experiments.mesh_sweep.mesh_trial`), with the sweep
axis again the number of offered flows.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.mesh_sweep import mesh_trial
from repro.experiments.runner import TESTBED_READS
from repro.experiments.scenarios import ScenarioSpec, register_scenario
from repro.network.generator import generate_geometric_mesh

#: Base RNG stream for this scenario (disjoint from every other family).
_STREAM_BASE = 900


def run_geometry_mesh_trial(
    cfg: ExperimentConfig, key: Tuple[int, int]
) -> Dict[str, Dict[str, float]]:
    """Execute one (n_flows, run) cell of the path-loss mesh sweep.

    Picklable engine trial; placement, link draws, the flow draw and
    every protocol's randomness derive from ``cfg.run_rng`` substreams
    keyed by the flow count, exactly like the hand-set mesh sweep.
    """
    n_flows, run = int(key[0]), int(key[1])
    return mesh_trial(cfg, run, n_flows, _STREAM_BASE + 64 * n_flows, generate_geometric_mesh)


GEOMETRY_MESH = register_scenario(
    ScenarioSpec(
        name="geometry_mesh",
        description="mesh_sweep variant with placed nodes and log-distance "
        "path-loss links: aggregate gain vs offered flows when SNR/SIR "
        "follow from the geometry",
        sweep_axis="flows",
        sweep_values=(2, 4, 6, 8),
        quick_sweep_values=(2, 4),
        schemes=("anc", "cope", "traditional"),
        trial_fn=run_geometry_mesh_trial,
        reads=TESTBED_READS + ("anc_redundancy_overhead",),
    )
)
