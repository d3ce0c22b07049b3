"""Scenario: multi-flow traffic over meshes with geometry-driven links.

The ``mesh_sweep`` scenario hand-sets its link gains (a linear decay
between two constants); this variant derives them from where the radios
actually landed, through the log-distance
:class:`~repro.channel.pathloss.PathLossModel`.  Nearby node pairs get
strong links, pairs at the edge of the radio range get weak ones, and the
path-loss ``exponent`` parameter turns one placement into a whole family
of propagation environments — free space (2.0) spreads gains gently,
indoor-office values (≈3) punish distance hard and widen the SNR spread
the schemes must survive.

Everything else matches ``mesh_sweep`` byte-for-byte machinery-wise: the
same flow draw, the same ANC-aware pairing planner, the same three
schemes over the same flow set
(:func:`repro.experiments.mesh_sweep.mesh_trial`), with the sweep
axis again the number of offered flows.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

from repro.channel.pathloss import PathLossModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.mesh_sweep import mesh_trial
from repro.experiments.runner import TESTBED_READS
from repro.experiments.scenarios import ScenarioSpec, register_scenario
from repro.network.generator import generate_geometric_mesh

#: Base RNG stream for this scenario (disjoint from every other family).
_STREAM_BASE = 900


def run_geometry_mesh_trial(
    cfg: ExperimentConfig,
    key: Tuple[int, int],
    nodes: int = 12,
    radius: float = 0.45,
    exponent: float = 2.0,
    reference_distance: float = 0.2,
) -> Dict[str, Dict[str, float]]:
    """Execute one (n_flows, run) cell of the path-loss mesh sweep.

    Picklable engine trial; placement, link draws, the flow draw and
    every protocol's randomness derive from ``cfg.run_rng`` substreams
    keyed by the flow count, exactly like the hand-set mesh sweep.  The
    path-loss law (``exponent``, ``reference_distance``) arrives through
    the scenario params so registered variants stay cache-distinct.
    """
    n_flows, run = int(key[0]), int(key[1])
    model = PathLossModel(
        exponent=exponent,
        reference_distance=reference_distance,
        reference_attenuation=0.95,
        min_attenuation=0.05,
    )
    build = partial(generate_geometric_mesh, nodes=nodes, radius=radius, path_loss=model)
    return mesh_trial(cfg, run, n_flows, _STREAM_BASE + 64 * n_flows, build)


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
        params={
            "nodes": 12,
            "radius": 0.45,
            "exponent": 2.0,
            "reference_distance": 0.2,
        },
        reads=TESTBED_READS + ("anc_redundancy_overhead",),
    )
)
