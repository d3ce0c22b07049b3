"""Scenario: multi-flow traffic over seeded random meshes.

Each trial drops a random connected mesh, draws a set of unidirectional
flows, and lets the ANC-aware scheduler
(:func:`repro.mac.planner.plan_mesh_exchanges`) pair up the flows that
cross at a shared relay with side information available.  Three schemes
then carry the *same* flow set:

* ``anc`` — matched pairs run the two-slot analog-network-coding
  exchange (concurrent uplink + amplify-and-forward broadcast); leftover
  flows fall back to plain routing;
* ``cope`` — the same matched pairs run digital XOR coding at the relay
  (three clean slots per pair); the same leftovers are routed;
* ``traditional`` — every flow is routed hop by hop.

The sweep axis is the number of offered flows: more flows mean more
crossing opportunities, so the aggregate ANC gain over plain routing
grows with load — the scheduler's pairing rate (reported per trial as
``paired``) is the mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import TESTBED_READS
from repro.experiments.scenarios import ScenarioSpec, register_scenario
from repro.experiments.testbed import BuildFn, Streams, draw_testbed, mesh_cells
from repro.network.flows import Flow
from repro.network.generator import generate_random_mesh
from repro.network.topology import Topology

#: Base RNG stream for this scenario (disjoint from the chain sweep's).
_STREAM_BASE = 700


def draw_mesh_flows(
    topology: Topology,
    n_flows: int,
    packets: int,
    rng: np.random.Generator,
) -> List[Flow]:
    """Draw a deterministic random flow set over a mesh.

    Candidates are ordered node pairs whose shortest routable path is
    exactly two hops — the shape that *can* cross at a relay — so the
    scheduler's pairing rate, not the draw, decides how much ANC happens.
    If the mesh offers fewer 2-hop pairs than requested flows, longer
    routable pairs fill the remainder (a mesh can legitimately offer
    fewer multi-hop pairs than the sweep axis asks for; the trial's
    ``offered`` metric reports the packets actually carried).  A mesh so
    dense that *no* multi-hop pair exists raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    two_hop: List[Tuple[int, int]] = []
    longer: List[Tuple[int, int]] = []
    for source in topology.nodes:
        for destination in topology.nodes:
            if source == destination:
                continue
            try:
                path = topology.shortest_path(source, destination)
            except TopologyError:
                continue
            if len(path) == 3:
                two_hop.append((source, destination))
            elif len(path) > 3:
                longer.append((source, destination))
    chosen: List[Tuple[int, int]] = []
    for pool in (two_hop, longer):
        if len(chosen) >= n_flows or not pool:
            continue
        order = rng.permutation(len(pool))
        for index in order:
            if len(chosen) >= n_flows:
                break
            pair = pool[int(index)]
            if pair not in chosen:
                chosen.append(pair)
    if not chosen:
        raise ConfigurationError("mesh offers no multi-hop node pairs to route")
    return [Flow(source, destination, packets) for source, destination in chosen]


def mesh_trial(
    cfg: ExperimentConfig, run: int, n_flows: int, base: int, build: BuildFn
) -> Dict[str, Dict[str, float]]:
    """One mesh cell: draw the mesh, draw ``n_flows`` flows over it, run the three schemes.

    Shared by ``mesh_sweep`` and the path-loss ``geometry_mesh``
    scenario, which differ only in ``build`` and their stream ``base``.
    The flows are drawn from the topology stream after the build.
    """
    bed = draw_testbed(cfg, run, Streams.mesh(base), build, "mesh")
    flows = draw_mesh_flows(bed.topology, n_flows, cfg.packets_per_run, bed.topology_rng)
    return mesh_cells(bed, flows)


def run_mesh_sweep_trial(
    cfg: ExperimentConfig, key: Tuple[int, int]
) -> Dict[str, Dict[str, float]]:
    """Execute one (n_flows, run) cell of the mesh multi-flow sweep.

    Picklable engine trial; the mesh layout, the flow draw and every
    protocol's randomness all derive from ``cfg.run_rng(run, ...)``
    substreams keyed by the flow count.
    """
    n_flows, run = int(key[0]), int(key[1])
    return mesh_trial(cfg, run, n_flows, _STREAM_BASE + 64 * n_flows, generate_random_mesh)


MESH_SWEEP = register_scenario(
    ScenarioSpec(
        name="mesh_sweep",
        description="aggregate gain vs offered flows on seeded random "
        "meshes (ANC-paired vs COPE-paired vs all-routed)",
        sweep_axis="flows",
        sweep_values=(2, 4, 6, 8),
        quick_sweep_values=(2, 4, 6),
        schemes=("anc", "cope", "traditional"),
        trial_fn=run_mesh_sweep_trial,
        reads=TESTBED_READS + ("anc_redundancy_overhead",),
    )
)
