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

from repro.channel.impairments import apply_impairments
from repro.channel.interference import OverlapModel
from repro.exceptions import ConfigurationError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import TESTBED_READS
from repro.experiments.scenarios import (
    ScenarioSpec,
    combine_runs,
    register_scenario,
)
from repro.mac.planner import plan_mesh_exchanges
from repro.network.flows import Flow
from repro.network.generator import generate_random_mesh
from repro.network.topologies import ChannelConditions
from repro.network.topology import Topology
from repro.protocols.anc import ANCRelayProtocol, default_min_offset
from repro.protocols.base import RunResult
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.traditional import TraditionalRouting

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
        raise ConfigurationError(
            "mesh offers no multi-hop node pairs to route; lower the radius"
        )
    return [Flow(source, destination, packets) for source, destination in chosen]


def run_mesh_sweep_trial(
    cfg: ExperimentConfig,
    key: Tuple[int, int],
    nodes: int = 12,
    radius: float = 0.45,
) -> Dict[str, Dict[str, float]]:
    """Execute one (n_flows, run) cell of the mesh multi-flow sweep.

    Picklable engine trial; the mesh layout, the flow draw and every
    protocol's randomness all derive from ``cfg.run_rng(run, ...)``
    substreams keyed by the flow count.
    """
    n_flows, run = int(key[0]), int(key[1])
    streams = _STREAM_BASE + 64 * n_flows
    topo_rng = cfg.run_rng(run, stream=streams)
    snr_db = cfg.draw_run_snr(topo_rng)
    mean_overlap = cfg.draw_run_overlap(topo_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    topology = generate_random_mesh(conditions, topo_rng, nodes=nodes, radius=radius)
    apply_impairments(
        topology, cfg.impairments, cfg.run_rng(run, stream=streams + 6)
    )
    flows = draw_mesh_flows(topology, n_flows, cfg.packets_per_run, topo_rng)
    return run_mesh_schemes(cfg, run, streams, topology, flows, mean_overlap)


def run_mesh_schemes(
    cfg: ExperimentConfig,
    run: int,
    streams: int,
    topology: Topology,
    flows: List[Flow],
    mean_overlap: float,
) -> Dict[str, Dict[str, float]]:
    """Carry one flow set under all three schemes over a built mesh.

    The scheme-execution half of a mesh trial, shared by ``mesh_sweep``
    and the path-loss ``geometry_mesh`` scenario: the ANC-aware planner
    pairs the flows, matched pairs run the two-slot ANC exchange (or
    digital XOR coding for the ``cope`` cell), leftovers are routed, and
    every scheme's parts are combined into one metrics cell.  RNG
    substreams are keyed off ``streams`` exactly as the original
    mesh-sweep trial laid them out, so the refactor is byte-identical.
    """
    schedule = plan_mesh_exchanges(topology, flows)

    traditional = TraditionalRouting(
        topology,
        flows,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run, stream=streams + 1),
        topology_name="mesh",
    ).run()

    anc_parts: List[RunResult] = []
    cope_parts: List[RunResult] = []
    for index, exchange in enumerate(schedule.exchanges):
        anc_rng = cfg.run_rng(run, stream=streams + 8 + 2 * index)
        anc_parts.append(
            ANCRelayProtocol(
                topology,
                exchange.relay,
                exchange.flow_a,
                exchange.flow_b,
                payload_bits=cfg.payload_bits,
                ber_acceptance=cfg.ber_acceptance,
                redundancy_overhead=cfg.anc_redundancy_overhead,
                overhearing=exchange.overhearing,
                overlap_model=OverlapModel(
                    mean_overlap=mean_overlap,
                    jitter=cfg.overlap_jitter,
                    min_offset=default_min_offset(),
                    rng=anc_rng,
                ),
                rng=anc_rng,
                topology_name="mesh",
            ).run()
        )
        cope_parts.append(
            CopeRelayProtocol(
                topology,
                exchange.relay,
                exchange.flow_a,
                exchange.flow_b,
                payload_bits=cfg.payload_bits,
                ber_acceptance=cfg.ber_acceptance,
                overhearing=exchange.overhearing,
                rng=cfg.run_rng(run, stream=streams + 9 + 2 * index),
                topology_name="mesh",
            ).run()
        )
    if schedule.routed:
        for offset, parts in ((4, anc_parts), (5, cope_parts)):
            parts.append(
                TraditionalRouting(
                    topology,
                    list(schedule.routed),
                    payload_bits=cfg.payload_bits,
                    ber_acceptance=cfg.ber_acceptance,
                    rng=cfg.run_rng(run, stream=streams + offset),
                    topology_name="mesh",
                ).run()
            )

    anc_cell = combine_runs(anc_parts) if anc_parts else combine_runs([traditional])
    cope_cell = combine_runs(cope_parts) if cope_parts else combine_runs([traditional])
    for cell in (anc_cell, cope_cell):
        cell["paired"] = float(schedule.paired_flows)
    traditional_cell = combine_runs([traditional])
    traditional_cell["paired"] = 0.0
    return {
        "anc": anc_cell,
        "cope": cope_cell,
        "traditional": traditional_cell,
    }


MESH_SWEEP = register_scenario(
    ScenarioSpec(
        name="mesh_sweep",
        description="aggregate gain vs offered flows on seeded random "
        "meshes (ANC-paired vs COPE-paired vs all-routed)",
        topology="random_mesh",
        sweep_axis="flows",
        sweep_values=(2, 4, 6, 8),
        quick_sweep_values=(2, 4, 6),
        schemes=("anc", "cope", "traditional"),
        trial_fn=run_mesh_sweep_trial,
        params={"nodes": 12, "radius": 0.45},
        reads=TESTBED_READS + ("anc_redundancy_overhead",),
    )
)
