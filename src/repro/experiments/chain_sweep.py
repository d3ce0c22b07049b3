"""Scenario: throughput gain versus chain length (K = 2..8 hops).

The paper evaluates the chain at exactly 3 hops (Fig. 12); this scenario
generalizes the question — *how does ANC's pipelining gain depend on the
chain length?* — by sweeping K-hop chains under three schemes:

* ``anc`` — the planner's stride-2 schedule: transmitters two positions
  apart, every interior receiver deliberately decoding the collision of
  the new packet with the one it forwarded a phase earlier;
* ``cope`` — COPE-style digital coding.  A one-way flow offers nothing to
  XOR, so the scheme degenerates to the best schedule digital radios can
  use: the planner's stride-3 collision-free spatial-reuse pipeline;
* ``traditional`` — the paper's §11.1a baseline, one hop per slot with no
  spatial reuse.

Expected shape (and what the summary table shows): at K = 2 there is no
ANC opportunity at all, so ANC pays its redundancy overhead for nothing;
the gain peaks around the paper's K = 3 (~1.2-1.4x over the pipelined
digital schedule, consistent with §11.6's 36 %); and for long chains the
gain over ``cope`` erodes again, because every extra concurrent
transmitter chains another §7.2 partial-overlap offset onto the slot
while the collision-free pipeline keeps its slots at exactly one frame.
The gain over ``traditional`` instead keeps growing with K — that
baseline scales as K slots per packet.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.channel.impairments import apply_impairments
from repro.channel.interference import OverlapModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import TESTBED_READS
from repro.experiments.scenarios import (
    ScenarioSpec,
    register_scenario,
    summarize_run,
)
from repro.network.flows import Flow
from repro.network.generator import generate_chain
from repro.network.topologies import ChannelConditions
from repro.protocols.anc import default_min_offset
from repro.protocols.scheduled import ChainPipelineProtocol
from repro.protocols.traditional import TraditionalRouting

#: Base RNG stream for this scenario; each (hops, protocol) pair derives
#: its own substream so sweep points never share randomness.
_STREAM_BASE = 400


def run_chain_sweep_trial(
    cfg: ExperimentConfig, key: Tuple[int, int]
) -> Dict[str, Dict[str, float]]:
    """Execute one (hops, run) cell of the chain-length sweep.

    Picklable engine trial; all randomness derives from
    ``cfg.run_rng(run, ...)`` substreams keyed by the hop count, so the
    cell is independent of execution order and worker placement.
    """
    hops, run = int(key[0]), int(key[1])
    streams = _STREAM_BASE + 8 * hops
    topo_rng = cfg.run_rng(run, stream=streams)
    snr_db = cfg.draw_run_snr(topo_rng)
    mean_overlap = cfg.draw_run_overlap(topo_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    topology = generate_chain(conditions, topo_rng, hops=hops)
    apply_impairments(
        topology, cfg.impairments, cfg.run_rng(run, stream=streams + 6)
    )
    path = tuple(range(1, hops + 2))
    flow = Flow(path[0], path[-1], cfg.packets_per_run)

    traditional = TraditionalRouting(
        topology,
        [flow],
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run, stream=streams + 1),
        topology_name=f"chain{hops}",
    ).run()

    cope = ChainPipelineProtocol(
        topology,
        path=path,
        coding="plain",
        packets=cfg.packets_per_run,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        redundancy_overhead=0.0,
        rng=cfg.run_rng(run, stream=streams + 2),
        topology_name=f"chain{hops}",
        scheme="cope",
    ).run()

    anc_rng = cfg.run_rng(run, stream=streams + 3)
    anc = ChainPipelineProtocol(
        topology,
        path=path,
        coding="anc",
        packets=cfg.packets_per_run,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        redundancy_overhead=cfg.chain_redundancy_overhead,
        overlap_model=OverlapModel(
            mean_overlap=mean_overlap,
            jitter=cfg.overlap_jitter,
            min_offset=default_min_offset(),
            rng=anc_rng,
        ),
        rng=anc_rng,
        topology_name=f"chain{hops}",
        scheme="anc",
    ).run()

    return {
        "anc": summarize_run(anc),
        "cope": summarize_run(cope),
        "traditional": summarize_run(traditional),
    }


CHAIN_SWEEP = register_scenario(
    ScenarioSpec(
        name="chain_sweep",
        description="throughput gain vs chain length (K = 2..8 hops, "
        "ANC vs pipelined digital coding vs plain routing)",
        topology="chain",
        sweep_axis="hops",
        sweep_values=(2, 3, 4, 5, 6, 7, 8),
        quick_sweep_values=(2, 3, 5, 8),
        schemes=("anc", "cope", "traditional"),
        trial_fn=run_chain_sweep_trial,
        reads=TESTBED_READS + ("chain_redundancy_overhead",),
    )
)
