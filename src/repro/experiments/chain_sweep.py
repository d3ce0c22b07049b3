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

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import TESTBED_READS
from repro.experiments.scenarios import ScenarioSpec, register_scenario
from repro.experiments.testbed import Streams, cells, chain_trial

#: Base RNG stream for this scenario; each hop count gets its own block
#: of eight streams so sweep points never share randomness.
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
    return cells(chain_trial(cfg, run, hops, Streams.block(_STREAM_BASE + 8 * hops)))


CHAIN_SWEEP = register_scenario(
    ScenarioSpec(
        name="chain_sweep",
        description="throughput gain vs chain length (K = 2..8 hops, "
        "ANC vs pipelined digital coding vs plain routing)",
        sweep_axis="hops",
        sweep_values=(2, 3, 4, 5, 6, 7, 8),
        quick_sweep_values=(2, 3, 5, 8),
        schemes=("anc", "cope", "traditional"),
        trial_fn=run_chain_sweep_trial,
        reads=TESTBED_READS + ("chain_redundancy_overhead",),
    )
)
