"""Figure 10: the "X" topology.

Same structure as the Alice–Bob experiment, but the two flows are
unidirectional and cross at the centre router, and the destinations only
know the interfering packet because they *overheard* it during the
concurrent uplink slot.  Overhearing occasionally fails (the other sender's
weak cross-interference plus noise), which is why the paper's gains are a
few points lower than Alice–Bob's and the BER CDF has a heavier tail
(packets lost to failed overhearing).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.experiments.alice_bob import relay_exchange_experiment, relay_exchange_trial
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine
from repro.network.topologies import N1, N2, N3, N4, N5, x_topology
from repro.protocols.base import RunResult
from repro.results.model import ExperimentResult


def run_x_topology_trial(
    cfg: ExperimentConfig, run_index: int
) -> Tuple[RunResult, RunResult, RunResult]:
    """Execute one Fig. 10 testbed run under all three schemes.

    Picklable engine trial; all randomness is keyed by ``run_index`` so
    workers can execute trials in any order.  Returns the
    ``(traditional, cope, anc)`` run results.
    """
    return relay_exchange_trial(
        cfg,
        run_index,
        x_topology,
        relay=N5,
        flows=((N1, N4), (N3, N2)),
        stream_base=10,
        overhearing=True,
        topology_name="x",
    )


def run_x_topology_experiment(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Run the Fig. 10 experiment and return its result tables."""
    return relay_exchange_experiment(
        "x", "fig10_x_topology", run_x_topology_trial, config, engine
    )
