"""Figure 12: unidirectional traffic over the 3-hop chain.

COPE does not apply to a single unidirectional flow, so the comparison is
ANC versus traditional routing only.  The paper reports a ~36 % average
gain and a BER around 1 % — noticeably lower than the Alice–Bob BER
because the interfered signal is decoded directly at the node that first
receives it instead of being re-amplified (and its noise with it) by the
relay.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.channel.impairments import IMPAIRMENT_STREAM, apply_impairments
from repro.channel.interference import OverlapModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.metrics.report import report_result
from repro.network.flows import Flow
from repro.network.topologies import ChannelConditions, chain_topology
from repro.protocols.anc import ANCChainProtocol, default_min_offset
from repro.protocols.base import RunResult
from repro.protocols.traditional import TraditionalRouting
from repro.results.model import ExperimentResult

#: Node ids of the 3-hop chain N1 -> N2 -> N3 -> N4.
CHAIN_PATH = (1, 2, 3, 4)


def run_chain_trial(
    cfg: ExperimentConfig, run_index: int
) -> Tuple[RunResult, RunResult]:
    """Execute one Fig. 12 chain run under both schemes.

    Picklable engine trial; all randomness is keyed by ``run_index``.
    Returns the ``(traditional, anc)`` run results.
    """
    topo_rng = cfg.run_rng(run_index, stream=20)
    snr_db = cfg.draw_run_snr(topo_rng)
    mean_overlap = cfg.draw_run_overlap(topo_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    topology = chain_topology(conditions, topo_rng)
    apply_impairments(
        topology, cfg.impairments, cfg.run_rng(run_index, stream=IMPAIRMENT_STREAM)
    )
    flow = Flow(CHAIN_PATH[0], CHAIN_PATH[-1], cfg.packets_per_run)

    traditional = TraditionalRouting(
        topology,
        [flow],
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run_index, stream=21),
        topology_name="chain",
    )
    traditional_run = traditional.run()

    anc_rng = cfg.run_rng(run_index, stream=22)
    overlap_model = OverlapModel(
        mean_overlap=mean_overlap,
        jitter=cfg.overlap_jitter,
        min_offset=default_min_offset(),
        rng=anc_rng,
    )
    anc = ANCChainProtocol(
        topology,
        path=CHAIN_PATH,
        packets=cfg.packets_per_run,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        redundancy_overhead=cfg.chain_redundancy_overhead,
        overlap_model=overlap_model,
        rng=anc_rng,
    )
    return traditional_run, anc.run()


def run_chain_experiment(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Run the Fig. 12 experiment and return its result tables."""
    cfg = config if config is not None else ExperimentConfig()
    trials = default_engine(engine).map("fig12_chain", run_chain_trial, cfg, range(cfg.runs))
    return report_result(
        "chain",
        "fig12_chain",
        cfg,
        anc_runs=[t[1] for t in trials],
        baseline_runs={"traditional": [t[0] for t in trials]},
    )
