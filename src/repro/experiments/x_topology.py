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

from repro.channel.impairments import IMPAIRMENT_STREAM, apply_impairments
from repro.channel.interference import OverlapModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.metrics.report import report_result
from repro.network.flows import Flow
from repro.network.topologies import N1, N2, N3, N4, N5, ChannelConditions, x_topology
from repro.protocols.anc import ANCRelayProtocol, default_min_offset
from repro.protocols.base import RunResult
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.traditional import TraditionalRouting
from repro.results.model import ExperimentResult


def run_x_topology_trial(
    cfg: ExperimentConfig, run_index: int
) -> Tuple[RunResult, RunResult, RunResult]:
    """Execute one Fig. 10 testbed run under all three schemes.

    Picklable engine trial; all randomness is keyed by ``run_index`` so
    workers can execute trials in any order.  Returns the
    ``(traditional, cope, anc)`` run results.
    """
    topo_rng = cfg.run_rng(run_index, stream=10)
    snr_db = cfg.draw_run_snr(topo_rng)
    mean_overlap = cfg.draw_run_overlap(topo_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    topology = x_topology(conditions, topo_rng)
    apply_impairments(
        topology, cfg.impairments, cfg.run_rng(run_index, stream=IMPAIRMENT_STREAM)
    )
    flow_a = Flow(N1, N4, cfg.packets_per_run)
    flow_b = Flow(N3, N2, cfg.packets_per_run)

    traditional = TraditionalRouting(
        topology,
        [flow_a, flow_b],
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run_index, stream=11),
        topology_name="x",
    )
    traditional_run = traditional.run()

    cope = CopeRelayProtocol(
        topology,
        N5,
        flow_a,
        flow_b,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        overhearing=True,
        rng=cfg.run_rng(run_index, stream=12),
        topology_name="x",
    )
    cope_run = cope.run()

    anc_rng = cfg.run_rng(run_index, stream=13)
    overlap_model = OverlapModel(
        mean_overlap=mean_overlap,
        jitter=cfg.overlap_jitter,
        min_offset=default_min_offset(),
        rng=anc_rng,
    )
    anc = ANCRelayProtocol(
        topology,
        N5,
        flow_a,
        flow_b,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        redundancy_overhead=cfg.anc_redundancy_overhead,
        overhearing=True,
        overlap_model=overlap_model,
        rng=anc_rng,
        topology_name="x",
    )
    return traditional_run, cope_run, anc.run()


def run_x_topology_experiment(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Run the Fig. 10 experiment and return its result tables."""
    cfg = config if config is not None else ExperimentConfig()
    trials = default_engine(engine).map(
        "fig10_x_topology", run_x_topology_trial, cfg, range(cfg.runs),
        batch_size=cfg.engine_batch_size,
    )
    return report_result(
        "x",
        "fig10_x_topology",
        cfg,
        anc_runs=[t[2] for t in trials],
        baseline_runs={
            "traditional": [t[0] for t in trials],
            "cope": [t[1] for t in trials],
        },
    )
