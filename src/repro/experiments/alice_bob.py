"""Figure 9: the Alice–Bob topology.

Each run draws a fresh topology (link gains, phases, CFOs), a fresh
operating SNR and a fresh mean overlap, then executes the same traffic —
``packets_per_run`` packets in each direction — under ANC, traditional
routing and COPE.  Per-run throughput-gain samples feed the Fig. 9(a)
CDFs; per-packet BERs of the ANC decodes feed the Fig. 9(b) CDF.

Paper's headline results for this figure: ANC gains ~70 % over the
traditional approach and ~30 % over COPE, with most packets below 4 % BER.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.channel.impairments import IMPAIRMENT_STREAM, apply_impairments
from repro.channel.interference import OverlapModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.metrics.report import report_result
from repro.network.flows import Flow
from repro.network.topologies import ALICE, BOB, RELAY, ChannelConditions, alice_bob_topology
from repro.protocols.anc import ANCRelayProtocol, default_min_offset
from repro.protocols.base import RunResult
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.traditional import TraditionalRouting
from repro.results.model import ExperimentResult


def run_alice_bob_trial(
    cfg: ExperimentConfig, run_index: int
) -> Tuple[RunResult, RunResult, RunResult]:
    """Execute one Fig. 9 testbed run under all three schemes.

    Top-level (hence picklable) so the :class:`ExperimentEngine` can
    dispatch it to process workers; all randomness derives from
    ``cfg.run_rng(run_index, ...)`` substreams, so the result does not
    depend on which worker executes the trial or in what order.

    Returns the ``(traditional, cope, anc)`` run results.
    """
    topo_rng = cfg.run_rng(run_index, stream=0)
    snr_db = cfg.draw_run_snr(topo_rng)
    mean_overlap = cfg.draw_run_overlap(topo_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    topology = alice_bob_topology(conditions, topo_rng)
    apply_impairments(
        topology, cfg.impairments, cfg.run_rng(run_index, stream=IMPAIRMENT_STREAM)
    )
    flow_a = Flow(ALICE, BOB, cfg.packets_per_run)
    flow_b = Flow(BOB, ALICE, cfg.packets_per_run)

    traditional = TraditionalRouting(
        topology,
        [flow_a, flow_b],
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run_index, stream=1),
        topology_name="alice_bob",
    )
    traditional_run = traditional.run()

    cope = CopeRelayProtocol(
        topology,
        RELAY,
        flow_a,
        flow_b,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run_index, stream=2),
        topology_name="alice_bob",
    )
    cope_run = cope.run()

    anc_rng = cfg.run_rng(run_index, stream=3)
    overlap_model = OverlapModel(
        mean_overlap=mean_overlap,
        jitter=cfg.overlap_jitter,
        min_offset=default_min_offset(),
        rng=anc_rng,
    )
    anc = ANCRelayProtocol(
        topology,
        RELAY,
        flow_a,
        flow_b,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        redundancy_overhead=cfg.anc_redundancy_overhead,
        overlap_model=overlap_model,
        rng=anc_rng,
        topology_name="alice_bob",
    )
    return traditional_run, cope_run, anc.run()


def run_alice_bob_experiment(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Run the Fig. 9 experiment and return its result tables.

    ``engine`` selects how the per-run trials execute (serial, parallel,
    batched into worker blocks via ``config.batch_size``, resumed from
    cache); the result is identical in every mode.  ``quick`` is unused
    (the run count comes from ``config``).
    """
    cfg = config if config is not None else ExperimentConfig()
    trials = default_engine(engine).map(
        "fig09_alice_bob", run_alice_bob_trial, cfg, range(cfg.runs),
        batch_size=cfg.engine_batch_size,
    )
    return report_result(
        "alice-bob",
        "fig09_alice_bob",
        cfg,
        anc_runs=[t[2] for t in trials],
        baseline_runs={
            "traditional": [t[0] for t in trials],
            "cope": [t[1] for t in trials],
        },
    )
