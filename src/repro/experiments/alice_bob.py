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

from typing import Callable, Optional, Tuple

from repro.channel.impairments import IMPAIRMENT_STREAM, apply_impairments
from repro.channel.interference import OverlapModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.metrics.report import report_result
from repro.network.flows import Flow
from repro.network.topologies import ALICE, BOB, RELAY, ChannelConditions, alice_bob_topology
from repro.network.topology import Topology
from repro.protocols.anc import ANCRelayProtocol, default_min_offset
from repro.protocols.base import RunResult
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.traditional import TraditionalRouting
from repro.results.model import ExperimentResult


def relay_exchange_trial(
    cfg: ExperimentConfig,
    run_index: int,
    topology_fn: Callable[..., Topology],
    relay: int,
    flows: Tuple[Tuple[int, int], Tuple[int, int]],
    stream_base: int,
    overhearing: bool,
    topology_name: str,
) -> Tuple[RunResult, RunResult, RunResult]:
    """Execute one two-flow relay exchange under all three schemes.

    The shared body of the Fig. 9 (Alice–Bob) and Fig. 10 (X) trials:
    ``topology_fn`` draws the topology, ``flows`` are the two
    ``(source, destination)`` pairs crossing ``relay``, and ``overhearing``
    says whether the destinations learn the interfering packet by
    overhearing it (X) or by having sent it (Alice–Bob).  All randomness
    derives from ``cfg.run_rng(run_index, stream_base + k)`` substreams,
    so the result does not depend on which worker executes the trial or
    in what order.

    Returns the ``(traditional, cope, anc)`` run results.
    """
    topo_rng = cfg.run_rng(run_index, stream=stream_base)
    snr_db = cfg.draw_run_snr(topo_rng)
    mean_overlap = cfg.draw_run_overlap(topo_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    topology = topology_fn(conditions, topo_rng)
    apply_impairments(
        topology, cfg.impairments, cfg.run_rng(run_index, stream=IMPAIRMENT_STREAM)
    )
    flow_a = Flow(*flows[0], cfg.packets_per_run)
    flow_b = Flow(*flows[1], cfg.packets_per_run)

    traditional = TraditionalRouting(
        topology,
        [flow_a, flow_b],
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run_index, stream=stream_base + 1),
        topology_name=topology_name,
    )
    traditional_run = traditional.run()

    cope = CopeRelayProtocol(
        topology,
        relay,
        flow_a,
        flow_b,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        overhearing=overhearing,
        rng=cfg.run_rng(run_index, stream=stream_base + 2),
        topology_name=topology_name,
    )
    cope_run = cope.run()

    anc_rng = cfg.run_rng(run_index, stream=stream_base + 3)
    overlap_model = OverlapModel(
        mean_overlap=mean_overlap,
        jitter=cfg.overlap_jitter,
        min_offset=default_min_offset(),
        rng=anc_rng,
    )
    anc = ANCRelayProtocol(
        topology,
        relay,
        flow_a,
        flow_b,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        redundancy_overhead=cfg.anc_redundancy_overhead,
        overhearing=overhearing,
        overlap_model=overlap_model,
        rng=anc_rng,
        topology_name=topology_name,
    )
    return traditional_run, cope_run, anc.run()


def relay_exchange_experiment(
    name: str,
    tag: str,
    trial_fn: Callable[[ExperimentConfig, int], Tuple[RunResult, RunResult, RunResult]],
    config: Optional[ExperimentConfig],
    engine: Optional[ExperimentEngine],
) -> ExperimentResult:
    """Run ``cfg.runs`` relay-exchange trials and build the figure's tables.

    ``trial_fn`` is the figure's own picklable trial (its qualified name
    is part of the engine's cache digest); ``name`` and ``tag`` are the
    result's registry name and figure tag.
    """
    cfg = config if config is not None else ExperimentConfig()
    trials = default_engine(engine).map(tag, trial_fn, cfg, range(cfg.runs))
    return report_result(
        name,
        tag,
        cfg,
        anc_runs=[t[2] for t in trials],
        baseline_runs={
            "traditional": [t[0] for t in trials],
            "cope": [t[1] for t in trials],
        },
    )


def run_alice_bob_trial(
    cfg: ExperimentConfig, run_index: int
) -> Tuple[RunResult, RunResult, RunResult]:
    """Execute one Fig. 9 testbed run under all three schemes.

    Top-level (hence picklable) so the :class:`ExperimentEngine` can
    dispatch it to process workers.  Returns the ``(traditional, cope,
    anc)`` run results.
    """
    return relay_exchange_trial(
        cfg,
        run_index,
        alice_bob_topology,
        relay=RELAY,
        flows=((ALICE, BOB), (BOB, ALICE)),
        stream_base=0,
        overhearing=False,
        topology_name="alice_bob",
    )


def run_alice_bob_experiment(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Run the Fig. 9 experiment and return its result tables.

    ``engine`` selects how the per-run trials execute (serial, parallel,
    batched into worker blocks, resumed from cache); the result is
    identical in every mode.  ``quick`` is unused (the run count comes
    from ``config``).
    """
    return relay_exchange_experiment(
        "alice-bob", "fig09_alice_bob", run_alice_bob_trial, config, engine
    )
