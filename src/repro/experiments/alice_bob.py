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

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.experiments.testbed import RelayExchange, Streams, relay_exchange_trial
from repro.metrics.report import report_result
from repro.network.topologies import ALICE, BOB, alice_bob_topology
from repro.protocols.base import RunResult
from repro.results.model import ExperimentResult

#: Alice and Bob exchange packets through the router (Fig. 1); each
#: endpoint knows the interfering packet because it sent it.
ALICE_BOB = RelayExchange(
    name="alice_bob",
    build=alice_bob_topology,
    flows=((ALICE, BOB), (BOB, ALICE)),
)


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
    runs = relay_exchange_trial(cfg, run_index, ALICE_BOB, Streams(0, 1, 2, 3))
    return runs["traditional"], runs["cope"], runs["anc"]


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
