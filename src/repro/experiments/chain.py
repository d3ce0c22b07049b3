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

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.experiments.testbed import Streams, chain_trial
from repro.metrics.report import report_result
from repro.protocols.base import RunResult
from repro.results.model import ExperimentResult


def run_chain_trial(
    cfg: ExperimentConfig, run_index: int
) -> Tuple[RunResult, RunResult]:
    """Execute one Fig. 12 run on the 3-hop chain N1 -> N2 -> N3 -> N4 under both schemes.

    Picklable engine trial; all randomness is keyed by ``run_index``.
    Returns the ``(traditional, anc)`` run results.
    """
    runs = chain_trial(cfg, run_index, 3, Streams(20, 21, None, 22))
    return runs["traditional"], runs["anc"]


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
