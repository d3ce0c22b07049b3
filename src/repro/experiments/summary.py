"""The §11.3 summary of results.

Runs every figure experiment (at a configurable size) and produces the
bullet list of headline numbers the paper opens its evaluation with:
mean gains for each topology, mean BERs, and the lowest SIR at which
decoding still works.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.chain import run_chain_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine
from repro.experiments.sir_sweep import sir_points
from repro.experiments.x_topology import run_x_topology_experiment
from repro.results.model import ExperimentResult, Series, make_result
from repro.results.render import gain_samples


def _mean_gain(result: ExperimentResult, baseline: str) -> float:
    """Mean per-run gain over ``baseline`` of a testbed figure result."""
    gains = gain_samples(result, baseline)
    return float(sum(gains) / len(gains))


def _mean_ber(result: ExperimentResult) -> float:
    """Mean per-packet BER of a testbed figure result's ANC decodes."""
    return float(np.mean(result.get_series("ber").column("ber")))


def run_summary(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Run every evaluation experiment and collect the §11.3 summary rows.

    ``engine`` is forwarded to each sub-experiment, so a parallel or
    resumable engine accelerates the whole summary at once.  ``quick`` is
    unused (sizes come from ``config``).
    """
    cfg = config if config is not None else ExperimentConfig()
    alice_bob = run_alice_bob_experiment(cfg, engine)
    x_top = run_x_topology_experiment(cfg, engine)
    chain = run_chain_experiment(cfg, engine)
    points = sir_points(cfg, engine, packets_per_point=max(4, cfg.packets_per_run // 2))
    rows = {
        "alice_bob_gain_over_traditional": _mean_gain(alice_bob, "traditional"),
        "alice_bob_gain_over_cope": _mean_gain(alice_bob, "cope"),
        "alice_bob_mean_ber": _mean_ber(alice_bob),
        "x_gain_over_traditional": _mean_gain(x_top, "traditional"),
        "x_gain_over_cope": _mean_gain(x_top, "cope"),
        "chain_gain_over_traditional": _mean_gain(chain, "traditional"),
        "chain_mean_ber": _mean_ber(chain),
        "ber_at_minus3db_sir": min(points, key=lambda p: p.sir_db).mean_ber,
    }
    table = Series("rows", ("metric", "measured"), tuple(rows.items()))
    return make_result("summary", "figure", cfg, "summary", [table], rows)
