"""Scenario: queueing delay and goodput versus traffic burstiness.

A companion to :mod:`repro.experiments.offered_load`: instead of sweeping
*how much* traffic arrives, this sweeps *how* it arrives — smooth CBR,
memoryless Poisson, or on/off bursts — at one fixed offered load, and
reports mean and 95th-percentile end-to-end delay next to goodput and
drop rate.  Queueing theory says the ordering: CBR sees almost no
queueing (deterministic interarrivals at an underloaded server), Poisson
pays the classic M/G/1 waiting time, and bursty on/off traffic — same
long-run rate, much higher variance — overflows the finite queues during
bursts and stretches the delay tail.  The per-scheme comparison shows
how much of ANC's capacity advantage survives as a *latency* advantage:
its two-transmissions-per-exchange pipeline drains queues faster than
COPE's three or traditional's four.

All of the config's traffic knobs are honoured here: ``arrival_rate``
(default 0.6 packets per frame-time), ``sim_duration`` and
``mac_policy``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.offered_load import simulate_schemes
from repro.experiments.scenarios import ScenarioSpec, register_scenario
from repro.sim.traffic import TRAFFIC_MODELS

#: Base RNG stream for this scenario (distinct from every other scenario's).
_STREAM_BASE = 700

#: Offered load when the config leaves ``arrival_rate`` at its
#: "use the scenario default" value of 0.
DEFAULT_ARRIVAL_RATE = 0.6


def run_queueing_delay_trial(
    cfg: ExperimentConfig, key: Tuple[str, int]
) -> Dict[str, Dict[str, float]]:
    """Execute one (traffic model, run) cell of the burstiness sweep.

    Picklable engine trial; randomness derives from the config seed, the
    traffic model and the run index, so the cell is independent of
    execution order and worker placement.
    """
    model, run = str(key[0]), int(key[1])
    rate = cfg.arrival_rate if cfg.arrival_rate > 0 else DEFAULT_ARRIVAL_RATE
    stream = _STREAM_BASE + TRAFFIC_MODELS.index(model)
    return simulate_schemes(
        cfg, arrival_rate=rate, run=run, stream=stream, traffic_model=model
    )


QUEUEING_DELAY = register_scenario(
    ScenarioSpec(
        name="queueing_delay",
        description="mean / p95 queueing delay vs traffic burstiness "
        "(CBR, Poisson, on/off bursts) at fixed offered load",
        sweep_axis="traffic",
        sweep_values=TRAFFIC_MODELS,
        schemes=("anc", "cope", "traditional"),
        trial_fn=run_queueing_delay_trial,
        reads=(
            "snr_db_range", "overlap_range", "overlap_jitter", "ber_acceptance",
            "anc_redundancy_overhead", "arrival_rate", "sim_duration", "mac_policy",
        ),
    )
)
