"""Scenario: goodput and drops versus offered load (§8's load sweep).

The paper's §8 evaluates ANC on a real testbed by sweeping the offered
load of the Alice–relay–Bob exchange and plotting per-scheme goodput.
This scenario reproduces that experiment in the time domain with the
:mod:`repro.sim` discrete-event core: Poisson arrivals feed per-endpoint
queues, a CSMA/BEB MAC (or the collision-free TDMA grid, via
``--mac-policy scheduled``) arbitrates the channel, and every frame is
demodulated by the existing sample-level PHY.

All three schemes run on *identical* arrival sample paths and channel
draws — the per-cell entropy is shared, and the per-node named RNG
streams guarantee the same packets arrive at the same instants whatever
the scheme does with them.  Expected shape: at low load every scheme
delivers what arrives; as load grows, hidden-terminal collisions (Alice
and Bob cannot carrier-sense each other) collapse ``traditional`` first,
``cope``'s coded broadcasts stretch a little further, and ``anc``'s
triggered concurrent uplinks — which *want* the collision — keep scaling,
reproducing the paper's ``anc > cope > traditional`` high-load ordering.

The config's ``sim_duration`` and ``mac_policy`` knobs are honoured;
``arrival_rate`` is the sweep axis itself, so it is left out of the
scenario's ``reads`` and setting it on the config raises instead of
being silently ignored.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import ScenarioSpec, register_scenario
from repro.network.topologies import ChannelConditions
from repro.sim.core import RngStreams
from repro.sim.simulation import SimParams, TrafficSimulation

#: Base RNG stream for this scenario; each sweep value derives its own
#: substream so load points never share randomness.
_STREAM_BASE = 600

#: Simulated horizon (frame-times) when the config leaves ``sim_duration``
#: at its "use the scenario default" value of 0.
DEFAULT_DURATION_FRAMES = 48.0


def simulate_schemes(
    cfg: ExperimentConfig,
    arrival_rate: float,
    run: int,
    stream: int,
    traffic_model: str = "poisson",
) -> Dict[str, Dict[str, float]]:
    """Run the three relaying schemes on one shared traffic sample path.

    The entropy fed to :class:`TrafficSimulation` is identical for every
    scheme, so arrivals, payloads and channel draws match exactly; only
    the scheme's own behaviour differs.  Shared helper of the
    ``offered_load_sweep`` and ``queueing_delay`` scenarios.
    """
    draw_rng = cfg.run_rng(run, stream=stream)
    snr_db = cfg.draw_run_snr(draw_rng)
    mean_overlap = cfg.draw_run_overlap(draw_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    duration = cfg.sim_duration if cfg.sim_duration > 0 else DEFAULT_DURATION_FRAMES
    entropy = [
        cfg.seed,
        stream,
        int(run),
        RngStreams._key_material(traffic_model),
        int(round(arrival_rate * 1000)),
    ]
    cell: Dict[str, Dict[str, float]] = {}
    for scheme in ("anc", "cope", "traditional"):
        params = SimParams(
            scheme=scheme,
            mac_policy=cfg.mac_policy,
            traffic_model=traffic_model,
            arrival_rate=arrival_rate,
            sim_duration_frames=duration,
            payload_bits=cfg.payload_bits,
            ber_acceptance=cfg.ber_acceptance,
            redundancy_overhead=(
                cfg.anc_redundancy_overhead if scheme == "anc" else 0.0
            ),
            mean_overlap=mean_overlap,
            overlap_jitter=cfg.overlap_jitter,
        )
        report = TrafficSimulation(params, entropy=entropy, conditions=conditions).run()
        cell[scheme] = report.metrics()
    return cell


def run_offered_load_trial(
    cfg: ExperimentConfig, key: Tuple[float, int]
) -> Dict[str, Dict[str, float]]:
    """Execute one (offered load, run) cell of the load sweep.

    Picklable engine trial; all randomness derives from the config seed,
    the sweep value and the run index, so the cell is independent of
    execution order and worker placement.
    """
    load, run = float(key[0]), int(key[1])
    stream = _STREAM_BASE + int(round(load * 1000)) % 97
    return simulate_schemes(cfg, arrival_rate=load, run=run, stream=stream)


OFFERED_LOAD_SWEEP = register_scenario(
    ScenarioSpec(
        name="offered_load_sweep",
        description="goodput / drops vs offered load on the Alice-relay-Bob "
        "exchange (event-driven queues + CSMA, §8's load experiment)",
        topology="star",
        sweep_axis="load",
        sweep_values=(0.2, 0.4, 0.6, 0.8, 1.0, 1.2),
        quick_sweep_values=(0.2, 0.8, 1.2),
        schemes=("anc", "cope", "traditional"),
        trial_fn=run_offered_load_trial,
        reads=(
            "snr_db_range", "overlap_range", "overlap_jitter", "ber_acceptance",
            "anc_redundancy_overhead", "sim_duration", "mac_policy",
        ),
    )
)
