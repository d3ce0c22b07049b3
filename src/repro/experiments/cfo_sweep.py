"""Scenario: ANC robustness versus carrier frequency offset (§6).

The paper's amplitude-separation step *relies* on the relative carrier
frequency offset between the two unsynchronised senders: the offset makes
their phase difference sweep the circle, which is what justifies the
random-phase energy statistics of Eqs. 5–6 and keeps the Eq. 7–8 matching
well conditioned.  This sweep measures how the end-to-end exchange
behaves as the per-sender offset Δω grows from zero (phase-locked
oscillators, the adversarial case for the statistics) through the small
residual offsets of real radios to offsets large enough to stress the
pilot-based channel estimation.

Each trial is an Alice–Bob exchange (a 2-leaf star around the router)
whose topology, operating SNR and overlap are drawn *independently of the
sweep value*, so every Δω point of a run sees the same radio environment
— the axis isolates the oscillator offset.  The offset itself is applied
through the impairment subsystem
(:func:`repro.channel.impairments.apply_impairments`): oscillators are
assigned deterministically (no draw), and in this three-node exchange
the two colliding senders differ by exactly ``Δω`` — the tabulated axis
*is* the relative offset.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.channel.impairments import apply_impairments
from repro.channel.interference import OverlapModel
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import TESTBED_READS
from repro.experiments.scenarios import (
    ScenarioSpec,
    register_scenario,
    summarize_run,
)
from repro.network.flows import Flow
from repro.network.generator import generate_star
from repro.network.topologies import ALICE, BOB, RELAY, ChannelConditions
from repro.protocols.anc import ANCRelayProtocol, default_min_offset
from repro.protocols.traditional import TraditionalRouting

#: Base RNG stream for this scenario (disjoint from every other family).
_STREAM_BASE = 800


def run_cfo_sweep_trial(
    cfg: ExperimentConfig, key: Tuple[float, int]
) -> Dict[str, Dict[str, float]]:
    """Execute one (sender_cfo, run) cell of the CFO robustness sweep.

    Picklable engine trial.  The topology substream does not depend on
    the sweep value, so all Δω points of one run share a radio
    environment; only the impairment differs.  Any fading the caller's
    ``cfg.impairments`` requests is kept, letting CFO and fading compose.
    """
    sender_cfo, run = float(key[0]), int(key[1])
    if cfg.impairments.sender_cfo != 0.0:
        raise ConfigurationError(
            "cfo_sweep sweeps the per-sender CFO itself; leave --cfo at 0 "
            "(a configured value would be discarded but still recorded in "
            "the result's config snapshot). --fading composes normally."
        )
    topo_rng = cfg.run_rng(run, stream=_STREAM_BASE)
    snr_db = cfg.draw_run_snr(topo_rng)
    mean_overlap = cfg.draw_run_overlap(topo_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    topology = generate_star(conditions, topo_rng, leaves=2, hub=RELAY)
    impairments = replace(cfg.impairments, sender_cfo=sender_cfo)
    apply_impairments(
        topology, impairments, cfg.run_rng(run, stream=_STREAM_BASE + 6)
    )
    flow_a = Flow(ALICE, BOB, cfg.packets_per_run)
    flow_b = Flow(BOB, ALICE, cfg.packets_per_run)

    traditional = TraditionalRouting(
        topology,
        [flow_a, flow_b],
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run, stream=_STREAM_BASE + 1),
        topology_name="alice_bob",
    ).run()

    anc_rng = cfg.run_rng(run, stream=_STREAM_BASE + 3)
    anc = ANCRelayProtocol(
        topology,
        RELAY,
        flow_a,
        flow_b,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        redundancy_overhead=cfg.anc_redundancy_overhead,
        overlap_model=OverlapModel(
            mean_overlap=mean_overlap,
            jitter=cfg.overlap_jitter,
            min_offset=default_min_offset(),
            rng=anc_rng,
        ),
        rng=anc_rng,
        topology_name="alice_bob",
    ).run()

    return {"anc": summarize_run(anc), "traditional": summarize_run(traditional)}


CFO_SWEEP = register_scenario(
    ScenarioSpec(
        name="cfo_sweep",
        description="ANC BER/throughput robustness vs per-sender carrier "
        "frequency offset on the Alice-Bob exchange (the §6 mechanism)",
        topology="star",
        sweep_axis="cfo",
        sweep_values=(0.0, 0.005, 0.01, 0.02, 0.05, 0.1),
        quick_sweep_values=(0.0, 0.02, 0.1),
        schemes=("anc", "traditional"),
        trial_fn=run_cfo_sweep_trial,
        reads=TESTBED_READS + ("anc_redundancy_overhead",),
    )
)
