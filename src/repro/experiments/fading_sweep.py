"""Scenario: ANC versus digital schemes under stochastic fading.

§6 of the paper warns that channel gain and phase "vary with time" — the
reason naive analog subtraction is fragile and the pilot-based estimates
have to be refreshed every packet.  This sweep quantifies that: the same
Alice–Bob traffic runs under analog network coding, digital XOR coding
(COPE) and traditional routing while every link additionally fades with a
Rician K-factor swept from the scattered-only Rayleigh regime (no line of
sight, deep fades) up to a strongly specular channel that approaches the
baseline flat link.

The K-factor axis is in dB; the sentinel value
:data:`RAYLEIGH_K_DB` (and anything at or below it) selects pure Rayleigh
fading.  Fades are drawn per packet (``block`` mode by default — the
``fading_mode``/``fading_doppler`` scenario params select the in-packet
drift variant) from the per-trial engine substream, so the sweep is fully
reproducible and parallelisable.
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
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.traditional import TraditionalRouting

#: Base RNG stream for this scenario (disjoint from every other family).
_STREAM_BASE = 850

#: K-factor (dB) at or below which the sweep uses pure Rayleigh fading.
RAYLEIGH_K_DB = -90.0


def run_fading_sweep_trial(
    cfg: ExperimentConfig,
    key: Tuple[float, int],
    fading_mode: str = "block",
    fading_doppler: float = 0.0,
) -> Dict[str, Dict[str, float]]:
    """Execute one (k_db, run) cell of the fading sweep.

    Picklable engine trial.  As in the CFO sweep, the topology substream
    ignores the sweep value so every K-factor point of a run shares one
    radio environment; any sender CFO in ``cfg.impairments`` is kept, so
    fading and CFO compose.
    """
    k_db, run = float(key[0]), int(key[1])
    if cfg.impairments.fading != "none":
        raise ConfigurationError(
            "fading_sweep sweeps the fading family and K-factor itself; "
            "leave --fading unset (a configured family would be discarded "
            "but still recorded in the result's config snapshot). --cfo "
            "and --fading-mode/--fading-doppler compose normally."
        )
    topo_rng = cfg.run_rng(run, stream=_STREAM_BASE)
    snr_db = cfg.draw_run_snr(topo_rng)
    mean_overlap = cfg.draw_run_overlap(topo_rng)
    conditions = ChannelConditions(snr_db=snr_db)
    topology = generate_star(conditions, topo_rng, leaves=2, hub=RELAY)
    # The scenario params are the registered defaults; an explicit drift
    # request in the caller's config (--fading-mode/--fading-doppler)
    # takes precedence instead of being silently reset to block fading.
    base = cfg.impairments
    if (base.fading_mode, base.fading_doppler) != ("block", 0.0):
        fading_mode, fading_doppler = base.fading_mode, base.fading_doppler
    impairments = replace(
        base,
        fading="rayleigh" if k_db <= RAYLEIGH_K_DB else "rician",
        rician_k_db=k_db,
        fading_mode=fading_mode,
        fading_doppler=fading_doppler,
    )
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

    cope = CopeRelayProtocol(
        topology,
        RELAY,
        flow_a,
        flow_b,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        rng=cfg.run_rng(run, stream=_STREAM_BASE + 2),
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

    return {
        "anc": summarize_run(anc),
        "cope": summarize_run(cope),
        "traditional": summarize_run(traditional),
    }


FADING_SWEEP = register_scenario(
    ScenarioSpec(
        name="fading_sweep",
        description="ANC vs COPE vs routing on the Alice-Bob exchange under "
        "Rayleigh/Rician fading swept over the K-factor (dB; <= -90 is "
        "pure Rayleigh)",
        topology="star",
        sweep_axis="k_db",
        sweep_values=(-99.0, 0.0, 6.0, 12.0),
        quick_sweep_values=(-99.0, 6.0),
        schemes=("anc", "cope", "traditional"),
        trial_fn=run_fading_sweep_trial,
        params={"fading_mode": "block", "fading_doppler": 0.0},
        reads=TESTBED_READS + ("anc_redundancy_overhead",),
    )
)
