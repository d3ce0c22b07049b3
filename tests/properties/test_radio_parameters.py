"""The PHY, the channel and the layers above take only the values callers set.

The paper's radio is one configuration: one complex sample per MSK
symbol (§5), one 64-bit pilot (§7.2), one detector setting (§7.1), one
CRC-16, one LFSR, one scrambler seed (§6.2) and equal transmit powers
(§8).  Those are module constants.  What remains a parameter below is set
by a production caller (or, for the pilot length and the decoder's
amplitude method, by the pilot-length and amplitude ablations), and
nothing else is.

A relay exchange is one plan: the planner derives the relay and each
destination's side information from the topology, and COPE and ANC run
that plan, so neither the schemes nor the testbed take those values.

Above the PHY the paper fixes the rest: links have no propagation delay,
the medium pads every slot alike, the §7.2 overlap floor belongs to the
overlap model, the mesh scenarios draw one mesh size under one
path-loss law, and Theorem 8.1's time-sharing constant is 1/4.  A
scenario trial takes only its config and its ``(value, run)`` key.
"""

from __future__ import annotations

import inspect

import pytest

from repro.anc.alignment import align_known_frame
from repro.anc.decoder import DecoderConfig, SubtractionDecoder
from repro.anc.pipeline import ReceivePipeline
from repro.capacity.bounds import (
    anc_capacity_lower_bound,
    capacity_gain,
    crossover_snr_db,
    traditional_capacity_upper_bound,
)
from repro.channel.interference import OverlapModel
from repro.channel.link import Link
from repro.experiments.runner import REGISTRY
from repro.experiments.scenarios import ScenarioSpec
from repro.experiments.testbed import RelayExchange, relay_exchange
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Deframer, Framer
from repro.framing.pilot import PilotSequence
from repro.mac.planner import plan_relay_exchange
from repro.modulation.msk import MSKDemodulator, MSKModulator
from repro.network.generator import generate_geometric_mesh, generate_random_mesh
from repro.network.medium import WirelessMedium
from repro.network.topologies import ChannelConditions
from repro.node.node import NodeConfig
from repro.protocols.anc import ANCRelayProtocol
from repro.protocols.cope import CopeRelayProtocol
from repro.scrambler.whitening import Scrambler
from repro.signal.energy import EnergyDetector, InterferenceDetector
from repro.utils.pn import PNSequence, pn_bits

PARAMETERS = {
    PNSequence: ("seed",),
    pn_bits: ("length", "seed"),
    Scrambler: (),
    PilotSequence: ("length",),
    DecoderConfig: ("amplitude_method", "amplitude_oracle"),
    SubtractionDecoder: (),
    MSKModulator: ("amplitude",),
    MSKDemodulator: (),
    Framer: ("pilot",),
    Deframer: (),
    EnergyDetector: ("noise_power",),
    InterferenceDetector: ("noise_power",),
    ReceivePipeline: ("noise_power", "expected_payload_bits", "known_frames"),
    NodeConfig: ("payload_bits", "noise_power"),
    SentPacketBuffer: (),
    align_known_frame: ("head_bits", "pilot", "max_pilot_errors"),
    ChannelConditions: ("snr_db",),
    plan_relay_exchange: ("topology", "flow_a", "flow_b"),
    ANCRelayProtocol: (
        "topology",
        "plan",
        "payload_bits",
        "ber_acceptance",
        "redundancy_overhead",
        "overlap_model",
        "rng",
        "topology_name",
    ),
    CopeRelayProtocol: (
        "topology",
        "plan",
        "payload_bits",
        "ber_acceptance",
        "rng",
        "topology_name",
    ),
    relay_exchange: ("bed", "scheme", "plan", "stream"),
    RelayExchange: ("name", "build", "flows"),
    Link: (
        "attenuation",
        "phase_shift",
        "noise_power",
        "frequency_offset",
        "phase_drift",
        "sender_cfo",
        "fading",
        "fading_k_db",
        "fading_mode",
        "fading_doppler",
        "fading_los_phase",
    ),
    WirelessMedium: ("topology", "rng"),
    OverlapModel: ("mean_overlap", "jitter", "rng"),
    generate_random_mesh: ("conditions", "rng"),
    generate_geometric_mesh: ("conditions", "rng"),
    traditional_capacity_upper_bound: ("snr_db",),
    anc_capacity_lower_bound: ("snr_db",),
    capacity_gain: ("snr_db",),
    crossover_snr_db: ("low_db", "high_db"),
    ScenarioSpec: (
        "name",
        "description",
        "sweep_axis",
        "sweep_values",
        "schemes",
        "trial_fn",
        "quick_sweep_values",
        "reads",
    ),
}

ADVICE = (
    "a new PHY, channel, network, scenario or capacity parameter needs two "
    "production callers that set different values; a value every caller leaves "
    "alone is a module constant (see the radio constants table of "
    "docs/CHANNELS.md), and a value the topology determines is the planner's"
)


@pytest.mark.parametrize(
    "target", list(PARAMETERS), ids=[target.__qualname__ for target in PARAMETERS]
)
def test_parameters_are_pinned(target):
    names = tuple(inspect.signature(target).parameters)
    assert names == PARAMETERS[target], f"{target.__qualname__}{names}: {ADVICE}"


def test_parameter_count():
    assert sum(len(names) for names in PARAMETERS.values()) == 76, ADVICE


SCENARIOS = sorted(name for name, entry in REGISTRY.items() if entry.kind == "scenario")


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_trial_takes_only_config_and_key(name):
    """The engine calls a scenario trial as ``trial_fn(cfg, (value, run))``."""
    trial_fn = REGISTRY[name].run.args[0].trial_fn
    parameters = inspect.signature(trial_fn).parameters
    assert tuple(parameters) == ("cfg", "key"), f"{name}: a value every cell uses is a constant"
    assert all(p.default is inspect.Parameter.empty for p in parameters.values())
