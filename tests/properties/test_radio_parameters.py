"""The PHY and the radio environment take only the values the network sets.

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
"""

from __future__ import annotations

import inspect

import pytest

from repro.anc.alignment import align_known_frame
from repro.anc.decoder import DecoderConfig, SubtractionDecoder
from repro.anc.pipeline import ReceivePipeline
from repro.experiments.testbed import RelayExchange, relay_exchange
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Deframer, Framer
from repro.framing.pilot import PilotSequence
from repro.mac.planner import plan_relay_exchange
from repro.modulation.msk import MSKDemodulator, MSKModulator
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
}

ADVICE = (
    "a new PHY, radio-environment or relay-exchange parameter needs two "
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
    assert sum(len(names) for names in PARAMETERS.values()) == 43, ADVICE
