"""Every randomised library entry point requires its generator.

A result must be a pure function of (code, config, seed).  A function
that fell back to an unseeded ``np.random.default_rng()`` when its
``rng`` was omitted would let a caller's slip make a result depend on
more than that, with no error; so none of these has an ``rng`` default.
"""

from __future__ import annotations

import inspect

import pytest

from repro.channel.interference import OverlapModel
from repro.framing.packet import Packet
from repro.network.generator import generate_geometric_mesh, generate_random_mesh
from repro.network.medium import WirelessMedium
from repro.network.topologies import alice_bob_topology, chain_topology, x_topology
from repro.node.node import Node
from repro.protocols.anc import ANCRelayProtocol
from repro.protocols.base import ProtocolRun
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.scheduled import ChainPipelineProtocol
from repro.protocols.traditional import TraditionalRouting
from repro.signal.noise import complex_gaussian_noise
from repro.utils.bits import random_bits

SEEDED = [
    OverlapModel.__init__,
    complex_gaussian_noise,
    WirelessMedium.__init__,
    ProtocolRun.__init__,
    TraditionalRouting.__init__,
    CopeRelayProtocol.__init__,
    ANCRelayProtocol.__init__,
    ChainPipelineProtocol.__init__,
    alice_bob_topology,
    chain_topology,
    x_topology,
    generate_random_mesh,
    generate_geometric_mesh,
    random_bits,
    Node.make_packet,
    Packet.random,
]


@pytest.mark.parametrize("function", SEEDED, ids=[f.__qualname__ for f in SEEDED])
def test_rng_has_no_default(function):
    parameter = inspect.signature(function).parameters["rng"]
    assert parameter.default is inspect.Parameter.empty
