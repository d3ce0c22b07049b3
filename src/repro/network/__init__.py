"""Network layer: topologies and the wireless medium.

The evaluation runs on the paper's three canonical topologies (Alice–Bob,
the 3-hop chain and the "X") plus the parameterized families produced by
:mod:`repro.network.generator` (chains of any length, stars, seeded
random meshes), each described by a :class:`Topology` of nodes and
directed :class:`~repro.channel.link.Link` parameters.  The
:class:`WirelessMedium` runs one transmission slot at a time: it computes,
for every receiver, the :func:`~repro.channel.interference.superpose` of
all concurrent in-range transmissions plus receiver noise — which is all a
wireless channel does to colliding packets — and charges the slot's air
time to its ledger.
"""

from repro.network.topology import Topology
from repro.network.topologies import (
    alice_bob_topology,
    chain_topology,
    x_topology,
)
from repro.network.medium import Transmission, WirelessMedium
from repro.network.flows import Flow
from repro.network.generator import (
    GENERATORS,
    available_generators,
    generate_chain,
    generate_random_mesh,
    generate_star,
    get_generator,
)

__all__ = [
    "Flow",
    "GENERATORS",
    "Topology",
    "Transmission",
    "WirelessMedium",
    "alice_bob_topology",
    "available_generators",
    "chain_topology",
    "generate_chain",
    "generate_random_mesh",
    "generate_star",
    "get_generator",
    "x_topology",
]
