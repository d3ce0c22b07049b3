"""Network layer: topologies and the wireless medium.

The evaluation runs on the paper's three canonical topologies (Alice–Bob,
the chain at any length and the "X") plus the parameterized families
produced by :mod:`repro.network.generator` (seeded random and path-loss
meshes), each described by a :class:`Topology` of nodes and
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
    generate_geometric_mesh,
    generate_random_mesh,
)

__all__ = [
    "Flow",
    "Topology",
    "Transmission",
    "WirelessMedium",
    "alice_bob_topology",
    "chain_topology",
    "generate_geometric_mesh",
    "generate_random_mesh",
    "x_topology",
]
