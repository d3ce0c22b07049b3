"""Seeded topology generators for N-node mesh scenarios.

The paper evaluates ANC on three fixed topologies; the mesh scenarios
generalize that to seeded random deployments.  Each generator is a
:data:`~repro.experiments.testbed.BuildFn`: it takes a
:class:`ChannelConditions` description of the radio environment and a
seeded ``numpy`` generator, drops :data:`MESH_NODES` radios uniformly
into a unit square, links every pair within :data:`MESH_RADIUS`, and
stitches disconnected components together so every flow remains
routable.  The two differ only in the link-gain law:

* :func:`generate_random_mesh` — the mean attenuation decays linearly
  with distance between two hand-set constants;
* :func:`generate_geometric_mesh` — the mean attenuation follows a
  log-distance path-loss law of the node geometry, so SNR/SIR follow
  from where the radios landed.

A chain of any length is
:func:`~repro.network.topologies.chain_topology` with its ``hops``
argument.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.network.topologies import (
    MEAN_ATTENUATION,
    OVERHEAR_ATTENUATION,
    ChannelConditions,
    _draw_link,
)
from repro.network.topology import Topology

ArrayLike = Union[float, np.ndarray]

#: Radios in a generated mesh (ids ``1 .. MESH_NODES``).
MESH_NODES = 12

#: Radio range as a fraction of the unit square's side.
MESH_RADIUS = 0.45

#: The log-distance path-loss law of :func:`generate_geometric_mesh`:
#: power falls as ``(d_0/d)^n`` beyond the reference distance ``d_0``
#: (``n = 2`` is free space), the amplitude gain at and inside ``d_0`` is
#: the reference value, and it never falls below the floor.  These keep
#: links at the edge of :data:`MESH_RADIUS` within the decodable SNR
#: regime of the paper's testbed.
PATH_LOSS_EXPONENT = 2.0
PATH_LOSS_REFERENCE_DISTANCE = 0.2
PATH_LOSS_REFERENCE_ATTENUATION = 0.95
PATH_LOSS_MIN_ATTENUATION = 0.05


def _linear_decay(distance: float) -> float:
    """Mean attenuation of a random-mesh link ``distance`` apart.

    Linear decay from the main-link attenuation at zero distance to the
    overhearing level at the edge of the radio range.
    """
    fraction = min(distance / MESH_RADIUS, 1.0)
    return MEAN_ATTENUATION - (MEAN_ATTENUATION - OVERHEAR_ATTENUATION) * fraction


def _path_loss(distance: ArrayLike) -> ArrayLike:
    """Amplitude gain of a geometric-mesh link ``distance`` apart (any shape).

    Power follows ``(d_0/d)^n``, so the amplitude follows
    ``(d_0/d)^{n/2}``.
    """
    ratio = PATH_LOSS_REFERENCE_DISTANCE / np.maximum(distance, PATH_LOSS_REFERENCE_DISTANCE)
    gain = PATH_LOSS_REFERENCE_ATTENUATION * np.power(ratio, PATH_LOSS_EXPONENT / 2.0)
    return np.maximum(gain, PATH_LOSS_MIN_ATTENUATION)


def generate_random_mesh(conditions: ChannelConditions, rng: np.random.Generator) -> Topology:
    """A seeded random mesh whose link gains decay linearly with distance.

    Nearby pairs approach
    :data:`~repro.network.topologies.MEAN_ATTENUATION`, pairs at the edge
    of the radio range fall towards
    :data:`~repro.network.topologies.OVERHEAR_ATTENUATION`.  ``conditions``
    sets every receiver's noise floor; placement and link draws both come
    from ``rng``, so the same seed always yields the same mesh.
    """
    return _mesh(conditions, rng, _linear_decay)


def generate_geometric_mesh(
    conditions: ChannelConditions, rng: np.random.Generator
) -> Topology:
    """A seeded random mesh whose link gains follow the path-loss law.

    Placement and connectivity work exactly like
    :func:`generate_random_mesh`, but every link's mean attenuation comes
    from the node geometry through the log-distance law of the
    ``PATH_LOSS_*`` constants: nearby pairs get strong high-SNR links and
    pairs at the edge of the radio range get weak ones, so the mesh's
    SNR/SIR landscape is a consequence of the placement, as in a real
    deployment.
    """
    return _mesh(conditions, rng, _path_loss)


def _mesh(
    conditions: ChannelConditions,
    rng: np.random.Generator,
    attenuation_for: Callable[[float], ArrayLike],
) -> Topology:
    """Place the radios and build a connected mesh with a given gain law.

    Positions are drawn first, then pairs within :data:`MESH_RADIUS` are
    linked, then the closest cross-component pairs are bridged, with
    every link's mean attenuation taken from
    ``attenuation_for(distance)``.  Draw order is fixed by the sorted node
    ids, so a given ``rng`` state always yields the same mesh.  The
    placement is recorded as ``topology.positions`` (declared on
    :class:`~repro.network.topology.Topology`).
    """
    node_ids = list(range(1, MESH_NODES + 1))
    positions = {node: rng.uniform(0.0, 1.0, size=2) for node in node_ids}
    topology = Topology()
    topology.positions = {
        node: (float(point[0]), float(point[1])) for node, point in positions.items()
    }
    for node in node_ids:
        topology.add_node(node, noise_power=conditions.noise_power)

    def _link_pair(a: int, b: int) -> None:
        distance = float(np.linalg.norm(positions[a] - positions[b]))
        attenuation = float(attenuation_for(distance))
        topology.add_symmetric_link(
            a,
            b,
            _draw_link(conditions, rng, attenuation=attenuation),
            _draw_link(conditions, rng, attenuation=attenuation),
        )

    for index, a in enumerate(node_ids):
        for b in node_ids[index + 1 :]:
            if float(np.linalg.norm(positions[a] - positions[b])) <= MESH_RADIUS:
                _link_pair(a, b)

    for a, b in _component_bridges(topology, positions):
        _link_pair(a, b)

    return topology


def _component_bridges(
    topology: Topology, positions: Dict[int, np.ndarray]
) -> List[Tuple[int, int]]:
    """Closest cross-component node pairs needed to connect the radio graph.

    Components are merged greedily: while more than one remains, the
    geometrically closest pair of nodes joining the component of the
    lowest node id to another component is bridged.  Deterministic given
    the positions (ties broken by node id).
    """
    root = {node: node for node in topology.nodes}

    def find(node: int) -> int:
        """The root of ``node``'s component."""
        while root[node] != node:
            node = root[node]
        return node

    def components() -> List[List[int]]:
        """Sorted members of each component, by lowest node id."""
        members: Dict[int, List[int]] = {}
        for node in topology.nodes:
            members.setdefault(find(node), []).append(node)
        return list(members.values())

    for a, b in topology.edges():
        root[find(a)] = find(b)
    bridges: List[Tuple[int, int]] = []
    groups = components()
    while len(groups) > 1:
        base = groups[0]
        _, a, b = min(
            (float(np.linalg.norm(positions[x] - positions[y])), x, y)
            for other in groups[1:]
            for x in base
            for y in other
        )
        bridges.append((a, b))
        root[find(a)] = find(b)
        groups = components()
    return bridges
