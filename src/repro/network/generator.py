"""Parameterized topology generators for arbitrary N-node scenarios.

The paper evaluates ANC on three fixed topologies; the scenario subsystem
generalizes that to whole *families* of workloads.  Every generator here
takes the same three ingredients — a :class:`ChannelConditions` description
of the radio environment, a seeded ``numpy`` generator, and a handful of
shape parameters — and returns a :class:`~repro.network.topology.Topology`:

* :func:`generate_random_mesh` — ``nodes`` radios dropped uniformly into a
  unit square and linked when within ``radius``, with distance-dependent
  attenuation; disconnected components are stitched together so every
  flow remains routable.
* :func:`generate_geometric_mesh` — the same placement, but link gains
  derived from the node geometry through a log-distance
  :class:`~repro.channel.pathloss.PathLossModel`, so SNR/SIR follow from
  where the radios landed instead of hand-set constants.

A chain of any length is
:func:`~repro.network.topologies.chain_topology` with its ``hops``
argument.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.channel.pathloss import PathLossModel
from repro.exceptions import ConfigurationError
from repro.network.topologies import (
    MEAN_ATTENUATION,
    OVERHEAR_ATTENUATION,
    ChannelConditions,
    _draw_link,
)
from repro.network.topology import Topology


def generate_random_mesh(
    conditions: ChannelConditions,
    rng: np.random.Generator,
    nodes: int = 10,
    radius: float = 0.45,
) -> Topology:
    """A seeded random geometric mesh of ``nodes`` radios in a unit square.

    Node positions are drawn uniformly; every pair closer than ``radius``
    gets a symmetric link whose mean attenuation decays linearly with
    distance (nearby pairs approach
    :data:`~repro.network.topologies.MEAN_ATTENUATION`, pairs at the edge
    of the radio range fall towards
    :data:`~repro.network.topologies.OVERHEAR_ATTENUATION`).  If the resulting radio graph is
    disconnected, the closest node pairs across components are linked so
    every flow stays routable — the generator guarantees a connected
    topology for any seed.

    Parameters
    ----------
    conditions:
        The SNR that sets every receiver's noise floor.
    rng:
        Seeded generator; placement and link draws both come from it, so
        the same seed always yields the same mesh.
    nodes:
        Number of radios (ids ``1 .. nodes``).
    radius:
        Radio range as a fraction of the unit square's side.
    """
    if nodes < 3:
        raise ConfigurationError("a mesh needs at least 3 nodes")
    if not 0.0 < radius <= np.sqrt(2.0):
        raise ConfigurationError("radius must lie in (0, sqrt(2)]")
    node_ids = list(range(1, nodes + 1))
    positions = {node: rng.uniform(0.0, 1.0, size=2) for node in node_ids}

    def _attenuation(distance: float) -> float:
        # Linear decay from the main-link attenuation at zero distance to
        # the overhearing level at the edge of the radio range.
        span = max(radius, distance)
        fraction = min(distance / span, 1.0)
        return MEAN_ATTENUATION - (MEAN_ATTENUATION - OVERHEAR_ATTENUATION) * fraction

    return _mesh_from_positions(conditions, rng, positions, radius, _attenuation)


def generate_geometric_mesh(
    conditions: ChannelConditions,
    rng: np.random.Generator,
    nodes: int = 12,
    radius: float = 0.45,
    path_loss: Optional[PathLossModel] = None,
) -> Topology:
    """A random geometric mesh whose link gains follow a path-loss law.

    Placement and connectivity work exactly like
    :func:`generate_random_mesh` — ``nodes`` radios dropped uniformly
    into the unit square, pairs within ``radius`` linked, disconnected
    components bridged — but every link's mean attenuation is derived
    from the node *geometry* through a log-distance
    :class:`~repro.channel.pathloss.PathLossModel` instead of the
    hand-set linear decay.  Nearby pairs therefore get strong
    high-SNR links and pairs at the edge of the radio range get weak
    ones, with the spread controlled by the model's exponent: the mesh's
    SNR/SIR landscape is a consequence of the placement, as in a real
    deployment.

    The generated topology carries the placement as
    ``topology.positions`` (node id → ``(x, y)`` tuple) so callers can
    relate per-flow results back to the geometry.

    Parameters
    ----------
    conditions:
        The SNR that sets every receiver's noise floor (the other link
        statistics are the module constants of
        :mod:`repro.network.topologies`).
    rng:
        Seeded generator; placement and link draws both come from it.
    nodes:
        Number of radios (ids ``1 .. nodes``).
    radius:
        Radio range as a fraction of the unit square's side.
    path_loss:
        The gain law.  The default
        (``PathLossModel(exponent=2.0, reference_distance=0.2,
        reference_attenuation=0.95, min_attenuation=0.05)``) keeps links
        at the edge of the default radius within the decodable SNR
        regime of the paper's testbed.
    """
    if nodes < 3:
        raise ConfigurationError("a mesh needs at least 3 nodes")
    if not 0.0 < radius <= np.sqrt(2.0):
        raise ConfigurationError("radius must lie in (0, sqrt(2)]")
    model = (
        path_loss
        if path_loss is not None
        else PathLossModel(
            exponent=2.0,
            reference_distance=0.2,
            reference_attenuation=0.95,
            min_attenuation=0.05,
        )
    )
    node_ids = list(range(1, nodes + 1))
    positions = {node: rng.uniform(0.0, 1.0, size=2) for node in node_ids}
    return _mesh_from_positions(conditions, rng, positions, radius, model.attenuation)


def _mesh_from_positions(
    conditions: ChannelConditions,
    rng: np.random.Generator,
    positions: Dict[int, np.ndarray],
    radius: float,
    attenuation_for: Callable[[float], float],
) -> Topology:
    """Build a connected mesh over fixed positions with a given gain law.

    Shared by :func:`generate_random_mesh` (linear-decay law) and
    :func:`generate_geometric_mesh` (path-loss law): pairs within
    ``radius`` are linked, then the closest cross-component pairs are
    bridged, with every link's mean attenuation taken from
    ``attenuation_for(distance)``.  Draw order is fixed by the sorted
    node ids, so a given ``rng`` state always yields the same mesh.
    The placement is recorded as ``topology.positions`` (declared on
    :class:`~repro.network.topology.Topology`) for both mesh families.
    """
    node_ids = sorted(positions)
    topology = Topology()
    topology.positions = {
        node: (float(point[0]), float(point[1])) for node, point in positions.items()
    }
    for node in node_ids:
        topology.add_node(node, noise_power=conditions.noise_power)

    def _link_pair(a: int, b: int) -> None:
        distance = float(np.linalg.norm(positions[a] - positions[b]))
        attenuation = attenuation_for(distance)
        topology.add_symmetric_link(
            a,
            b,
            _draw_link(conditions, rng, attenuation=attenuation),
            _draw_link(conditions, rng, attenuation=attenuation),
        )

    for index, a in enumerate(node_ids):
        for b in node_ids[index + 1 :]:
            if float(np.linalg.norm(positions[a] - positions[b])) <= radius:
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
