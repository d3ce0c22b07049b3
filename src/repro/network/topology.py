"""Topology: nodes, radio ranges and per-link channel parameters.

A topology is a directed graph whose edges carry the
:class:`~repro.channel.link.Link` parameters (attenuation, phase offset,
carrier-frequency offset, drift and fading) of each radio path, plus a
per-node receiver noise power.  Only node pairs connected by an edge hear
each other at all — exactly the "radio range" notion the paper's canonical
topologies rely on (e.g. Alice and Bob are *not* connected, N1 and N4 in
the chain are not connected).

The graph is a plain insertion-ordered adjacency dict,
``{source: {destination: (link, routable)}}``.  That order is part of
the model: when several shortest routes tie, :meth:`Topology.shortest_path`
picks one by the order in which nodes and links were added.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.channel.link import Link
from repro.exceptions import TopologyError


class Topology:
    """A set of nodes and the directed radio links between them."""

    def __init__(self) -> None:
        """Create an empty topology (no nodes, no links)."""
        self._adjacency: Dict[int, Dict[int, Tuple[Link, bool]]] = {}
        self._noise_power: Dict[int, float] = {}
        #: Node placement ``{node_id: (x, y)}`` when the topology was
        #: built from geometry (the mesh generators set it); ``None`` for
        #: topologies with no physical placement (chain, star, figures).
        self.positions: Optional[Dict[int, Tuple[float, float]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, noise_power: float = 1e-3) -> None:
        """Register a node and its receiver noise floor."""
        if node_id < 0:
            raise TopologyError("node ids must be non-negative")
        if noise_power < 0:
            raise TopologyError("noise power must be non-negative")
        self._adjacency.setdefault(int(node_id), {})
        self._noise_power[int(node_id)] = float(noise_power)

    def add_link(
        self, source: int, destination: int, link: Link, routable: bool = True
    ) -> None:
        """Add a directed radio path from ``source`` to ``destination``.

        ``routable=False`` marks paths that exist only as incidental radio
        propagation — overhearing and cross-interference links — which the
        routing layer must not treat as usable hops.
        """
        if not isinstance(link, Link):
            raise TopologyError(
                f"link {source}->{destination} must be a Link, not {type(link).__name__}"
            )
        if source == destination:
            raise TopologyError("a node cannot have a link to itself")
        for node in (source, destination):
            if node not in self._adjacency:
                raise TopologyError(f"node {node} must be added before linking it")
        self._adjacency[int(source)][int(destination)] = (link, bool(routable))

    def add_symmetric_link(self, a: int, b: int, link: Link, reverse: Optional[Link] = None) -> None:
        """Add both directions of a path; ``reverse`` defaults to the same parameters."""
        self.add_link(a, b, link)
        self.add_link(b, a, reverse if reverse is not None else link)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[int]:
        """All node identifiers, sorted."""
        return sorted(self._adjacency)

    def edges(self) -> List[Tuple[int, int]]:
        """Every directed ``(source, destination)`` link, in insertion order.

        Sources come in :meth:`add_node` order and each source's
        destinations in :meth:`add_link` order.
        """
        return [
            (source, destination)
            for source, out in self._adjacency.items()
            for destination in out
        ]

    def has_node(self, node_id: int) -> bool:
        """Is ``node_id`` registered in this topology?"""
        return node_id in self._adjacency

    def noise_power(self, node_id: int) -> float:
        """Receiver noise floor of a node."""
        if node_id not in self._noise_power:
            raise TopologyError(f"unknown node {node_id}")
        return self._noise_power[node_id]

    def in_range(self, source: int, destination: int) -> bool:
        """Does a transmission by ``source`` reach ``destination`` at all?"""
        return destination in self._adjacency.get(source, {})

    def link(self, source: int, destination: int) -> Link:
        """The directed link parameters from ``source`` to ``destination``."""
        if not self.in_range(source, destination):
            raise TopologyError(f"no radio path from {source} to {destination}")
        return self._adjacency[source][destination][0]

    def is_routable(self, source: int, destination: int) -> bool:
        """Is the directed path from ``source`` to ``destination`` a routing hop?"""
        return self.in_range(source, destination) and self._adjacency[source][destination][1]

    def shortest_path(self, source: int, destination: int) -> List[int]:
        """Hop sequence a traditional routing protocol would use.

        Only routable links are hops; overhearing / cross-interference
        links are radio propagation.  A bidirectional breadth-first search
        whose ties fall as in networkx's ``bidirectional_shortest_path``
        over the routable links: the smaller fringe grows first (the
        forward one on a tie), a node's out-links are visited in
        :meth:`add_link` order and its in-links in the :meth:`add_node`
        order of their sources, and the search stops at the first node
        both fringes reach.
        """
        for node in (source, destination):
            if node not in self._adjacency:
                raise TopologyError(f"unknown node {node}")
        if source == destination:
            return [source]
        # previous[n]: n's parent towards the source; following[n]: n's
        # next hop towards the destination.
        previous: Dict[int, Optional[int]] = {source: None}
        following: Dict[int, Optional[int]] = {destination: None}
        forward, reverse = [source], [destination]
        meet: Optional[int] = None
        while forward and reverse and meet is None:
            if len(forward) <= len(reverse):
                forward, meet = _grow(forward, previous, following, self._hops_from)
            else:
                reverse, meet = _grow(reverse, following, previous, self._hops_into)
        if meet is None:
            raise TopologyError(f"no route from {source} to {destination}")
        path = [meet]
        while previous[path[0]] is not None:
            path.insert(0, previous[path[0]])
        while following[path[-1]] is not None:
            path.append(following[path[-1]])
        return path

    def _hops_from(self, node: int) -> Iterable[int]:
        """Routable out-neighbours of ``node``, in :meth:`add_link` order."""
        return (d for d, (_, routable) in self._adjacency[node].items() if routable)

    def _hops_into(self, node: int) -> Iterable[int]:
        """Routable in-neighbours of ``node``, in :meth:`add_node` order."""
        return (s for s, out in self._adjacency.items() if out.get(node, (None, False))[1])


def _grow(
    fringe: List[int],
    tree: Dict[int, Optional[int]],
    other: Dict[int, Optional[int]],
    hops: Callable[[int], Iterable[int]],
) -> Tuple[List[int], Optional[int]]:
    """Grow one BFS fringe by a level; also return where it met ``other``."""
    grown: List[int] = []
    for node in fringe:
        for hop in hops(node):
            if hop not in tree:
                tree[hop] = node
                grown.append(hop)
            if hop in other:
                return grown, hop
    return grown, None
