"""Topology: nodes, radio ranges and per-link channel parameters.

A topology is a directed graph whose edges carry the
:class:`~repro.channel.link.Link` parameters (attenuation, phase offset,
carrier-frequency offset, propagation delay) of each radio path, plus a
per-node receiver noise power.  Only node pairs connected by an edge hear
each other at all — exactly the "radio range" notion the paper's canonical
topologies rely on (e.g. Alice and Bob are *not* connected, N1 and N4 in
the chain are not connected).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.channel.link import Link
from repro.exceptions import TopologyError


class Topology:
    """A set of nodes and the directed radio links between them."""

    def __init__(self) -> None:
        """Create an empty topology (no nodes, no links)."""
        self._graph = nx.DiGraph()
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
        self._graph.add_node(int(node_id))
        self._noise_power[int(node_id)] = float(noise_power)

    def add_link(
        self, source: int, destination: int, link: Link, routable: bool = True
    ) -> None:
        """Add a directed radio path from ``source`` to ``destination``.

        ``routable=False`` marks paths that exist only as incidental radio
        propagation — overhearing and cross-interference links — which the
        routing layer must not treat as usable hops.
        """
        if source == destination:
            raise TopologyError("a node cannot have a link to itself")
        for node in (source, destination):
            if node not in self._graph:
                raise TopologyError(f"node {node} must be added before linking it")
        self._graph.add_edge(int(source), int(destination), link=link, routable=bool(routable))

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
        return sorted(self._graph.nodes)

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying directed graph (read-only use expected)."""
        return self._graph

    def has_node(self, node_id: int) -> bool:
        """Is ``node_id`` registered in this topology?"""
        return node_id in self._graph

    def noise_power(self, node_id: int) -> float:
        """Receiver noise floor of a node."""
        if node_id not in self._noise_power:
            raise TopologyError(f"unknown node {node_id}")
        return self._noise_power[node_id]

    def in_range(self, source: int, destination: int) -> bool:
        """Does a transmission by ``source`` reach ``destination`` at all?"""
        return self._graph.has_edge(source, destination)

    def link(self, source: int, destination: int) -> Link:
        """The directed link parameters from ``source`` to ``destination``."""
        if not self.in_range(source, destination):
            raise TopologyError(f"no radio path from {source} to {destination}")
        return self._graph.edges[source, destination]["link"]

    def neighbors(self, node_id: int) -> List[int]:
        """Nodes that can hear ``node_id`` (out-neighbours), sorted."""
        if node_id not in self._graph:
            raise TopologyError(f"unknown node {node_id}")
        return sorted(self._graph.successors(node_id))

    def is_routable(self, source: int, destination: int) -> bool:
        """Is the directed path from ``source`` to ``destination`` a routing hop?"""
        if not self.in_range(source, destination):
            return False
        return bool(self._graph.edges[source, destination].get("routable", True))

    def routable_graph(self) -> nx.DiGraph:
        """Subgraph containing only the links routing is allowed to use."""
        routable = nx.DiGraph()
        routable.add_nodes_from(self._graph.nodes)
        for source, destination, data in self._graph.edges(data=True):
            if data.get("routable", True):
                routable.add_edge(source, destination, **data)
        return routable

    def shortest_path(self, source: int, destination: int) -> List[int]:
        """Hop sequence a traditional routing protocol would use.

        Only routable links are considered; overhearing / cross-interference
        links are radio propagation, not usable hops.
        """
        try:
            return nx.shortest_path(self.routable_graph(), source, destination)
        except nx.NetworkXNoPath as exc:
            raise TopologyError(f"no route from {source} to {destination}") from exc

    def validate(self) -> None:
        """Sanity-check that every edge carries a Link and nodes have noise floors."""
        for source, destination, data in self._graph.edges(data=True):
            if "link" not in data or not isinstance(data["link"], Link):
                raise TopologyError(f"edge {source}->{destination} is missing its Link")
        for node in self._graph.nodes:
            if node not in self._noise_power:
                raise TopologyError(f"node {node} has no noise power configured")

    def __contains__(self, node_id: int) -> bool:
        """Alias of :meth:`has_node`."""
        return self.has_node(node_id)

    def __len__(self) -> int:
        """Number of nodes in the topology."""
        return self._graph.number_of_nodes()
