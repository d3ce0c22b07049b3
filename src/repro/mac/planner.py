"""ANC-aware schedule planning for arbitrary topologies and flow sets.

The paper's evaluation runs on an *optimal* MAC (§11.1): the scheduler
knows the topology and the traffic and arranges transmissions so that the
only collisions are the ones analog network coding wants.  The seed
reproduction hand-coded that schedule separately inside each figure
runner; this module computes it from first principles so any
topology/flow combination produced by :mod:`repro.network.generator` gets
the same treatment.

Three planners cover the workload shapes the scenario subsystem ships:

* :func:`plan_chain_pipeline` — a single flow along a K-hop chain.  With
  ``coding="anc"`` transmitters are spaced *two* positions apart, so every
  interior receiver deliberately hears the collision of its predecessor's
  new packet and its successor's forwarded packet — which it can decode
  because it forwarded the interfering packet itself one phase earlier
  (§2b generalized to any K).  With ``coding="plain"`` transmitters are
  spaced *three* apart: the closest spacing that is collision-free under
  the chain's radio ranges, i.e. classic spatial-reuse pipelining.
* :func:`plan_relay_exchange` — two flows crossing at a shared relay (the
  Alice–Bob / "X" shape): which node relays, who listens to the uplink,
  and how each destination gets the side information it cancels — from
  the reverse flow (§2a) or by overhearing (§11.5).  The relay and the
  side information are derived from the topology, so a figure, a sweep
  and the mesh scheduler all get the same plan for the same flows.  COPE
  and ANC both run that one plan.
* :func:`plan_mesh_exchanges` — a whole flow set over an arbitrary mesh:
  greedily pairs flows that cross at a shared relay with side information
  available into ANC exchanges and leaves the rest to plain routing.

The plans are *structure*, not executed schedules: they name which
positions may transmit in which phase, who must listen, and which
receivers are deliberate-collision receivers.  The signal-level executors
in :mod:`repro.protocols` turn them into actual slots; the relay of an
exchange is a plain :class:`~repro.node.node.Node`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, TopologyError
from repro.network.flows import Flow
from repro.network.topology import Topology

#: Transmitter spacing (in chain positions) per coding discipline: ANC
#: tolerates deliberate collisions two hops apart; plain routing (and
#: digital coding, which finds no XOR opportunity on a one-way chain)
#: needs three to stay collision-free.
CHAIN_STRIDES: Dict[str, int] = {"anc": 2, "plain": 3}


@dataclass(frozen=True)
class PhaseTemplate:
    """One phase of a pipelined chain schedule.

    Attributes
    ----------
    transmit_positions:
        1-based positions along the path that are *allowed* to transmit in
        this phase (a position only actually transmits when it holds a
        packet, or is the source with packets left to inject).
    listen_positions:
        Positions whose predecessor may transmit — the MAC tells exactly
        these nodes to listen, whether or not their predecessor ends up
        transmitting this round.
    collision_positions:
        The subset of listeners whose *successor* may also transmit: these
        receivers deliberately capture a two-packet collision and decode
        it with ANC (the interfering packet is the one they forwarded a
        phase earlier).
    """

    transmit_positions: Tuple[int, ...]
    listen_positions: Tuple[int, ...]
    collision_positions: Tuple[int, ...]


@dataclass(frozen=True)
class ChainPipelinePlan:
    """The optimal-MAC schedule for one flow pipelined down a chain.

    Attributes
    ----------
    path:
        Node ids along the route, source first.
    stride:
        Spacing between simultaneously transmitting positions (2 for ANC,
        3 for collision-free plain routing).
    phases:
        The repeating phase cycle, ordered so a packet injected by the
        source advances one hop per cycle position.
    """

    path: Tuple[int, ...]
    stride: int
    phases: Tuple[PhaseTemplate, ...]

    @property
    def has_deliberate_collisions(self) -> bool:
        """True when any phase schedules a deliberate collision (ANC)."""
        return any(phase.collision_positions for phase in self.phases)

    def node_at(self, position: int) -> int:
        """Node id occupying a 1-based chain position."""
        return self.path[position - 1]


def plan_chain_pipeline(
    topology: Topology,
    path: Sequence[int],
    coding: str = "anc",
) -> ChainPipelinePlan:
    """Compute the pipelined optimal-MAC schedule for one chain flow.

    Parameters
    ----------
    topology:
        The network; every consecutive path pair must be a routable link.
    path:
        Node ids from source to destination (at least 3 nodes / 2 hops).
    coding:
        ``"anc"`` for the stride-2 schedule with deliberate collisions,
        ``"plain"`` for the stride-3 collision-free spatial-reuse
        schedule (also what COPE-style digital coding degenerates to on a
        unidirectional flow, where it has nothing to XOR).

    Returns
    -------
    ChainPipelinePlan
        The repeating phase cycle; phase ``i`` of the cycle lets
        positions congruent to ``(2 + i) mod stride`` transmit, so the
        cycle starts with the position right after the source's first
        hand-off and flows forward.
    """
    if coding not in CHAIN_STRIDES:
        raise ConfigurationError(
            f"unknown chain coding {coding!r}; choose from {', '.join(CHAIN_STRIDES)}"
        )
    nodes = tuple(int(p) for p in path)
    if len(nodes) < 3:
        raise ConfigurationError("a pipelined chain needs at least 2 hops (3 nodes)")
    if len(set(nodes)) != len(nodes):
        raise ConfigurationError("a chain path cannot revisit a node")
    for a, b in zip(nodes[:-1], nodes[1:]):
        if not topology.is_routable(a, b):
            raise TopologyError(f"path hop {a}->{b} is not a routable link")

    stride = CHAIN_STRIDES[coding]
    length = len(nodes)
    phases: List[PhaseTemplate] = []
    for cycle_index in range(stride):
        residue = (2 + cycle_index) % stride
        transmit = tuple(
            pos for pos in range(1, length) if pos % stride == residue
        )
        if not transmit:
            continue
        listen = tuple(pos for pos in range(2, length + 1) if pos - 1 in transmit)
        collisions = tuple(pos for pos in listen if pos + 1 in transmit)
        phases.append(
            PhaseTemplate(
                transmit_positions=transmit,
                listen_positions=listen,
                collision_positions=collisions,
            )
        )
    return ChainPipelinePlan(path=nodes, stride=stride, phases=tuple(phases))


@dataclass(frozen=True)
class RelayExchangePlan:
    """The schedule of two flows crossing at a shared relay.

    ANC runs it as one collision slot and one broadcast slot; COPE runs
    the same plan as two clean uplink slots and one coded broadcast.

    Attributes
    ----------
    relay:
        The shared relay node that forwards both flows' packets.
    flow_a / flow_b:
        The two crossing flows (equal packet counts).
    uplink_receivers:
        Who listens to the uplink: always the relay, then each destination
        that must overhear its side information.
    downlink_receivers:
        Who listens to the relay's broadcast.
    side_info:
        How each destination learns the packet it cancels: ``"reverse"``
        when it sent that packet itself (Alice–Bob), ``"overhear"`` when it
        hears the paired sender's uplink (the "X").
    """

    relay: int
    flow_a: Flow
    flow_b: Flow
    uplink_receivers: Tuple[int, ...]
    downlink_receivers: Tuple[int, int]
    side_info: Dict[int, str]


def _side_info_mode(
    topology: Topology, paired_source: int, destination: int
) -> Optional[str]:
    """How ``destination`` can learn the packet sent by ``paired_source``."""
    if destination == paired_source:
        return "reverse"
    if topology.in_range(paired_source, destination):
        return "overhear"
    return None


def plan_relay_exchange(
    topology: Topology, flow_a: Flow, flow_b: Flow
) -> RelayExchangePlan:
    """Plan the exchange of two flows crossing at a relay.

    The relay is the lowest-numbered middle node that both flows'
    shortest routable paths share; each flow must be two routable hops
    through it.  A destination that sent the paired packet itself uses it
    as side information (``"reverse"``); otherwise it must be in radio
    range of the paired sender to overhear it (``"overhear"``).

    Raises
    ------
    ConfigurationError
        If the flows do not cross at a relay, or a destination has no
        way to obtain the side information it would need to decode.
    """
    if flow_a.packets != flow_b.packets:
        raise ConfigurationError(
            "ANC pairing requires both flows to carry the same packet count"
        )
    if flow_a.source == flow_b.source:
        raise ConfigurationError("crossing flows need distinct sources")
    if flow_a.destination == flow_b.destination:
        raise ConfigurationError("crossing flows need distinct destinations")

    middles_a = set(topology.shortest_path(flow_a.source, flow_a.destination)[1:-1])
    middles_b = set(topology.shortest_path(flow_b.source, flow_b.destination)[1:-1])
    shared = sorted(middles_a & middles_b)
    if not shared:
        raise ConfigurationError("flows do not share a relay node")
    relay = int(shared[0])
    for flow in (flow_a, flow_b):
        if not topology.is_routable(flow.source, relay) or not topology.is_routable(
            relay, flow.destination
        ):
            raise ConfigurationError(
                f"flow {flow.source}->{flow.destination} does not cross relay {relay}"
            )

    side_info: Dict[int, str] = {}
    for destination, paired_source in (
        (flow_a.destination, flow_b.source),
        (flow_b.destination, flow_a.source),
    ):
        mode = _side_info_mode(topology, paired_source, destination)
        if mode is None:
            raise ConfigurationError(
                f"destination {destination} has no side information for the "
                f"packet sent by {paired_source}"
            )
        side_info[destination] = mode

    overhearers = tuple(d for d, mode in side_info.items() if mode == "overhear")
    return RelayExchangePlan(
        relay=relay,
        flow_a=flow_a,
        flow_b=flow_b,
        uplink_receivers=(relay,) + overhearers,
        downlink_receivers=(flow_a.destination, flow_b.destination),
        side_info=side_info,
    )


@dataclass(frozen=True)
class MeshSchedule:
    """Partition of a mesh flow set into ANC exchanges and routed leftovers.

    Attributes
    ----------
    exchanges:
        Relay-exchange plans for the flow pairs the scheduler matched.
    routed:
        Flows with no ANC opportunity; they run over plain routing.
    """

    exchanges: Tuple[RelayExchangePlan, ...]
    routed: Tuple[Flow, ...]

    @property
    def paired_flows(self) -> int:
        """Number of flows scheduled into ANC exchanges."""
        return 2 * len(self.exchanges)


def plan_mesh_exchanges(topology: Topology, flows: Sequence[Flow]) -> MeshSchedule:
    """Greedily pair mesh flows into ANC relay exchanges.

    Two flows qualify as a pair when they cross at a shared relay (both
    are 2-hop flows whose shortest routable paths share a middle node),
    their four endpoint roles do not conflict with half-duplex operation,
    and *both* destinations can obtain their side information the same way
    (both "reverse" or both "overhear").  Pairing is greedy in flow order,
    so the result is deterministic for a given flow list.  The schemes run
    each exchange plan as it is.
    """
    remaining = list(flows)
    exchanges: List[RelayExchangePlan] = []
    index_a = 0
    while index_a < len(remaining):
        flow_a = remaining[index_a]
        matched = None
        for index_b in range(index_a + 1, len(remaining)):
            flow_b = remaining[index_b]
            try:
                plan = plan_relay_exchange(topology, flow_a, flow_b)
            except (ConfigurationError, TopologyError):
                continue
            modes = set(plan.side_info.values())
            if len(modes) != 1:
                continue
            matched = (index_b, plan)
            break
        if matched is None:
            index_a += 1
            continue
        index_b, plan = matched
        exchanges.append(plan)
        del remaining[index_b]
        del remaining[index_a]
    return MeshSchedule(exchanges=tuple(exchanges), routed=tuple(remaining))
