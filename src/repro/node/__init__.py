"""Node abstractions: endpoints, relays and routers.

A :class:`Node` owns the full transmit and receive chains of Fig. 8 — the
framer, modulator, sent-packet buffer and the ANC receive pipeline — and is
the unit the network simulator schedules.  :class:`RelayNode` adds the
amplify-and-forward behaviour of the Alice–Bob / "X" router, and
:class:`RouterNode` adds the decode-vs-amplify-vs-drop decision logic of
§7.5.
"""

from repro.node.node import Node, NodeConfig
from repro.node.relay import RelayNode
from repro.node.router import RouterAction, RouterDecision, RouterNode

__all__ = [
    "Node",
    "NodeConfig",
    "RelayNode",
    "RouterAction",
    "RouterDecision",
    "RouterNode",
]
