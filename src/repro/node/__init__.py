"""Node abstractions: endpoints and relays.

A :class:`Node` owns the full transmit and receive chains of Fig. 8 — the
framer, modulator, sent-packet buffer and the ANC receive pipeline — and is
the unit the network simulator schedules.  :class:`RelayNode` adds the
amplify-and-forward behaviour of the Alice–Bob / "X" router (§7.5).
"""

from repro.node.node import Node, NodeConfig
from repro.node.relay import RelayNode

__all__ = [
    "Node",
    "NodeConfig",
    "RelayNode",
]
