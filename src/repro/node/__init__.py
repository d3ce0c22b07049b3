"""The wireless node.

A :class:`Node` owns the full transmit and receive chains of Fig. 8 — the
shared framing/modulation memo, the sent-packet buffer and the ANC receive
pipeline — and is the unit the protocols and the traffic simulation
schedule.  A relay is a plain node: its amplify-and-forward rebroadcast
(§7.5) is :func:`repro.channel.relay.amplify_and_forward`, called by the
scheme that relays.
"""

from repro.node.node import Node, NodeConfig

__all__ = [
    "Node",
    "NodeConfig",
]
