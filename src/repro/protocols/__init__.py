"""Protocols under comparison (§11.1).

Three forwarding schemes run over the same topologies, nodes, medium and
optimal MAC, so that throughput differences are intrinsic to the schemes:

* :class:`~repro.protocols.traditional.TraditionalRouting` — store-and-
  forward routing, one transmission per slot ("No Coding" in the paper).
* :class:`~repro.protocols.cope.CopeRelayProtocol` — digital network
  coding: the relay XORs the two packets it holds and broadcasts the XOR
  (the COPE baseline of [17]).
* :class:`~repro.protocols.anc.ANCRelayProtocol` — analog network
  coding through a relay: deliberately concurrent transmissions and
  amplify-and-forward relaying (Alice–Bob, "X").
* :class:`~repro.protocols.scheduled.ChainPipelineProtocol` — the MAC
  planner's pipelined chain schedules for *any* hop count: the stride-2
  ANC discipline with deliberate collisions decoded in place (the chain
  of Fig. 12), or the stride-3 collision-free spatial-reuse discipline
  that plain routing and digital coding fall back to on a one-way chain.

COPE and ANC run the same :class:`~repro.mac.planner.RelayExchangePlan`,
and every scheme builds one plain :class:`~repro.node.node.Node` per
topology node (a relay is one of them).  The experiments build these
through :mod:`repro.experiments.testbed`, which fixes every scheme's
parameters and random stream.
"""

from repro.protocols.base import ProtocolRun, RunResult
from repro.protocols.traditional import TraditionalRouting
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.anc import ANCRelayProtocol
from repro.protocols.scheduled import ChainPipelineProtocol

__all__ = [
    "ANCRelayProtocol",
    "ChainPipelineProtocol",
    "CopeRelayProtocol",
    "ProtocolRun",
    "RunResult",
    "TraditionalRouting",
]
