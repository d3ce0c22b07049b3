"""MAC-layer scheduling plans.

The paper compares ANC, COPE and traditional routing under an *optimal*
MAC: "the MAC employs an optimal scheduler and benefits from knowing the
traffic pattern and the topology.  Thus, the MAC never encounters
collisions or backoffs" (§11.1).  This package provides the planner that
turns a topology into those collision-free slot plans — the relay
exchange, the chain pipeline and the mesh exchanges — which the protocol
implementations execute.
"""

from repro.mac.planner import (
    ChainPipelinePlan,
    MeshSchedule,
    PhaseTemplate,
    RelayExchangePlan,
    plan_chain_pipeline,
    plan_mesh_exchanges,
    plan_relay_exchange,
)

__all__ = [
    "ChainPipelinePlan",
    "MeshSchedule",
    "PhaseTemplate",
    "RelayExchangePlan",
    "plan_chain_pipeline",
    "plan_mesh_exchanges",
    "plan_relay_exchange",
]
