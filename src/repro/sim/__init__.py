"""Discrete-event traffic simulation (§8-style offered-load runs).

This package turns the repository's per-exchange protocol models into a
time-domain system: seeded event scheduling (:mod:`repro.sim.core`),
traffic sources (:mod:`repro.sim.traffic`), bounded FIFO queues
(:mod:`repro.sim.queueing`), the CSMA/BEB and TDMA MAC policies
(:mod:`repro.sim.mac`), SINR-segment reception sessions and the
collision rule (:mod:`repro.sim.reception`) and the one Alice–relay–Bob simulation that
ties them together (:mod:`repro.sim.simulation`).  Its only production
caller is :func:`repro.experiments.offered_load.simulate_schemes`, behind
the ``offered_load_sweep`` and ``queueing_delay`` scenarios.
"""

from repro.sim.core import Event, EventScheduler, RngStreams
from repro.sim.mac import MAC_POLICIES, CsmaBackoffMac, CsmaState, ScheduledMac
from repro.sim.queueing import PacketQueue, QueuedPacket
from repro.sim.reception import (
    DecodeService,
    ReceptionKind,
    ReceptionSession,
    classify_reception,
)
from repro.sim.simulation import SCHEMES, SimParams, SimReport, TrafficSimulation
from repro.sim.traffic import (
    ArrivalProcess,
    BurstyOnOffArrivals,
    CBRArrivals,
    PoissonArrivals,
    TRAFFIC_MODELS,
    make_arrival_process,
)

__all__ = [
    "ArrivalProcess",
    "BurstyOnOffArrivals",
    "CBRArrivals",
    "CsmaBackoffMac",
    "CsmaState",
    "DecodeService",
    "Event",
    "EventScheduler",
    "MAC_POLICIES",
    "PacketQueue",
    "PoissonArrivals",
    "QueuedPacket",
    "ReceptionKind",
    "ReceptionSession",
    "RngStreams",
    "SCHEMES",
    "ScheduledMac",
    "SimParams",
    "SimReport",
    "TRAFFIC_MODELS",
    "TrafficSimulation",
    "classify_reception",
    "make_arrival_process",
]
