"""The event-driven Alice–relay–Bob traffic simulation (§8-style load runs).

This module ties the :mod:`repro.sim` pieces together into one
:class:`TrafficSimulation`: Poisson/CBR/bursty arrivals feed per-endpoint
FIFO queues, a MAC (CSMA with binary exponential backoff, or the
planner-style TDMA grid) grants channel access, each receiver classifies
what it hears with the SINR-segment rules of :mod:`repro.sim.reception`,
and every frame a receiver is meant to get is decoded by the *existing*
PHY — aligned MSK demodulation for clean frames, the node's full
:class:`~repro.anc.pipeline.ReceivePipeline` for relayed ANC collisions.

Three relaying schemes compete on the same arrival sample paths:

* ``traditional`` — store-and-forward routing: every packet costs an
  endpoint→relay transmission plus a relay→endpoint transmission, and
  the hidden-terminal geometry (Alice and Bob cannot hear each other)
  makes uplink collisions at the relay increasingly likely with load;
* ``cope`` — the relay XORs one head-of-line packet per direction into a
  single coded broadcast (3 transmissions per 2 packets), falling back
  to plain forwarding when only one direction has patient traffic;
* ``anc`` — when both directions have traffic and the channel is idle,
  the endpoints are triggered to transmit *concurrently* with the §7.2
  partial-overlap offsets; the relay amplifies the collision and
  broadcasts it, and each endpoint cancels its own frame to decode the
  other's (2 transmissions per 2 packets).

Every frame has its *consumers* (:meth:`TrafficSimulation._consumers`):
the relay for an endpoint's frame, the destination for a relay forward,
and each endpoint a coded broadcast carries a packet to.  A consumer that
decodes, loses or never hears a frame is charged exactly once for it.

At low offered load all three deliver whatever arrives; past their
saturation points they diverge — the goodput ordering
``anc > cope > traditional`` at high load is the paper's §8 qualitative
result, reproduced by the ``offered_load_sweep`` scenario.

Everything is deterministic given the entropy passed in: arrivals,
payloads, backoffs and noise all come from named
:class:`~repro.sim.core.RngStreams`, and the event order is captured in
the scheduler's trace digest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.channel.interference import OverlapModel, superpose
from repro.channel.relay import amplify_and_forward
from repro.constants import DEFAULT_TX_AMPLITUDE
from repro.exceptions import ConfigurationError
from repro.framing.packet import Packet
from repro.network.topologies import ALICE, BOB, RELAY, ChannelConditions, alice_bob_topology
from repro.network.topology import Topology
from repro.node.node import Node, NodeConfig
from repro.protocols.anc import default_min_offset
from repro.signal.samples import ComplexSignal
from repro.sim.core import EventScheduler, RngStreams
from repro.sim.mac import MAC_POLICIES, CsmaBackoffMac, CsmaState, ScheduledMac
from repro.sim.queueing import PacketQueue
from repro.sim.reception import DecodeService, ReceptionSession, classify_reception
from repro.sim.traffic import TRAFFIC_MODELS, make_arrival_process
from repro.utils.bits import decoded_ber

__all__ = ["SCHEMES", "SimParams", "SimReport", "TrafficSimulation"]

#: The relaying schemes the traffic simulation can run.
SCHEMES: Tuple[str, ...] = ("anc", "cope", "traditional")

#: Per-endpoint queue capacity in packets (tail drop beyond it).
QUEUE_CAPACITY = 8

#: How long (frame-times) a lone head-of-line packet waits for a coding
#: partner (COPE) or a reverse-direction packet (ANC) before it is plainly
#: forwarded.
PATIENCE_FRAMES = 3.0

#: Guard time (samples) appended to every TDMA slot.
GUARD_SAMPLES = 64

#: Broadcast destination id used by COPE-coded relay frames.
_BROADCAST = 255

#: Relay broadcasts that carry one packet per endpoint (their ``truths``).
_CODED = ("anc_broadcast", "cope_coded")

#: Tolerance (samples) for comparing event times against deadlines.
#: ``schedule_at`` round-trips absolute times through a relative delay,
#: so a wake-up can fire a few ulps before its nominal deadline; without
#: the epsilon an exact ``age >= patience`` test could reschedule the
#: same instant forever.
_TIME_EPS = 1e-6


@dataclass(frozen=True)
class SimParams:
    """Knobs of one traffic-simulation run.

    Attributes
    ----------
    scheme:
        Relaying scheme (:data:`SCHEMES`).
    mac_policy:
        ``"csma"`` (contention + BEB) or ``"scheduled"`` (TDMA grid) —
        :data:`repro.sim.mac.MAC_POLICIES`.
    traffic_model:
        Arrival process family (:data:`repro.sim.traffic.TRAFFIC_MODELS`).
    arrival_rate:
        Total offered load, in packets per frame-time summed over both
        directions (each endpoint generates half).
    sim_duration_frames:
        Simulated horizon in frame-times.
    payload_bits:
        Packet payload size (fixed MTU).
    ber_acceptance:
        Residual BER the per-scheme FEC is assumed to repair.
    redundancy_overhead:
        Redundancy charged against the scheme's goodput.
    mean_overlap, overlap_jitter:
        §7.2 deliberate-overlap geometry for the ANC exchanges.
    """

    scheme: str = "anc"
    mac_policy: str = "csma"
    traffic_model: str = "poisson"
    arrival_rate: float = 0.6
    sim_duration_frames: float = 48.0
    payload_bits: int = 512
    ber_acceptance: float = 0.05
    redundancy_overhead: float = 0.0
    mean_overlap: float = 0.85
    overlap_jitter: float = 0.05

    def __post_init__(self) -> None:
        """Validate every knob against its registry / admissible range."""
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; choose from {', '.join(SCHEMES)}"
            )
        if self.mac_policy not in MAC_POLICIES:
            raise ConfigurationError(
                f"unknown mac policy {self.mac_policy!r}; choose from {', '.join(MAC_POLICIES)}"
            )
        if self.traffic_model not in TRAFFIC_MODELS:
            raise ConfigurationError(
                f"unknown traffic model {self.traffic_model!r}; choose from "
                f"{', '.join(TRAFFIC_MODELS)}"
            )
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if self.sim_duration_frames <= 0:
            raise ConfigurationError("sim_duration_frames must be positive")
        if self.payload_bits <= 0 or self.payload_bits % 8 != 0:
            raise ConfigurationError("payload_bits must be a positive multiple of 8")
        if not 0.0 < self.mean_overlap <= 1.0:
            raise ConfigurationError("mean_overlap must lie in (0, 1]")


@dataclass
class SimReport:
    """Aggregated outcome of one traffic-simulation run."""

    params: SimParams
    duration_samples: float
    frame_samples: int
    offered: int = 0
    delivered: int = 0
    delivered_bits: int = 0
    queue_drops: int = 0
    retry_drops: int = 0
    losses: int = 0
    transmissions: int = 0
    events: int = 0
    delays: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    bers: List[float] = field(default_factory=list)
    trace_digest: str = ""

    def metrics(self) -> Dict[str, float]:
        """Flatten the run into the plain floats a scenario trial returns.

        ``throughput`` is goodput — delivered payload bits net of the
        scheme's redundancy overhead, per sample of simulated time.
        Delay statistics are in frame-time units.
        """
        frame = float(self.frame_samples)
        delays = [d / frame for d in self.delays]
        waits = [w / frame for w in self.queue_waits]
        goodput = (
            self.delivered_bits
            / (1.0 + self.params.redundancy_overhead)
            / self.duration_samples
        )
        dropped = self.queue_drops + self.retry_drops + self.losses
        return {
            "throughput": float(goodput),
            "delivered": float(self.delivered),
            "offered": float(self.offered),
            "mean_ber": float(np.mean(self.bers)) if self.bers else 0.0,
            "drop_rate": float(dropped / self.offered) if self.offered else 0.0,
            "delay_mean": float(np.mean(delays)) if delays else 0.0,
            "delay_p95": float(np.percentile(delays, 95)) if delays else 0.0,
            "queue_wait_mean": float(np.mean(waits)) if waits else 0.0,
            "slots": float(self.transmissions),
        }


@dataclass
class _Tx:
    """One in-flight transmission on the shared medium."""

    tx_id: int
    sender: int
    waveform: Any
    start: float
    end: float
    kind: str
    meta: Dict[str, Any]


class TrafficSimulation:
    """One seeded, deterministic Alice–relay–Bob traffic run.

    Parameters
    ----------
    params:
        The run's knobs.
    entropy:
        Integer seed material for the :class:`RngStreams`; two runs with
        equal params and entropy are bit-identical (equal metrics *and*
        equal event-trace digests) wherever they execute.
    conditions:
        Channel conditions for the topology draw (defaults to the
        standard operating point).
    """

    def __init__(
        self,
        params: SimParams,
        entropy: Sequence[int],
        conditions: Optional[ChannelConditions] = None,
    ) -> None:
        """Build nodes, queues, MAC and traffic state for one run."""
        self.params = params
        self.streams = RngStreams(entropy)
        self.conditions = conditions if conditions is not None else ChannelConditions()
        self.topology: Topology = alice_bob_topology(
            self.conditions, self.streams.stream("topology")
        )
        self.nodes: Dict[int, Node] = {
            node_id: Node(
                node_id,
                NodeConfig(
                    payload_bits=params.payload_bits,
                    noise_power=self.topology.noise_power(node_id),
                ),
            )
            for node_id in self.topology.nodes
        }
        self.frame_samples = self.nodes[ALICE].frame_samples
        self.duration_samples = params.sim_duration_frames * self.frame_samples
        self.sched = EventScheduler()
        self.decoder = DecodeService()
        self.report = SimReport(
            params=params,
            duration_samples=self.duration_samples,
            frame_samples=self.frame_samples,
        )

        # Traffic: each endpoint generates half the configured load.
        per_endpoint_interarrival = 2.0 * self.frame_samples / params.arrival_rate
        self._arrivals = {
            endpoint: make_arrival_process(params.traffic_model, per_endpoint_interarrival)
            for endpoint in (ALICE, BOB)
        }
        self.queues = {
            endpoint: PacketQueue(capacity=QUEUE_CAPACITY) for endpoint in (ALICE, BOB)
        }
        #: Relay store-and-forward buffer: dicts with packet/arrival/dst.
        self._relay_buffer: Deque[Dict[str, Any]] = deque()
        #: Relay ANC broadcast jobs, ahead of any plain forwards.
        self._relay_broadcasts: Deque[Dict[str, Any]] = deque()

        # MAC state.
        self.mac = CsmaBackoffMac()
        self._csma: Dict[int, CsmaState] = {
            node_id: self.mac.fresh_state() for node_id in self.topology.nodes
        }
        self._pending_access: Dict[int, bool] = {
            node_id: False for node_id in self.topology.nodes
        }
        #: Head-of-line unit per node: the frame currently being contended
        #: for / retransmitted (endpoints: packet dicts; relay: jobs).
        self._hol: Dict[int, Optional[Dict[str, Any]]] = {
            node_id: None for node_id in self.topology.nodes
        }
        self._patience_events: Dict[int, Any] = {}
        self._relay_recheck: Any = None
        self._scheduled: Optional[ScheduledMac] = None
        if params.mac_policy == "scheduled":
            self._scheduled = self._build_slot_grid()

        # Medium state.
        self._active: List[_Tx] = []
        self._group: List[_Tx] = []
        self._tx_counter = 0
        self._anc_active = False

        self.overlap_model = OverlapModel(
            mean_overlap=params.mean_overlap,
            jitter=params.overlap_jitter,
            min_offset=default_min_offset(),
            rng=self.streams.stream("overlap"),
        )
        self._patience_samples = PATIENCE_FRAMES * self.frame_samples

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _build_slot_grid(self) -> ScheduledMac:
        """Size the TDMA grid for the scheme (ANC slots fit the overlap)."""
        if self.params.scheme == "anc":
            max_offset = int(
                np.ceil(
                    (1.0 - self.params.mean_overlap + self.params.overlap_jitter)
                    * self.frame_samples
                )
            )
            max_offset = max(max_offset, default_min_offset())
            return ScheduledMac(
                slot_samples=self.frame_samples + max_offset + GUARD_SAMPLES, n_ranks=2
            )
        return ScheduledMac(slot_samples=self.frame_samples + GUARD_SAMPLES, n_ranks=3)

    @staticmethod
    def _other_endpoint(endpoint: int) -> int:
        """The opposite endpoint of the bidirectional flow."""
        return BOB if endpoint == ALICE else ALICE

    # ------------------------------------------------------------------
    # Run loop and arrivals
    # ------------------------------------------------------------------
    def run(self) -> SimReport:
        """Execute the run and return its aggregated report."""
        for endpoint in (ALICE, BOB):
            self._schedule_arrival(endpoint)
        if self._scheduled is not None:
            self.sched.schedule_at(0.0, self._on_slot, kind="slot", priority=-1)
        self.report.events = self.sched.run_until(self.duration_samples)
        self.report.trace_digest = self.sched.trace_digest()
        return self.report

    def _schedule_arrival(self, endpoint: int) -> None:
        """Draw the endpoint's next interarrival time and schedule that arrival."""
        delay = self._arrivals[endpoint].next_interarrival(
            self.streams.stream(endpoint, "arrivals")
        )
        self.sched.schedule(
            delay, lambda e=endpoint: self._on_arrival(e), kind=f"arrival@{endpoint}"
        )

    def _on_arrival(self, endpoint: int) -> None:
        """One packet arrives at an endpoint; schedule the next arrival."""
        packet = self.nodes[endpoint].make_packet(
            self._other_endpoint(endpoint),
            rng=self.streams.stream(endpoint, "payload"),
        )
        self.report.offered += 1
        accepted = self.queues[endpoint].offer(packet, self.sched.now)
        if not accepted:
            self.report.queue_drops += 1
        self._schedule_arrival(endpoint)
        if accepted and self._scheduled is None:
            self._kick_endpoint(endpoint)
            if self.params.scheme == "anc":
                self._kick_endpoint(self._other_endpoint(endpoint))

    def _pop_head(self, endpoint: int) -> Dict[str, Any]:
        """Dequeue the endpoint's head of line and record its queueing wait."""
        entry = self.queues[endpoint].pop()
        self.report.queue_waits.append(self.sched.now - entry.arrival_time)
        return {
            "packet": entry.packet,
            "arrival": entry.arrival_time,
            "dst": self._other_endpoint(endpoint),
        }

    def _send_data(self, node_id: int, unit: Dict[str, Any]) -> None:
        """Put one packet on the air as a data frame toward its next hop."""
        waveform = self.nodes[node_id].transmit(unit["packet"])
        self._begin_tx(node_id, waveform, kind="data", meta=dict(unit, origin=node_id))

    # ------------------------------------------------------------------
    # CSMA access: ``_kick_all`` and ``_on_arrival`` check the policy, so
    # every kick, patience wake-up and access event below runs under CSMA
    # ------------------------------------------------------------------
    def _heard(self, node_id: int) -> List[_Tx]:
        """The transmissions on the air that this node hears (its own included)."""
        return [
            tx
            for tx in self._active
            if tx.sender == node_id or self.topology.in_range(tx.sender, node_id)
        ]

    def _kick_all(self) -> None:
        """Re-evaluate every node's send opportunity (after a resolution)."""
        if self._scheduled is not None:
            return
        for endpoint in (ALICE, BOB):
            self._kick_endpoint(endpoint)
        self._kick_relay()

    def _kick_endpoint(self, endpoint: int) -> None:
        """Endpoint send decision (scheme-aware)."""
        if self._hol[endpoint] is not None or self._pending_access[endpoint]:
            return
        queue = self.queues[endpoint]
        if queue.is_empty:
            return
        if self.params.scheme == "anc":
            if not self.queues[self._other_endpoint(endpoint)].is_empty:
                self._maybe_anc_exchange()
                return
            head = queue.peek()
            age = self.sched.now - head.arrival_time
            if age < self._patience_samples - _TIME_EPS:
                self._schedule_patience(endpoint, head.arrival_time)
                return
        self._hol[endpoint] = self._pop_head(endpoint)
        self._request_access(endpoint)

    def _schedule_patience(self, endpoint: int, arrival_time: float) -> None:
        """Wake the endpoint when its lone head-of-line packet turns patient."""
        if endpoint in self._patience_events:
            return
        wake_at = arrival_time + self._patience_samples + 1.0
        self._patience_events[endpoint] = self.sched.schedule_at(
            max(wake_at, self.sched.now),
            lambda e=endpoint: self._on_patience(e),
            kind=f"patience@{endpoint}",
        )

    def _on_patience(self, endpoint: int) -> None:
        """The patience horizon passed; retry the endpoint send decision."""
        self._patience_events.pop(endpoint, None)
        self._kick_endpoint(endpoint)

    def _request_access(self, node_id: int, wait: float = 0.0) -> None:
        """Begin a DIFS + backoff countdown toward channel access after ``wait``."""
        self._pending_access[node_id] = True
        delay = wait + self.mac.access_delay(
            self._csma[node_id], self.streams.stream(node_id, "mac")
        )
        self.sched.schedule(
            delay, lambda n=node_id: self._on_access(n), kind=f"access@{node_id}"
        )

    def _on_access(self, node_id: int) -> None:
        """Backoff expired: transmit if the channel is idle, else re-arm."""
        self._pending_access[node_id] = False
        unit = self._hol[node_id]
        if unit is None:
            return
        heard = self._heard(node_id)
        if heard:
            self._request_access(node_id, wait=max(tx.end for tx in heard) - self.sched.now)
        elif node_id == RELAY:
            self._transmit_relay_job(unit)
        else:
            self._send_data(node_id, unit)

    def _kick_relay(self) -> None:
        """Relay send decision."""
        if self._hol[RELAY] is not None or self._pending_access[RELAY]:
            return
        job = self._dequeue_relay_job()
        if job is None:
            return
        self._hol[RELAY] = job
        self._request_access(RELAY)

    def _maybe_anc_exchange(self) -> None:
        """Trigger a paired uplink (both directions have traffic)."""
        if self._anc_active:
            return
        # Every node must be quiescent: a pending relay broadcast winning
        # channel access mid-exchange would contaminate the uplink group.
        for node_id in (ALICE, BOB, RELAY):
            if self._hol[node_id] is not None or self._pending_access[node_id]:
                return
            if self._heard(node_id):
                return
        self._anc_active = True
        self._launch_anc_uplink()

    # ------------------------------------------------------------------
    # Relay jobs (both MAC policies)
    # ------------------------------------------------------------------
    def _dequeue_relay_job(self) -> Optional[Dict[str, Any]]:
        """Pick the relay's next unit of work (scheme-aware)."""
        if self._relay_broadcasts:
            return self._relay_broadcasts.popleft()
        if not self._relay_buffer:
            return None
        if self.params.scheme == "cope":
            return self._dequeue_cope_job()
        entry = self._relay_buffer.popleft()
        return {"kind": "forward", **entry}

    def _dequeue_cope_job(self) -> Optional[Dict[str, Any]]:
        """Pair opposite-direction packets into one XOR-coded broadcast.

        With only one direction buffered, the head packet waits up to the
        patience horizon for a partner before being plainly forwarded.
        """
        for_alice = next((e for e in self._relay_buffer if e["dst"] == ALICE), None)
        for_bob = next((e for e in self._relay_buffer if e["dst"] == BOB), None)
        if for_alice is not None and for_bob is not None:
            self._relay_buffer.remove(for_alice)
            self._relay_buffer.remove(for_bob)
            return {"kind": "cope_coded", "truths": {ALICE: for_alice, BOB: for_bob}}
        oldest = self._relay_buffer[0]
        if self.sched.now - oldest["relay_time"] >= self._patience_samples - _TIME_EPS:
            self._relay_buffer.popleft()
            return {"kind": "forward", **oldest}
        if self._relay_recheck is None:
            self._relay_recheck = self.sched.schedule_at(
                max(oldest["relay_time"] + self._patience_samples + 1.0, self.sched.now),
                self._on_relay_recheck,
                kind="relay_patience",
            )
        return None

    def _on_relay_recheck(self) -> None:
        """Patience horizon reached: retry the relay send decision."""
        self._relay_recheck = None
        if self._scheduled is None:
            self._kick_relay()

    def _transmit_relay_job(self, job: Dict[str, Any]) -> None:
        """Put one relay job on the air."""
        relay = self.nodes[RELAY]
        if job["kind"] == "anc_broadcast":
            self._begin_tx(RELAY, job["waveform"], kind="anc_broadcast", meta=job)
        elif job["kind"] == "cope_coded":
            truths = job["truths"]
            coded = Packet(
                source=RELAY,
                destination=_BROADCAST,
                sequence=relay.next_sequence(),
                payload=truths[ALICE]["packet"].xor_payload(truths[BOB]["packet"]),
            )
            self._begin_tx(RELAY, relay.transmit(coded), kind="cope_coded", meta=job)
        else:
            self._send_data(RELAY, job)

    # ------------------------------------------------------------------
    # Scheduled (TDMA) MAC
    # ------------------------------------------------------------------
    def _on_slot(self) -> None:
        """One TDMA slot boundary: the owner transmits, the chain continues.

        The last rank is the relay's; ANC's one endpoint rank is the
        paired uplink, the other schemes give Alice and Bob a rank each.
        """
        grid = self._scheduled
        assert grid is not None
        owner = grid.slot_owner(int(round(self.sched.now / grid.slot_samples)))
        self.sched.schedule(grid.slot_samples, self._on_slot, kind="slot", priority=-1)
        if owner == grid.n_ranks - 1:
            job = self._dequeue_relay_job()
            if job is not None:
                self._transmit_relay_job(job)
        elif self.params.scheme == "anc":
            self._scheduled_anc_uplink()
        else:
            self._scheduled_endpoint_send((ALICE, BOB)[owner])

    def _scheduled_endpoint_send(self, endpoint: int) -> None:
        """A scheduled endpoint slot: send the head of line, if any."""
        if not self.queues[endpoint].is_empty:
            self._send_data(endpoint, self._pop_head(endpoint))

    def _scheduled_anc_uplink(self) -> None:
        """The ANC grid's endpoint phase: paired uplink, or patient forward."""
        if not self.queues[ALICE].is_empty and not self.queues[BOB].is_empty:
            self._launch_anc_uplink()
            return
        for endpoint in (ALICE, BOB):
            head = self.queues[endpoint].peek()
            if head is None:
                continue
            if self.sched.now - head.arrival_time >= self._patience_samples:
                self._scheduled_endpoint_send(endpoint)
            return

    # ------------------------------------------------------------------
    # ANC exchange
    # ------------------------------------------------------------------
    def _launch_anc_uplink(self) -> None:
        """Pop both heads of line and start the §7.2 offset transmissions."""
        units = {}
        for endpoint in (ALICE, BOB):
            event = self._patience_events.pop(endpoint, None)
            if event is not None:
                self.sched.cancel(event)
            units[endpoint] = self._pop_head(endpoint)
        first, second = self.overlap_model.draw_offsets(self.frame_samples)
        if self.streams.stream("overlap").uniform() < 0.5:
            offsets = {ALICE: first, BOB: second}
        else:
            offsets = {ALICE: second, BOB: first}
        for endpoint, unit in units.items():
            self.sched.schedule(
                offsets[endpoint],
                lambda e=endpoint, u=unit: self._begin_tx(
                    e, self.nodes[e].transmit(u["packet"]), kind="anc_uplink", meta=u
                ),
                kind=f"anc_uplink@{endpoint}",
            )

    # ------------------------------------------------------------------
    # Medium / collision groups
    # ------------------------------------------------------------------
    def _begin_tx(self, sender: int, waveform, kind: str, meta: Dict[str, Any]) -> None:
        """Start a transmission and arm its end event."""
        tx = _Tx(
            tx_id=self._tx_counter,
            sender=sender,
            waveform=waveform,
            start=self.sched.now,
            end=self.sched.now + len(waveform),
            kind=kind,
            meta=meta,
        )
        self._tx_counter += 1
        self.report.transmissions += 1
        self._active.append(tx)
        self._group.append(tx)
        self.sched.schedule(
            len(waveform), lambda t=tx: self._on_tx_end(t), kind=f"tx_end@{sender}"
        )

    def _on_tx_end(self, tx: _Tx) -> None:
        """A transmission left the air; resolve the group once it drains."""
        self._active.remove(tx)
        # Coded/broadcast frames are fire-and-forget: no genie feedback,
        # so release the relay's head of line as soon as the frame ends.
        if tx.kind in _CODED and self._hol.get(tx.sender) is tx.meta:
            self._hol[tx.sender] = None
        if self._active:
            return
        group, self._group = self._group, []
        self._resolve_group(group)
        self._kick_all()

    @staticmethod
    def _consumers(tx: _Tx) -> Tuple[int, ...]:
        """The receivers a frame is meant for; any other receiver overhears it.

        A coded relay broadcast is meant for every endpoint it carries a
        packet to, an endpoint's frame (data or ANC uplink) for the relay,
        and a relay forward for its destination.
        """
        if tx.kind in _CODED:
            return tuple(tx.meta["truths"])
        return (RELAY,) if tx.sender != RELAY else (tx.meta["dst"],)

    # ------------------------------------------------------------------
    # Group resolution: sessions, collisions, decode, feedback
    # ------------------------------------------------------------------
    def _resolve_group(self, group: List[_Tx]) -> None:
        """Resolve every reception of one collision group.

        ``handled`` collects the (frame, consumer) pairs already accounted;
        a consumer that never examined its frame (it was itself
        transmitting) loses it.
        """
        group_start = min(tx.start for tx in group)
        senders = {tx.sender for tx in group}
        handled: Set[Tuple[int, int]] = set()
        for receiver in self.topology.nodes:
            if receiver in senders:
                continue
            components = [
                tx for tx in group if self.topology.in_range(tx.sender, receiver)
            ]
            if components:
                self._resolve_receiver(receiver, components, group_start, handled)
        for tx in group:
            for consumer in self._consumers(tx):
                if (tx.tx_id, consumer) not in handled:
                    self._feedback(tx, ok=False)
        if any(tx.kind == "anc_uplink" for tx in group):
            self._anc_active = False

    def _resolve_receiver(
        self,
        receiver: int,
        components: List[_Tx],
        group_start: float,
        handled: Set[Tuple[int, int]],
    ) -> None:
        """Classify one receiver's reception, decode its frame and charge the rest."""
        # ANC's raison d'etre: the relay never decodes a paired uplink
        # collision — it amplifies and rebroadcasts it (§7.5).
        uplinks = [tx for tx in components if tx.kind == "anc_uplink"]
        if receiver == RELAY and uplinks:
            self._relay_hears_uplink(components, uplinks, group_start, handled)
            return
        session = ReceptionSession(noise_power=self.nodes[receiver].config.noise_power)
        for tx in components:
            link = self.topology.link(tx.sender, receiver)
            power = DEFAULT_TX_AMPLITUDE ** 2 * link.power_gain
            session.add(tx.tx_id, power, tx.start, tx.end)
        _, primary_id = classify_reception(session)
        primary = next((tx for tx in components if tx.tx_id == primary_id), None)
        if primary is not None and receiver in self._consumers(primary):
            start = (
                int(round(primary.start - group_start))
                + self.topology.link(primary.sender, receiver).propagation_delay
            )
            composite = self._composite(receiver, components, group_start)
            self._decode(receiver, primary, composite, start, handled)
        # Collided: every component but a clean one dies at this receiver.
        for tx in components:
            if tx is not primary:
                self._lost_at(receiver, tx, handled)

    def _composite(
        self, receiver: int, components: List[_Tx], group_start: float
    ) -> ComplexSignal:
        """What ``receiver`` hears of ``components``: their noisy superposition.

        The composite runs 24 samples past the latest component's end, so
        the detectors see the energy drop back to the noise floor.
        """
        placed = [
            (
                tx.waveform,
                self.topology.link(tx.sender, receiver),
                int(round(tx.start - group_start)),
            )
            for tx in components
        ]
        return superpose(
            placed,
            self.nodes[receiver].config.noise_power,
            self.streams.stream(receiver, "noise"),
            max(offset + len(waveform) for waveform, _, offset in placed) + 24,
        )

    def _relay_hears_uplink(
        self,
        components: List[_Tx],
        uplinks: List[_Tx],
        group_start: float,
        handled: Set[Tuple[int, int]],
    ) -> None:
        """The relay turns a clean paired uplink into a broadcast job."""
        if len(uplinks) == 2 and len(components) == 2:
            composite = self._composite(RELAY, uplinks, group_start)
            self._relay_broadcasts.append(
                {
                    "kind": "anc_broadcast",
                    "waveform": amplify_and_forward(composite, DEFAULT_TX_AMPLITUDE ** 2),
                    "truths": {tx.meta["dst"]: tx.meta for tx in uplinks},
                }
            )
            handled.update((tx.tx_id, RELAY) for tx in uplinks)
        else:
            # A contaminated exchange (a stray frame joined the group):
            # nothing is recoverable at the relay.
            for tx in components:
                self._lost_at(RELAY, tx, handled)

    # ------------------------------------------------------------------
    # Decode and outcome accounting
    # ------------------------------------------------------------------
    def _decode(
        self,
        receiver: int,
        tx: _Tx,
        composite: ComplexSignal,
        start: int,
        handled: Set[Tuple[int, int]],
    ) -> None:
        """A consumer decodes its frame; the relay buffers it, an endpoint takes it.

        An ANC broadcast goes through the endpoint's full receive pipeline;
        every other frame is demodulated from its aligned window, and a
        COPE-coded one is XORed with the endpoint's own packet.  The frame
        is good when its CRC passes or the assumed FEC repairs its BER.
        """
        handled.add((tx.tx_id, receiver))
        truth = tx.meta["truths"][receiver] if tx.kind in _CODED else tx.meta
        if tx.kind == "anc_broadcast":
            result = self.nodes[receiver].receive(composite)
            packet, crc_ok = result.packet, result.crc_ok
        else:
            parsed = self.decoder.decode_windows([(composite, start, self.frame_samples)])[0]
            packet, crc_ok = parsed.packet, parsed.payload_crc_ok
        decoded = None if packet is None else packet.payload
        if tx.kind == "cope_coded" and packet is not None:
            own = tx.meta["truths"][self._other_endpoint(receiver)]["packet"]
            decoded = packet.xor_payload(own)
        ber = decoded_ber(truth["packet"].payload, decoded)
        ok = crc_ok or ber <= self.params.ber_acceptance
        if receiver == RELAY:
            # Store-and-forward: the FEC-repaired copy (the truth packet
            # once BER is within acceptance) enters the buffer.
            if ok:
                self._relay_buffer.append(
                    {
                        "packet": truth["packet"],
                        "arrival": truth["arrival"],
                        "dst": truth["dst"],
                        "relay_time": self.sched.now,
                    }
                )
            self._feedback(tx, ok)
            if ok and self._scheduled is None:
                self._kick_relay()
            return
        self.report.bers.append(ber)
        if ok:
            self.report.delivered += 1
            self.report.delivered_bits += truth["packet"].payload_length
            self.report.delays.append(self.sched.now - truth["arrival"])
        self._feedback(tx, ok)

    def _lost_at(self, receiver: int, tx: _Tx, handled: Set[Tuple[int, int]]) -> None:
        """A component is unrecoverable at ``receiver``: a loss if meant for it."""
        if receiver in self._consumers(tx):
            handled.add((tx.tx_id, receiver))
            self._feedback(tx, ok=False)

    def _feedback(self, tx: _Tx, ok: bool) -> None:
        """Genie ACK/NACK for one consumer's outcome of a frame.

        A CSMA data frame resets its sender's backoff on success and is
        BEB-retried on failure until its attempts run out.  Every other
        frame (coded broadcasts, ANC uplinks, anything under the TDMA grid,
        which has no retransmissions) simply counts a failure as a loss.
        """
        origin = tx.meta.get("origin")
        if origin is None or self._scheduled is not None:
            if not ok:
                self.report.losses += 1
            return
        state = self._csma[origin]
        if not ok:
            self.mac.on_failure(state)
            if not self.mac.exhausted(state):
                self._request_access(origin)
                return
            self.report.retry_drops += 1
        self.mac.on_success(state)
        self._hol[origin] = None
