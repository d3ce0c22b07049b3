"""One testbed trial: a drawn network and the schemes run over it.

The paper's evaluation (§11.1–§11.6) runs traditional routing, COPE and
ANC over the same per-run topology draw and the same traffic.  Every
testbed experiment makes that decision here, in one place:

* :func:`draw_testbed` turns a ``(config, run)`` pair into a
  :class:`Testbed`.  From the run's topology stream it draws, in this
  order, the operating SNR, the mean collision overlap and the topology;
  then it applies the configured impairments from their own stream.
* :func:`route`, :func:`relay_exchange` and :func:`chain_pipeline` run
  one scheme of one protocol family over a testbed.  They take the
  payload size, the FEC acceptance, the per-scheme redundancy overhead
  and the overlap model from the config, so no experiment builds a
  protocol itself.
* :func:`relay_exchange_trial`, :func:`chain_trial` and
  :func:`mesh_cells` are the trial shapes the experiments share: two
  flows crossing at a relay (Figs. 9 and 10, the CFO and fading sweeps,
  the SNR extension), one flow down a chain (Fig. 12 and the chain-length
  sweep), and a scheduled flow set over a mesh (the two mesh sweeps).

An experiment keeps only its :class:`Streams`, the random streams each
part of a run draws from.  Every scheme draws from its own stream, so the
schemes of a run are independent of each other and of the order they
execute in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.impairments import IMPAIRMENT_STREAM, ImpairmentConfig, apply_impairments
from repro.channel.interference import OverlapModel
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.mac.planner import RelayExchangePlan, plan_mesh_exchanges, plan_relay_exchange
from repro.network.flows import Flow
from repro.network.topologies import ChannelConditions, chain_topology
from repro.network.topology import Topology
from repro.protocols.anc import ANCRelayProtocol
from repro.protocols.base import RunResult
from repro.protocols.cope import CopeRelayProtocol
from repro.protocols.scheduled import ChainPipelineProtocol
from repro.protocols.traditional import TraditionalRouting

#: Builds a topology from the run's channel conditions and topology stream.
BuildFn = Callable[[ChannelConditions, np.random.Generator], Topology]


@dataclass(frozen=True)
class Streams:
    """The random streams of one trial, named by what draws from them.

    ``cope`` is ``None`` when the trial runs no COPE scheme.
    """

    topology: int
    traditional: int
    cope: Optional[int]
    anc: int
    impairments: int = IMPAIRMENT_STREAM

    @classmethod
    def block(cls, base: int, cope: bool = True) -> "Streams":
        """The scenario layout: topology at ``base``, schemes +1/+2/+3, impairments +6."""
        return cls(base, base + 1, base + 2 if cope else None, base + 3, base + 6)

    @classmethod
    def mesh(cls, base: int) -> "Streams":
        """The mesh layout: topology at ``base``, traditional +1, impairments +6.

        Pair ``k`` runs ANC from +8+2k and COPE from +9+2k, and the
        leftover routes draw from +4 (ANC) and +5 (COPE); see
        :func:`mesh_cells`.
        """
        return cls(base, base + 1, base + 9, base + 8, base + 6)


@dataclass(frozen=True)
class Testbed:
    """One run's drawn network, ready for the schemes to run over.

    ``mean_overlap`` is ``None`` when the run drew no overlap from its
    topology stream; an ANC scheme then draws it first from its own.
    ``topology_rng`` is the topology stream after the build, for draws
    that follow it (the mesh flow set).
    """

    cfg: ExperimentConfig
    run: int
    streams: Streams
    name: str
    topology: Topology
    topology_rng: np.random.Generator
    mean_overlap: Optional[float]

    def rng(self, stream: int) -> np.random.Generator:
        """The run's generator for ``stream``."""
        return self.cfg.run_rng(self.run, stream=stream)


def draw_testbed(
    cfg: ExperimentConfig,
    run: int,
    streams: Streams,
    build: BuildFn,
    name: str,
    impairments: Optional[ImpairmentConfig] = None,
    snr_db: Optional[float] = None,
) -> Testbed:
    """Draw run ``run``'s network: SNR, mean overlap, topology, then impairments.

    A fixed ``snr_db`` (the SNR sweep's grid point) replaces both draws
    from the topology stream.  ``impairments`` replaces the config's own
    (the CFO and fading sweeps set their axis there).
    """
    rng = cfg.run_rng(run, stream=streams.topology)
    mean_overlap: Optional[float] = None
    if snr_db is None:
        snr_db = cfg.draw_run_snr(rng)
        mean_overlap = cfg.draw_run_overlap(rng)
    topology = build(ChannelConditions(snr_db=snr_db), rng)
    apply_impairments(
        topology,
        cfg.impairments if impairments is None else impairments,
        cfg.run_rng(run, stream=streams.impairments),
    )
    return Testbed(cfg, run, streams, name, topology, rng, mean_overlap)


def _overlap_model(bed: Testbed, rng: np.random.Generator) -> OverlapModel:
    """The §7.2 randomised partial overlap of an ANC scheme drawing from ``rng``."""
    mean_overlap = bed.mean_overlap
    if mean_overlap is None:
        mean_overlap = bed.cfg.draw_run_overlap(rng)
    return OverlapModel(
        mean_overlap=mean_overlap,
        jitter=bed.cfg.overlap_jitter,
        rng=rng,
    )


def route(bed: Testbed, flows: Sequence[Flow], stream: int) -> RunResult:
    """Traditional routing of ``flows`` over the testbed."""
    return TraditionalRouting(
        bed.topology,
        flows,
        payload_bits=bed.cfg.payload_bits,
        ber_acceptance=bed.cfg.ber_acceptance,
        rng=bed.rng(stream),
        topology_name=bed.name,
    ).run()


def relay_exchange(bed: Testbed, scheme: str, plan: RelayExchangePlan, stream: int) -> RunResult:
    """The exchange ``plan`` over the testbed, coded by COPE (``"cope"``) or ANC (``"anc"``)."""
    cfg, rng = bed.cfg, bed.rng(stream)
    if scheme == "cope":
        protocol = CopeRelayProtocol(
            bed.topology,
            plan,
            payload_bits=cfg.payload_bits,
            ber_acceptance=cfg.ber_acceptance,
            rng=rng,
            topology_name=bed.name,
        )
    else:
        protocol = ANCRelayProtocol(
            bed.topology,
            plan,
            payload_bits=cfg.payload_bits,
            ber_acceptance=cfg.ber_acceptance,
            redundancy_overhead=cfg.anc_redundancy_overhead,
            overlap_model=_overlap_model(bed, rng),
            rng=rng,
            topology_name=bed.name,
        )
    return protocol.run()


def chain_pipeline(bed: Testbed, path: Sequence[int], coding: str, stream: int) -> RunResult:
    """One flow pipelined down ``path``, with ANC collisions or collision-free.

    ``coding`` is the planner discipline: ``"anc"`` (stride 2, charged
    the chain's redundancy overhead) or ``"plain"`` (stride 3).
    """
    cfg, rng = bed.cfg, bed.rng(stream)
    anc = coding == "anc"
    return ChainPipelineProtocol(
        bed.topology,
        path,
        coding=coding,
        packets=cfg.packets_per_run,
        payload_bits=cfg.payload_bits,
        ber_acceptance=cfg.ber_acceptance,
        redundancy_overhead=cfg.chain_redundancy_overhead if anc else 0.0,
        overlap_model=_overlap_model(bed, rng) if anc else None,
        rng=rng,
        topology_name=bed.name,
    ).run()


@dataclass(frozen=True)
class RelayExchange:
    """Two flows crossing at a relay: the testbed of Figs. 9 and 10.

    The planner derives the relay and how each destination learns the
    packet it cancels (by having sent it in Alice–Bob, by overhearing it
    in the X) from each run's topology.
    """

    name: str
    build: BuildFn
    flows: Tuple[Tuple[int, int], Tuple[int, int]]


def relay_exchange_trial(
    cfg: ExperimentConfig,
    run: int,
    exchange: RelayExchange,
    streams: Streams,
    impairments: Optional[ImpairmentConfig] = None,
    snr_db: Optional[float] = None,
) -> Dict[str, RunResult]:
    """One relay-exchange run under traditional routing, COPE (if it has a stream) and ANC.

    COPE and ANC run the same :class:`~repro.mac.planner.RelayExchangePlan`.
    """
    bed = draw_testbed(cfg, run, streams, exchange.build, exchange.name, impairments, snr_db)
    flow_a, flow_b = (Flow(source, dest, cfg.packets_per_run) for source, dest in exchange.flows)
    plan = plan_relay_exchange(bed.topology, flow_a, flow_b)
    runs = {"traditional": route(bed, [flow_a, flow_b], streams.traditional)}
    for scheme, stream in (("cope", streams.cope), ("anc", streams.anc)):
        if stream is not None:
            runs[scheme] = relay_exchange(bed, scheme, plan, stream)
    return runs


def chain_trial(
    cfg: ExperimentConfig, run: int, hops: int, streams: Streams
) -> Dict[str, RunResult]:
    """One run of a ``hops``-hop chain under routing, the digital pipeline and ANC.

    A one-way flow offers COPE nothing to XOR, so its ``"cope"`` scheme
    (run only if it has a stream) is the best schedule digital radios
    can use: the collision-free spatial-reuse pipeline.
    """
    bed = draw_testbed(cfg, run, streams, partial(chain_topology, hops=hops), "chain")
    path = tuple(range(1, hops + 2))
    flow = Flow(path[0], path[-1], cfg.packets_per_run)
    runs = {"traditional": route(bed, [flow], streams.traditional)}
    if streams.cope is not None:
        runs["cope"] = chain_pipeline(bed, path, "plain", streams.cope)
    runs["anc"] = chain_pipeline(bed, path, "anc", streams.anc)
    return runs


def mesh_cells(bed: Testbed, flows: List[Flow]) -> Dict[str, Dict[str, float]]:
    """Carry one flow set over a mesh testbed under all three schemes.

    The ANC-aware planner pairs the flows that cross at a shared relay.
    ``traditional`` routes every flow.  ``anc`` and ``cope`` run each
    matched pair as a relay exchange and route the leftover flows, on the
    streams of :meth:`Streams.mesh`.  Each scheme's parts are serial in
    time, so they combine into one cell; ``paired`` is the number of
    flows the planner paired.
    """
    streams = bed.streams
    schedule = plan_mesh_exchanges(bed.topology, flows)
    traditional = route(bed, flows, streams.traditional)
    parts: Dict[str, List[RunResult]] = {"anc": [], "cope": []}
    for index, plan in enumerate(schedule.exchanges):
        for scheme, stream in (("anc", streams.anc), ("cope", streams.cope)):
            parts[scheme].append(relay_exchange(bed, scheme, plan, stream + 2 * index))
    if schedule.routed:
        for scheme, offset in (("anc", 4), ("cope", 5)):
            parts[scheme].append(
                route(bed, list(schedule.routed), streams.topology + offset)
            )
    result = {scheme: combine_runs(runs or [traditional]) for scheme, runs in parts.items()}
    for cell in result.values():
        cell["paired"] = float(schedule.paired_flows)
    result["traditional"] = combine_runs([traditional])
    result["traditional"]["paired"] = 0.0
    return result


def combine_runs(results: Sequence[RunResult]) -> Dict[str, float]:
    """Reduce the protocol runs of one scheme in one scenario cell to plain floats.

    Engine trials return picklable, version-stable data, so a scenario
    trial ships these headline numbers instead of :class:`RunResult`
    objects.  The runs are serial in time (the mesh runs one protocol
    instance per ANC pair plus one for the routed leftovers), so the
    cell's throughput is total useful bits over total air time.
    """
    if not results:
        raise ConfigurationError("cannot combine zero runs")
    air_time = sum(r.air_time_samples for r in results)
    useful = sum(r.useful_bits for r in results)
    bers: List[float] = [b for r in results for b in r.packet_bers]
    return {
        "throughput": float(useful / air_time) if air_time else 0.0,
        "delivered": float(sum(r.packets_delivered for r in results)),
        "offered": float(sum(r.packets_offered for r in results)),
        "mean_ber": float(np.mean(bers)) if bers else 0.0,
        "slots": float(sum(r.slots_used for r in results)),
    }


def cells(runs: Dict[str, RunResult]) -> Dict[str, Dict[str, float]]:
    """Reduce each scheme's run to the plain floats a scenario trial returns."""
    return {scheme: combine_runs([run]) for scheme, run in runs.items()}
