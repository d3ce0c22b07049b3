"""Figure 13: BER of ANC decoding versus signal-to-interference ratio.

The paper varies Bob's transmit power while keeping Alice's fixed and
plots the BER of the packet Alice decodes (Bob's packet) against the SIR
at Alice, defined as ``10 log10(P_Bob / P_Alice)`` (Eq. 9).  Because Alice
is cancelling her *own* signal, low SIR means the packet she wants is much
weaker than the interference she has to remove — the regime where blind
separation schemes give up (they need ~+6 dB) but ANC still decodes with
under 5 % BER at −3 dB.

This runner recreates the setup directly: for each SIR point it generates
collisions between Alice's and Bob's frames through the amplify-and-
forward relay, decodes Bob's packet at Alice, and averages the payload BER.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.impairments import impair_link
from repro.channel.interference import OverlapModel, superpose
from repro.channel.link import Link
from repro.channel.relay import amplify_and_forward
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.anc.pipeline import ReceiveOutcome, ReceivePipeline
from repro.modulation.msk import MSKModulator
from repro.network.topologies import MAX_CFO, MEAN_ATTENUATION, ChannelConditions
from repro.protocols.anc import default_min_offset
from repro.results.model import ExperimentResult, Series, make_result
from repro.utils.bits import decoded_ber
from repro.utils.db import db_to_linear


@dataclass(frozen=True)
class SIRPoint:
    """One point of the Fig. 13 curve."""

    sir_db: float
    mean_ber: float
    packets: int
    decode_failures: int


def run_sir_point_trial(
    cfg: ExperimentConfig,
    point_index: int,
    sir_db_values: Tuple[float, ...],
    packets_per_point: int,
    snr_db: float,
) -> SIRPoint:
    """Simulate every collision of one SIR grid point (one engine trial).

    Picklable so the sweep can fan points out across process workers; the
    random stream is keyed by ``point_index`` alone, so the point's result
    is independent of execution order.
    """
    sir_db = float(sir_db_values[point_index])
    framer = Framer()
    rng = cfg.run_rng(1000 + point_index, stream=30)
    overlap_model = OverlapModel(
        mean_overlap=cfg.draw_run_overlap(rng),
        jitter=cfg.overlap_jitter,
        min_offset=default_min_offset(),
        rng=rng,
    )
    # Alice transmits at unit amplitude; Bob's amplitude realises the
    # requested SIR at Alice (both go through statistically identical
    # links, so the transmit-amplitude ratio is the received ratio).
    bob_amplitude = db_to_linear(sir_db)
    alice_mod = MSKModulator(amplitude=1.0)
    bob_mod = MSKModulator(amplitude=bob_amplitude)

    # The testbed's noise floor: relative to Alice's received power at unit
    # transmit amplitude.
    noise_power = ChannelConditions(snr_db).noise_power
    # The hand-built Fig. 13 links honour the same impairment declaration
    # as topology-based trials: the implicit node set is (relay 0, Alice 1,
    # Bob 2), so the two colliding senders get distinct oscillators and
    # every hop fades.  The offsets draw no randomness.
    offsets = cfg.impairments.sender_offsets([0, 1, 2])

    bers: List[float] = []
    failures = 0
    for packet_index in range(packets_per_point):
        alice_packet = Packet.random(1, 2, packet_index, cfg.payload_bits, rng)
        bob_packet = Packet.random(2, 1, 1000 + packet_index, cfg.payload_bits, rng)
        alice_frame = framer.build(alice_packet)
        bob_frame = framer.build(bob_packet)
        alice_wave = alice_mod.modulate(alice_frame.bits)
        bob_wave = bob_mod.modulate(bob_frame.bits)

        link_alice = Link(
            attenuation=MEAN_ATTENUATION,
            phase_shift=float(rng.uniform(-np.pi, np.pi)),
            frequency_offset=float(rng.uniform(0.25 * MAX_CFO, MAX_CFO)),
        )
        link_bob = Link(
            attenuation=MEAN_ATTENUATION,
            phase_shift=float(rng.uniform(-np.pi, np.pi)),
            frequency_offset=-float(rng.uniform(0.25 * MAX_CFO, MAX_CFO)),
        )
        if cfg.impairments.enabled:
            impair_link(link_alice, offsets[1], cfg.impairments, rng)
            impair_link(link_bob, offsets[2], cfg.impairments, rng)
        _, offset = overlap_model.draw_offsets(len(alice_wave))
        collision = superpose(
            [(alice_wave, link_alice, 0), (bob_wave, link_bob, offset)],
            noise_power,
            rng,
            max(len(alice_wave), offset + len(bob_wave)) + 32,
        )
        broadcast = amplify_and_forward(collision, transmit_power=1.0)
        downlink = Link(
            attenuation=MEAN_ATTENUATION,
            phase_shift=float(rng.uniform(-np.pi, np.pi)),
            frequency_offset=float(rng.uniform(-0.02, 0.02)),
            noise_power=noise_power,
        )
        if cfg.impairments.enabled:
            impair_link(downlink, offsets[0], cfg.impairments, rng)
        received = superpose([(broadcast, downlink, 0)], downlink.noise_power, rng, 0)

        buffer = SentPacketBuffer()
        buffer.store(alice_frame)
        pipeline = ReceivePipeline(
            noise_power=noise_power,
            expected_payload_bits=cfg.payload_bits,
            known_frames=buffer,
        )
        outcome = pipeline.receive(received)
        if (
            outcome.outcome != ReceiveOutcome.ANC_DECODED
            or outcome.packet is None
            or outcome.packet.payload.size != bob_packet.payload.size
        ):
            failures += 1
            continue
        bers.append(decoded_ber(bob_packet.payload, outcome.packet.payload))

    mean_ber = float(np.mean(bers)) if bers else 0.5
    return SIRPoint(
        sir_db=sir_db,
        mean_ber=mean_ber,
        packets=packets_per_point,
        decode_failures=failures,
    )


def sir_points(
    config: ExperimentConfig,
    engine: Optional[ExperimentEngine] = None,
    sir_db_values: Sequence[float] = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0),
    packets_per_point: int = 20,
    snr_db: float = 19.0,
) -> List[SIRPoint]:
    """Measure Alice's decoding BER at each SIR of a grid (Fig. 13).

    Parameters
    ----------
    config:
        Supplies payload size, overlap statistics and the master seed.
    engine:
        How the grid points execute (serial, parallel, resumed from a
        disk cache); the points are identical either way.
    sir_db_values:
        The SIR grid; the paper sweeps −3 dB to +4 dB.
    packets_per_point:
        Collisions simulated per SIR value.
    snr_db:
        Operating SNR of all links during the sweep (power control changes
        only Bob's transmit power, not the noise).
    """
    params = {
        "sir_db_values": tuple(float(v) for v in sir_db_values),
        "packets_per_point": int(packets_per_point),
        "snr_db": float(snr_db),
    }
    return default_engine(engine).map(
        "fig13_sir_sweep",
        run_sir_point_trial,
        config,
        range(len(params["sir_db_values"])),
        params=params,
    )


def run_sir_sweep(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Run the Fig. 13 sweep and return its ``points`` table.

    The table has one row per :class:`SIRPoint`, its fields as columns.
    Each SIR point simulates ``config.packets_per_run`` collisions.
    ``quick`` is unused (the grid is fixed).
    """
    cfg = config if config is not None else ExperimentConfig()
    points = sir_points(cfg, engine, packets_per_point=cfg.packets_per_run)
    table = Series(
        "points", tuple(f.name for f in fields(SIRPoint)), tuple(astuple(p) for p in points)
    )
    return make_result(
        "sir", "figure", cfg, "sir", [table],
        params={"packets_per_point": cfg.packets_per_run},
    )
