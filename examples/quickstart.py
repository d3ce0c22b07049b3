#!/usr/bin/env python
"""Quickstart: one Alice-Bob analog-network-coding exchange, step by step.

Alice and Bob are out of each other's radio range and exchange packets
through a router.  With analog network coding they transmit
*simultaneously*; the router amplifies the resulting collision and
broadcasts it; each endpoint subtracts the influence of its own packet at
the phase level and decodes the other's (paper §2a, §6).

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro.anc.pipeline import ReceiveOutcome, ReceivePipeline
from repro.channel.interference import OverlapModel, superpose
from repro.channel.link import Link
from repro.channel.relay import amplify_and_forward
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator

PAYLOAD_BITS = 512
NOISE_POWER = 1.5e-3  # roughly 27 dB SNR on each hop


def main() -> None:
    rng = np.random.default_rng(2007)
    framer = Framer()
    modulator = MSKModulator(amplitude=1.0)

    # ------------------------------------------------------------------
    # 1. Alice and Bob each build a frame and remember it (Fig. 6 layout).
    # ------------------------------------------------------------------
    alice_packet = Packet.random(source=1, destination=2, sequence=1,
                                 payload_bits=PAYLOAD_BITS, rng=rng)
    bob_packet = Packet.random(source=2, destination=1, sequence=1,
                               payload_bits=PAYLOAD_BITS, rng=rng)
    alice_frame = framer.build(alice_packet)
    bob_frame = framer.build(bob_packet)
    alice_wave = modulator.modulate(alice_frame.bits)
    bob_wave = modulator.modulate(bob_frame.bits)
    print(f"frame length: {alice_frame.length} bits "
          f"({len(alice_wave)} complex samples per transmission)")

    # ------------------------------------------------------------------
    # 2. Both transmit at once; the router hears the sum of the two
    #    signals after each traversed its own (different) channel.
    # ------------------------------------------------------------------
    overlap = OverlapModel(mean_overlap=0.85, rng=rng)
    _, bob_offset = overlap.draw_offsets(len(alice_wave))
    uplink_alice = Link(attenuation=0.85, phase_shift=0.7, frequency_offset=0.025)
    uplink_bob = Link(attenuation=0.80, phase_shift=-1.9, frequency_offset=-0.02)
    collision = superpose(
        [(alice_wave, uplink_alice, 0), (bob_wave, uplink_bob, bob_offset)],
        NOISE_POWER,
        rng,
        bob_offset + len(bob_wave) + 32,
    )
    print(f"collision: Bob starts {bob_offset} samples late "
          f"-> {1 - bob_offset / len(alice_wave):.0%} of the packets overlap")

    # ------------------------------------------------------------------
    # 3. The router does not decode; it re-amplifies the interfered
    #    waveform to its power budget and broadcasts it.
    # ------------------------------------------------------------------
    broadcast = amplify_and_forward(collision, transmit_power=1.0)
    downlink_to_alice = Link(attenuation=0.82, phase_shift=2.1,
                             frequency_offset=0.01, noise_power=NOISE_POWER)
    received_at_alice = superpose(
        [(broadcast, downlink_to_alice, 0)], downlink_to_alice.noise_power, rng, 0
    )

    # ------------------------------------------------------------------
    # 4. Alice runs the full receive pipeline: detect the packet, notice
    #    the interference, align on the pilots, look her own frame up in
    #    her sent-packet buffer, and decode Bob's bits out of the mixture.
    # ------------------------------------------------------------------
    alice_buffer = SentPacketBuffer()
    alice_buffer.store(alice_frame)
    alice_pipeline = ReceivePipeline(
        noise_power=NOISE_POWER,
        expected_payload_bits=PAYLOAD_BITS,
        known_frames=alice_buffer,
    )
    result = alice_pipeline.receive(received_at_alice)

    assert result.outcome == ReceiveOutcome.ANC_DECODED, result.failure_reason
    ber = float(np.mean(result.packet.payload != bob_packet.payload))
    print(f"Alice decoded packet {result.packet.identity} "
          f"(Bob's packet) with payload BER {ber:.4f}")
    amplitude = result.diagnostics.amplitude_estimate
    print(f"estimated received amplitudes: own A = {amplitude.amplitude_a:.3f}, "
          f"Bob's B = {amplitude.amplitude_b:.3f}")
    print("two packets exchanged in two transmission slots — "
          "twice the throughput of store-and-forward routing")


if __name__ == "__main__":
    main()
