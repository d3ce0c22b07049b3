"""Ablation: phase-difference decoding vs naive signal subtraction (§6).

The paper argues that subtracting a reconstructed copy of the known signal
"does not work [in practice]: it is fragile and depends on the errors in
Alice's estimate of the channel parameters ... they do vary with time."
This ablation decodes the same collisions with both approaches while the
channel's phase slowly drifts over the packet, and shows the subtraction
baseline degrading much faster than the ANC decoder.
"""

import numpy as np
from conftest import write_result

from repro.anc.decoder import InterferenceDecoder, SubtractionDecoder
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator

PAYLOAD = 384
COLLISIONS = 30
DRIFTS = (0.0, 0.01, 0.02, 0.04)


def _mean_bers(phase_drift: float, seed: int = 3):
    rng = np.random.default_rng(seed)
    framer, modulator = Framer(), MSKModulator()
    anc_bers, subtraction_bers = [], []
    anc = InterferenceDecoder()
    subtraction = SubtractionDecoder()
    for _ in range(COLLISIONS):
        packet_a = Packet.random(1, 2, int(rng.integers(0, 60000)), PAYLOAD, rng)
        packet_b = Packet.random(2, 1, int(rng.integers(0, 60000)), PAYLOAD, rng)
        frame_a, frame_b = framer.build(packet_a), framer.build(packet_b)
        wave_a, wave_b = modulator.modulate(frame_a.bits), modulator.modulate(frame_b.bits)
        link_a = Link(attenuation=0.9, phase_shift=float(rng.uniform(-np.pi, np.pi)),
                      phase_drift=phase_drift)
        link_b = Link(attenuation=0.6, phase_shift=float(rng.uniform(-np.pi, np.pi)),
                      frequency_offset=0.02, phase_drift=phase_drift)
        offset = int(rng.integers(140, 200))
        received = superpose(
            [(wave_a, link_a, 0), (wave_b, link_b, offset)],
            1e-4,
            rng,
            max(len(wave_a), offset + len(wave_b)) + 24,
        )
        anc_bits, _ = anc.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        sub_bits = subtraction.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        anc_bers.append(float(np.mean(anc_bits != frame_b.bits)))
        subtraction_bers.append(float(np.mean(sub_bits != frame_b.bits)))
    return float(np.mean(anc_bers)), float(np.mean(subtraction_bers))


def test_ablation_subtraction_vs_anc(benchmark):
    def sweep():
        return {drift: _mean_bers(drift) for drift in DRIFTS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["phase drift (rad/sample) | ANC BER | subtraction BER", "-" * 55]
    for drift, (anc_ber, sub_ber) in results.items():
        lines.append(f"{drift:24.3f} | {anc_ber:7.4f} | {sub_ber:7.4f}")
    write_result("ablation_subtraction", "\n".join(lines))

    # With a perfectly static channel both approaches work.
    assert results[0.0][0] < 0.02
    assert results[0.0][1] < 0.02
    # Under drift, subtraction degrades while ANC stays robust (the §6 claim).
    worst_drift = max(DRIFTS)
    assert results[worst_drift][1] > 4 * max(results[worst_drift][0], 1e-4)
    assert results[worst_drift][0] < 0.05
