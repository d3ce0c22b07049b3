"""Ablation: how much BER comes from amplitude estimation?

The interference decoder needs the two received amplitudes A and B.  This
ablation compares three ways of obtaining them on identical collisions:

* ``oracle``  — the true amplitudes (lower-bounds the achievable BER);
* ``hybrid``  — clean-head measurement for A plus the Eq. 5 mean-energy
  relation for B (the library's default);
* ``sigma``   — the paper's two-statistic estimator (Eqs. 5-6).

Expected outcome: oracle <= hybrid <= sigma in BER, with all three small —
i.e. amplitude estimation is not the dominant error source at the
operating SNR.
"""

import numpy as np
from conftest import write_result

from repro.anc.decoder import DecoderConfig, InterferenceDecoder
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator

PAYLOAD = 512
COLLISIONS = 60
NOISE = 2.5e-3


def _collision(rng):
    framer = Framer()
    modulator = MSKModulator()
    packet_a = Packet.random(1, 2, int(rng.integers(0, 60000)), PAYLOAD, rng)
    packet_b = Packet.random(2, 1, int(rng.integers(0, 60000)), PAYLOAD, rng)
    frame_a, frame_b = framer.build(packet_a), framer.build(packet_b)
    wave_a, wave_b = modulator.modulate(frame_a.bits), modulator.modulate(frame_b.bits)
    attenuation_a = float(rng.uniform(0.7, 1.0))
    attenuation_b = float(rng.uniform(0.55, 0.95))
    link_a = Link(attenuation=attenuation_a, phase_shift=float(rng.uniform(-np.pi, np.pi)),
                  frequency_offset=float(rng.uniform(0.01, 0.04)))
    link_b = Link(attenuation=attenuation_b, phase_shift=float(rng.uniform(-np.pi, np.pi)),
                  frequency_offset=-float(rng.uniform(0.01, 0.04)))
    offset = int(rng.integers(140, 220))
    length = max(len(wave_a), offset + len(wave_b)) + 24
    collision = superpose([(wave_a, link_a, 0), (wave_b, link_b, offset)], NOISE, rng, length)
    return collision, frame_a, frame_b, offset, (attenuation_a, attenuation_b)


def _mean_ber(method: str, seed: int = 1) -> float:
    rng = np.random.default_rng(seed)
    bers = []
    for _ in range(COLLISIONS):
        received, frame_a, frame_b, offset, true_amps = _collision(rng)
        if method == "oracle":
            config = DecoderConfig(amplitude_method="oracle", amplitude_oracle=true_amps)
        else:
            config = DecoderConfig(amplitude_method=method)
        decoder = InterferenceDecoder(config)
        bits, _ = decoder.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        bers.append(float(np.mean(bits != frame_b.bits)))
    return float(np.mean(bers))


def test_ablation_amplitude_estimation(benchmark):
    def run_all():
        return {method: _mean_ber(method) for method in ("oracle", "hybrid", "sigma")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = ["amplitude method | mean BER over %d collisions" % COLLISIONS, "-" * 45]
    for method, ber in results.items():
        lines.append(f"{method:16} | {ber:.4f}")
    write_result("ablation_amplitude", "\n".join(lines))

    # Oracle is the floor; the default hybrid estimator stays close to it.
    assert results["oracle"] <= results["hybrid"] + 0.01
    assert results["hybrid"] <= results["sigma"] + 0.01
    # None of the estimators is the dominant error source at this SNR.
    assert results["hybrid"] < 0.05
    assert results["sigma"] < 0.12
