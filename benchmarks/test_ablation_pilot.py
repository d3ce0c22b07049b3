"""Ablation: pilot length vs alignment reliability.

The paper fixes the pilot at 64 bits (§7.2).  This ablation measures how
often the receiver locks onto a *wrong* position (or fails to lock at all)
as the pilot is shortened, which is the trade-off that justifies spending
64 bits of every frame on synchronisation.
"""

import numpy as np
from conftest import write_result

from repro.anc.alignment import align_known_frame
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.exceptions import SynchronizationError
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.framing.pilot import PilotSequence
from repro.modulation.msk import MSKDemodulator, MSKModulator

PILOT_LENGTHS = (8, 16, 32, 64)
TRIALS = 80
PAYLOAD = 256
NOISE = 4e-3


def _misalignment_rate(pilot_length: int, seed: int = 9) -> float:
    rng = np.random.default_rng(seed)
    pilot = PilotSequence(length=pilot_length)
    framer = Framer(pilot=pilot)
    modulator = MSKModulator()
    demodulator = MSKDemodulator()
    failures = 0
    for _ in range(TRIALS):
        packet = Packet.random(1, 2, int(rng.integers(0, 60000)), PAYLOAD, rng)
        frame = framer.build(packet)
        wave = modulator.modulate(frame.bits)
        lead_in = int(rng.integers(5, 60))
        link = Link(attenuation=0.8, phase_shift=float(rng.uniform(-np.pi, np.pi)),
                    noise_power=NOISE)
        received = superpose([(wave.padded(lead_in, 20), link, 0)], link.noise_power, rng, 0)
        try:
            start = align_known_frame(
                demodulator.demodulate(received), pilot=pilot, max_pilot_errors=1
            )
        except SynchronizationError:
            failures += 1
            continue
        if start != lead_in:
            failures += 1
    return failures / TRIALS


def test_ablation_pilot_length(benchmark):
    def sweep():
        return {length: _misalignment_rate(length) for length in PILOT_LENGTHS}

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["pilot bits | misalignment rate", "-" * 32]
    for length, rate in rates.items():
        lines.append(f"{length:10d} | {rate:.3f}")
    write_result("ablation_pilot", "\n".join(lines))

    # The 64-bit pilot of the paper aligns essentially always.
    assert rates[64] <= 0.02
    assert rates[32] <= 0.05
    # Very short pilots misalign noticeably more often than the 64-bit one.
    assert rates[8] >= rates[64]
