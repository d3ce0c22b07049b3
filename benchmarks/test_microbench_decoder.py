"""Micro-benchmarks of the hot signal-processing paths.

These use pytest-benchmark's statistical timing (multiple rounds) because,
unlike the figure reproductions, they measure code speed rather than
regenerate published results: the interference decoder and the standard
MSK demodulator both have to keep up with a software-radio sample stream.
"""

import numpy as np
import pytest

from repro.anc.decoder import InterferenceDecoder
from repro.anc.pipeline import ReceivePipeline
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKDemodulator, MSKModulator

PAYLOAD = 768


@pytest.fixture(scope="module")
def collision_setup():
    rng = np.random.default_rng(0)
    framer, modulator = Framer(), MSKModulator()
    packet_a = Packet.random(1, 2, 1, PAYLOAD, rng)
    packet_b = Packet.random(2, 1, 2, PAYLOAD, rng)
    frame_a, frame_b = framer.build(packet_a), framer.build(packet_b)
    wave_a, wave_b = modulator.modulate(frame_a.bits), modulator.modulate(frame_b.bits)
    link_a = Link(attenuation=0.9, phase_shift=0.4, frequency_offset=0.03)
    link_b = Link(attenuation=0.7, phase_shift=-1.0, frequency_offset=-0.02)
    offset = 170
    received = superpose(
        [(wave_a, link_a, 0), (wave_b, link_b, offset)],
        1e-3,
        rng,
        max(len(wave_a), offset + len(wave_b)) + 32,
    )
    return received, frame_a, frame_b, offset


def test_bench_interference_decoder(benchmark, collision_setup):
    received, frame_a, frame_b, offset = collision_setup
    decoder = InterferenceDecoder()

    def decode():
        bits, _ = decoder.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        return bits

    bits = benchmark(decode)
    assert float(np.mean(bits != frame_b.bits)) < 0.05


def test_bench_receive_pipeline(benchmark, collision_setup):
    received, frame_a, frame_b, offset = collision_setup
    buffer = SentPacketBuffer()
    buffer.store(frame_a)
    pipeline = ReceivePipeline(
        noise_power=1e-3, expected_payload_bits=PAYLOAD, known_frames=buffer
    )
    result = benchmark(pipeline.receive, received)
    assert result.packet is not None


def test_bench_msk_modulation(benchmark):
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 4096, dtype=np.uint8)
    modulator = MSKModulator()
    signal = benchmark(modulator.modulate, bits)
    assert len(signal) == 4097


def test_bench_msk_demodulation(benchmark):
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 4096, dtype=np.uint8)
    signal = MSKModulator().modulate(bits)
    demodulator = MSKDemodulator()
    decoded = benchmark(demodulator.demodulate, signal)
    assert np.array_equal(decoded, bits)
