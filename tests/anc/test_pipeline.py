"""Tests for the full receive pipeline (Fig. 8 / Algorithm 1)."""

import numpy as np

from repro.anc.pipeline import PAYLOAD_CRC_FAILURE, ReceiveOutcome, ReceivePipeline
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.channel.relay import amplify_and_forward
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.signal.samples import ComplexSignal

NOISE = 1e-3
PAYLOAD = 192


def _framed(seed, src, dst, seq):
    rng = np.random.default_rng(seed)
    framer = Framer()
    packet = Packet.random(src, dst, seq, PAYLOAD, rng)
    frame = framer.build(packet)
    wave = MSKModulator(amplitude=1.0).modulate(frame.bits)
    return packet, frame, wave


def _heard(signal, link, seed):
    """``signal`` as received over ``link``, noise included."""
    return superpose([(signal, link, 0)], link.noise_power, np.random.default_rng(seed), 0)


def _corrupted_payload(frame):
    """The frame's waveform with one payload bit flipped on the air."""
    bits = frame.bits.copy()
    bits[frame.layout.payload_start + 10] ^= 1
    return MSKModulator(amplitude=1.0).modulate(bits)


def _pipeline(buffer=None):
    return ReceivePipeline(
        noise_power=NOISE,
        expected_payload_bits=PAYLOAD,
        known_frames=buffer if buffer is not None else SentPacketBuffer(),
    )


def _collision(wave_a, wave_b, offset, seed=0, att_a=0.9, att_b=0.75):
    rng = np.random.default_rng(seed)
    link_a = Link(attenuation=att_a, phase_shift=rng.uniform(-3, 3), frequency_offset=0.03)
    link_b = Link(attenuation=att_b, phase_shift=rng.uniform(-3, 3), frequency_offset=-0.025)
    length = max(len(wave_a), offset + len(wave_b)) + 32
    return superpose([(wave_a, link_a, 0), (wave_b, link_b, offset)], NOISE, rng, length)


class TestCleanPath:
    def test_clean_packet_decoded(self):
        packet, frame, wave = _framed(0, 1, 2, 5)
        link = Link(attenuation=0.8, phase_shift=0.4, frequency_offset=0.02, noise_power=NOISE)
        received = _heard(wave.padded(20, 20), link, 0)
        result = _pipeline().receive(received)
        assert result.outcome == ReceiveOutcome.CLEAN_DECODED
        assert result.delivered
        assert result.packet.identity == packet.identity
        assert not result.interfered

    def test_payload_crc_failure_has_a_reason(self):
        packet, frame, _ = _framed(16, 1, 2, 23)
        link = Link(attenuation=0.8, phase_shift=0.4, noise_power=NOISE)
        received = _heard(_corrupted_payload(frame).padded(20, 20), link, 16)
        result = _pipeline().receive(received)
        assert result.outcome == ReceiveOutcome.CLEAN_DECODED
        assert result.packet.identity == packet.identity
        assert not result.delivered
        assert result.failure_reason == PAYLOAD_CRC_FAILURE == "payload crc"

    def test_delivered_packet_has_no_failure_reason(self):
        _, _, wave = _framed(0, 1, 2, 5)
        link = Link(attenuation=0.8, phase_shift=0.4, noise_power=NOISE)
        result = _pipeline().receive(_heard(wave.padded(20, 20), link, 0))
        assert result.delivered
        assert result.failure_reason == ""

    def test_noise_only_gives_no_signal(self):
        noise = superpose([], NOISE, np.random.default_rng(1), 600)
        result = _pipeline().receive(noise)
        assert result.outcome == ReceiveOutcome.NO_SIGNAL

    def test_empty_waveform(self):
        result = _pipeline().receive(ComplexSignal.silence(0))
        assert result.outcome == ReceiveOutcome.NO_SIGNAL

    def test_frame_geometry_properties(self):
        pipeline = _pipeline()
        assert pipeline.frame_samples == pipeline.frame_bits + 1
        assert pipeline.frame_bits == Framer().layout_for(PAYLOAD).total_length


class TestInterferedPath:
    def test_known_first_decodes_second(self):
        packet_a, frame_a, wave_a = _framed(2, 1, 2, 7)
        packet_b, frame_b, wave_b = _framed(3, 2, 1, 9)
        collision = _collision(wave_a, wave_b, offset=150, seed=2)
        buffer = SentPacketBuffer()
        buffer.store(frame_a)
        result = _pipeline(buffer).receive(collision)
        assert result.outcome == ReceiveOutcome.ANC_DECODED
        assert result.interfered
        assert result.packet.identity == packet_b.identity
        assert np.mean(result.packet.payload != packet_b.payload) < 0.02

    def test_known_second_decodes_first_backwards(self):
        packet_a, frame_a, wave_a = _framed(4, 1, 2, 11)
        packet_b, frame_b, wave_b = _framed(5, 2, 1, 12)
        collision = _collision(wave_a, wave_b, offset=150, seed=4)
        buffer = SentPacketBuffer()
        buffer.store(frame_b)
        result = _pipeline(buffer).receive(collision)
        assert result.outcome == ReceiveOutcome.ANC_DECODED
        assert result.packet.identity == packet_a.identity
        assert result.diagnostics.reversed_decode

    def test_headers_of_both_constituents_reported(self):
        packet_a, frame_a, wave_a = _framed(6, 1, 2, 13)
        packet_b, frame_b, wave_b = _framed(7, 2, 1, 14)
        collision = _collision(wave_a, wave_b, offset=150, seed=6)
        buffer = SentPacketBuffer()
        buffer.store(frame_a)
        result = _pipeline(buffer).receive(collision)
        headers = {result.first_header.identity, result.second_header.identity}
        assert headers == {packet_a.identity, packet_b.identity}

    def test_neither_known_needs_relay(self):
        _, _, wave_a = _framed(8, 1, 2, 15)
        _, _, wave_b = _framed(9, 2, 1, 16)
        collision = _collision(wave_a, wave_b, offset=150, seed=8)
        result = _pipeline().receive(collision)
        assert result.outcome == ReceiveOutcome.NEEDS_RELAY
        assert result.first_header is not None
        assert result.second_header is not None

    def test_decoding_through_relay_amplification(self):
        packet_a, frame_a, wave_a = _framed(10, 1, 2, 17)
        packet_b, frame_b, wave_b = _framed(11, 2, 1, 18)
        collision = _collision(wave_a, wave_b, offset=160, seed=10)
        broadcast = amplify_and_forward(collision, transmit_power=1.0)
        downlink = Link(attenuation=0.85, phase_shift=-0.7, frequency_offset=0.01, noise_power=NOISE)
        received = _heard(broadcast, downlink, 10)
        buffer = SentPacketBuffer()
        buffer.store(frame_a)
        result = _pipeline(buffer).receive(received)
        assert result.outcome == ReceiveOutcome.ANC_DECODED
        assert result.packet.identity == packet_b.identity
        assert np.mean(result.packet.payload != packet_b.payload) < 0.05

    def test_best_effort_snoop_when_dominant(self):
        """Neither packet known, but the strong one decodes as a best effort."""
        packet_a, frame_a, wave_a = _framed(12, 1, 2, 19)
        packet_b, frame_b, wave_b = _framed(13, 3, 4, 20)
        collision = _collision(wave_a, wave_b, offset=150, seed=12, att_a=0.9, att_b=0.12)
        result = _pipeline().receive(collision)
        assert result.packet is not None
        assert result.packet.identity == packet_a.identity

    def test_delivered_requires_crc(self):
        packet_a, frame_a, wave_a = _framed(14, 1, 2, 21)
        packet_b, frame_b, wave_b = _framed(15, 2, 1, 22)
        collision = _collision(wave_a, wave_b, offset=150, seed=14)
        buffer = SentPacketBuffer()
        buffer.store(frame_a)
        result = _pipeline(buffer).receive(collision)
        # delivered implies crc_ok; if residual errors exist the flag is False.
        assert result.delivered == (result.crc_ok and result.packet is not None)

    def test_anc_payload_crc_failure_has_a_reason(self):
        packet_a, frame_a, wave_a = _framed(2, 1, 2, 7)
        packet_b, frame_b, _ = _framed(3, 2, 1, 9)
        collision = _collision(wave_a, _corrupted_payload(frame_b), offset=150, seed=2)
        buffer = SentPacketBuffer()
        buffer.store(frame_a)
        result = _pipeline(buffer).receive(collision)
        assert result.outcome == ReceiveOutcome.ANC_DECODED
        assert result.packet.identity == packet_b.identity
        assert not result.delivered
        assert result.failure_reason == PAYLOAD_CRC_FAILURE
