"""Tests for the full interference decoder (forward and backward)."""

import numpy as np
import pytest

from repro.anc.decoder import DecoderConfig, InterferenceDecoder, SubtractionDecoder
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.exceptions import DecodingError
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.signal.samples import ComplexSignal


def _make_collision(
    payload_bits=192,
    offset=110,
    attenuation_a=0.9,
    attenuation_b=0.7,
    noise=1e-3,
    cfo_a=0.03,
    cfo_b=-0.02,
    seed=0,
    phase_drift=0.0,
    **link_fields,
):
    """Build a two-frame collision plus the ground truth needed to verify decoding.

    ``link_fields`` (e.g. ``sender_cfo``, ``fading``) are applied to both
    links, shaping the collision through the impairment stages.
    """
    rng = np.random.default_rng(seed)
    framer = Framer()
    packet_a = Packet.random(1, 2, 10, payload_bits, rng)
    packet_b = Packet.random(2, 1, 20, payload_bits, rng)
    frame_a = framer.build(packet_a)
    frame_b = framer.build(packet_b)
    modulator = MSKModulator(amplitude=1.0)
    wave_a = modulator.modulate(frame_a.bits)
    wave_b = modulator.modulate(frame_b.bits)
    link_a = Link(
        attenuation=attenuation_a,
        phase_shift=float(rng.uniform(-np.pi, np.pi)),
        frequency_offset=cfo_a,
        phase_drift=phase_drift,
        **link_fields,
    )
    link_b = Link(
        attenuation=attenuation_b,
        phase_shift=float(rng.uniform(-np.pi, np.pi)),
        frequency_offset=cfo_b,
        phase_drift=phase_drift,
        **link_fields,
    )
    length = max(len(wave_a), offset + len(wave_b)) + 24
    collision = superpose([(wave_a, link_a, 0), (wave_b, link_b, offset)], noise, rng, length)
    return collision, frame_a, frame_b, offset


def _reference_partition(known_offset, known_n_bits, unknown_offset, unknown_n_bits):
    """Per-bit loop reference for the decoder's (interfered, clean) bit counts.

    Bit ``i`` of the unknown frame spans samples ``n`` and ``n + 1``; it
    is interfered when both samples lie inside the known frame.
    """
    known_end = known_offset + known_n_bits + 1
    interfered = 0
    for i in range(unknown_n_bits):
        n = unknown_offset + i
        if known_offset <= n < known_end and known_offset <= n + 1 < known_end:
            interfered += 1
    return interfered, unknown_n_bits - interfered


class TestForwardDecoding:
    def test_alice_decodes_bob(self):
        received, frame_a, frame_b, offset = _make_collision()
        decoder = InterferenceDecoder()
        bits, diagnostics = decoder.decode(
            received, frame_a.bits, known_offset=0, unknown_offset=offset,
            unknown_n_bits=len(frame_b.bits),
        )
        assert np.mean(bits != frame_b.bits) < 0.02
        assert diagnostics.interfered_bits > 0
        assert diagnostics.clean_bits > 0
        assert (diagnostics.interfered_bits, diagnostics.clean_bits) == (
            _reference_partition(0, len(frame_a.bits), offset, len(frame_b.bits))
        )
        assert not diagnostics.reversed_decode

    def test_amplitude_estimate_close_to_truth(self):
        received, frame_a, frame_b, offset = _make_collision()
        decoder = InterferenceDecoder()
        _, diagnostics = decoder.decode(
            received, frame_a.bits, 0, offset, len(frame_b.bits)
        )
        estimate = diagnostics.amplitude_estimate
        assert estimate.amplitude_a == pytest.approx(0.9, rel=0.1)
        assert estimate.amplitude_b == pytest.approx(0.7, rel=0.15)

    def test_decodes_when_unknown_is_weaker(self):
        received, frame_a, frame_b, offset = _make_collision(
            attenuation_a=1.0, attenuation_b=0.55, seed=1
        )
        decoder = InterferenceDecoder()
        bits, _ = decoder.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        assert np.mean(bits != frame_b.bits) < 0.05

    def test_decodes_when_unknown_is_stronger(self):
        received, frame_a, frame_b, offset = _make_collision(
            attenuation_a=0.55, attenuation_b=1.0, seed=2
        )
        decoder = InterferenceDecoder()
        bits, _ = decoder.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        assert np.mean(bits != frame_b.bits) < 0.05

    def test_sigma_estimator_variant(self):
        received, frame_a, frame_b, offset = _make_collision(seed=3)
        decoder = InterferenceDecoder(DecoderConfig(amplitude_method="sigma"))
        bits, _ = decoder.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        assert np.mean(bits != frame_b.bits) < 0.05

    def test_oracle_amplitudes(self):
        received, frame_a, frame_b, offset = _make_collision(seed=4)
        decoder = InterferenceDecoder(
            DecoderConfig(amplitude_method="oracle", amplitude_oracle=(0.9, 0.7))
        )
        bits, _ = decoder.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        assert np.mean(bits != frame_b.bits) < 0.02


class TestBackwardDecoding:
    def test_bob_decodes_alice(self):
        received, frame_a, frame_b, offset = _make_collision(seed=5)
        decoder = InterferenceDecoder()
        bits, diagnostics = decoder.decode(
            received, frame_b.bits, known_offset=offset, unknown_offset=0,
            unknown_n_bits=len(frame_a.bits),
        )
        assert np.mean(bits != frame_a.bits) < 0.02
        assert diagnostics.reversed_decode

    def test_both_directions_same_collision(self):
        """Both directions decode, also when CFO and fading shaped the collision."""
        shapes = [
            ({}, 0.02),
            ({"sender_cfo": 0.04, "fading": "rayleigh"}, 0.02),
            ({"sender_cfo": 0.04, "fading": "rician", "fading_k_db": 6.0}, 0.02),
            (
                {"fading": "rician", "fading_k_db": 10.0, "fading_mode": "drift",
                 "fading_doppler": 0.002},
                0.1,
            ),
        ]
        decoder = InterferenceDecoder()
        for link_fields, max_ber in shapes:
            received, frame_a, frame_b, offset = _make_collision(seed=6, **link_fields)
            bob_bits, _ = decoder.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
            alice_bits, _ = decoder.decode(received, frame_b.bits, offset, 0, len(frame_a.bits))
            assert np.mean(bob_bits != frame_b.bits) < max_ber, link_fields
            assert np.mean(alice_bits != frame_a.bits) < max_ber, link_fields


class TestBackwardEdgeCases:
    """§7.4 boundary conditions: the reversed decode must handle the extremes."""

    def test_zero_overlap_backward_is_rejected(self):
        """Disjoint packets with the known one second: nothing to decode."""
        received, frame_a, frame_b, _ = _make_collision(seed=30)
        rng = np.random.default_rng(30)
        modulator = MSKModulator(amplitude=1.0)
        wave_a = modulator.modulate(frame_a.bits)
        wave_b = modulator.modulate(frame_b.bits)
        gap_offset = len(wave_a) + 40  # B starts after A has fully ended
        link = Link(attenuation=0.9, phase_shift=0.3, frequency_offset=0.01)
        collision = superpose(
            [(wave_a, link, 0), (wave_b, link, gap_offset)],
            1e-3,
            rng,
            gap_offset + len(wave_b) + 24,
        )
        with pytest.raises(DecodingError):
            # frame_b is the known one and starts second -> backward path.
            InterferenceDecoder().decode(
                collision, frame_b.bits, known_offset=gap_offset,
                unknown_offset=0, unknown_n_bits=len(frame_a.bits),
            )

    def test_full_overlap_of_known_frame_backward(self):
        """A known burst fully inside the unknown frame's span still decodes.

        Every sample of the known signal is interfered (no clean head or
        tail for it), so the amplitude estimate must come from the
        unknown-only region — exercised here through the reversed path.
        """
        rng = np.random.default_rng(31)
        framer = Framer()
        packet_b = Packet.random(2, 1, 20, 192, rng)
        frame_b = framer.build(packet_b)
        modulator = MSKModulator(amplitude=1.0)
        wave_b = modulator.modulate(frame_b.bits)
        known_bits = rng.integers(0, 2, size=160).astype(np.uint8)
        wave_known = modulator.modulate(known_bits)
        known_offset = 150
        assert known_offset + len(wave_known) < len(wave_b)  # full containment
        link_b = Link(attenuation=0.95, phase_shift=0.4, frequency_offset=0.015)
        link_k = Link(attenuation=0.6, phase_shift=-0.8, frequency_offset=-0.01)
        collision = superpose(
            [(wave_b, link_b, 0), (wave_known, link_k, known_offset)], 1e-4, rng, len(wave_b)
        )
        decoder = InterferenceDecoder()
        bits, diagnostics = decoder.decode(
            collision, known_bits, known_offset=known_offset,
            unknown_offset=0, unknown_n_bits=len(frame_b.bits),
        )
        assert diagnostics.reversed_decode
        # The whole known burst is interference; everything else is clean.
        assert diagnostics.overlap_samples == len(wave_known)
        assert diagnostics.interfered_bits > 0
        assert (diagnostics.interfered_bits, diagnostics.clean_bits) == (
            _reference_partition(known_offset, len(known_bits), 0, len(frame_b.bits))
        )
        assert np.mean(bits != frame_b.bits) < 0.05

    def test_unknown_frame_ends_exactly_at_waveform_boundary_forward(self):
        """unknown_end == len(received) must decode, not raise."""
        received, frame_a, frame_b, offset = _make_collision(seed=32)
        exact_end = offset + len(frame_b.bits) + 1
        trimmed = received.slice(0, exact_end)
        bits, diagnostics = InterferenceDecoder().decode(
            trimmed, frame_a.bits, known_offset=0, unknown_offset=offset,
            unknown_n_bits=len(frame_b.bits),
        )
        assert not diagnostics.reversed_decode
        assert np.mean(bits != frame_b.bits) < 0.05
        # One sample shorter is genuinely too short and must raise.
        with pytest.raises(DecodingError):
            InterferenceDecoder().decode(
                received.slice(0, exact_end - 1), frame_a.bits, 0, offset,
                len(frame_b.bits),
            )

    def test_known_frame_ends_exactly_at_waveform_boundary_backward(self):
        """The reversed decode with the known frame flush against the end.

        When the waveform stops exactly where the second (known) frame
        stops, the reversed stream places that frame at offset zero — the
        boundary the §7.4 index arithmetic must get exactly right.
        """
        received, frame_a, frame_b, offset = _make_collision(seed=33)
        exact_end = offset + len(frame_b.bits) + 1
        trimmed = received.slice(0, exact_end)
        bits, diagnostics = InterferenceDecoder().decode(
            trimmed, frame_b.bits, known_offset=offset, unknown_offset=0,
            unknown_n_bits=len(frame_a.bits),
        )
        assert diagnostics.reversed_decode
        assert np.mean(bits != frame_a.bits) < 0.05


class TestValidation:
    def test_rejects_zero_unknown_bits(self):
        received, frame_a, _, offset = _make_collision(seed=7)
        with pytest.raises(DecodingError):
            InterferenceDecoder().decode(received, frame_a.bits, 0, offset, 0)

    def test_rejects_negative_offsets(self):
        received, frame_a, frame_b, offset = _make_collision(seed=8)
        with pytest.raises(DecodingError):
            InterferenceDecoder().decode(received, frame_a.bits, -1, offset, len(frame_b.bits))

    def test_rejects_waveform_too_short(self):
        received, frame_a, frame_b, offset = _make_collision(seed=9)
        truncated = received.slice(0, 100)
        with pytest.raises(DecodingError):
            InterferenceDecoder().decode(truncated, frame_a.bits, 0, offset, len(frame_b.bits))

    def test_rejects_disjoint_packets(self):
        """Fewer than four overlapping samples leave nothing for ANC to do.

        Covers a frame beyond the waveform, two disjoint frames inside it,
        and single-bit frames (two samples each), known-first and
        known-second.
        """
        received, frame_a, frame_b, _ = _make_collision(seed=10)
        rng = np.random.default_rng(10)
        noise = ComplexSignal(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        one_bit = np.array([1], dtype=np.uint8)
        cases = [
            (received, frame_a.bits, 0, len(received) + 100, len(frame_b.bits)),
            (noise, frame_a.bits[:16], 0, 21, 16),
            (noise, one_bit, 0, 0, 1),
            (noise, one_bit, 1, 0, 1),
        ]
        for signal, known_bits, known_offset, unknown_offset, unknown_n_bits in cases:
            with pytest.raises(DecodingError):
                InterferenceDecoder().decode(
                    signal, known_bits, known_offset, unknown_offset, unknown_n_bits
                )

    def test_invalid_config(self):
        with pytest.raises(DecodingError):
            DecoderConfig(amplitude_method="magic")
        with pytest.raises(DecodingError):
            DecoderConfig(amplitude_method="oracle")


class TestSubtractionBaseline:
    def test_subtraction_works_on_static_channel(self):
        received, frame_a, frame_b, offset = _make_collision(noise=1e-4, cfo_a=0.0, cfo_b=0.0, seed=11)
        decoder = SubtractionDecoder()
        bits = decoder.decode(received, frame_a.bits, 0, offset, len(frame_b.bits))
        assert np.mean(bits != frame_b.bits) < 0.05

    def test_subtraction_degrades_under_drift(self):
        """The §6 argument: subtraction is fragile once the channel drifts."""
        kwargs = dict(noise=1e-4, cfo_a=0.0, cfo_b=0.0, attenuation_b=0.45, seed=12)
        static, frame_a, frame_b, offset = _make_collision(phase_drift=0.0, **kwargs)
        drifting, frame_a2, frame_b2, offset2 = _make_collision(phase_drift=0.05, **kwargs)
        decoder = SubtractionDecoder()
        ber_static = np.mean(
            decoder.decode(static, frame_a.bits, 0, offset, len(frame_b.bits)) != frame_b.bits
        )
        ber_drift = np.mean(
            decoder.decode(drifting, frame_a2.bits, 0, offset2, len(frame_b2.bits)) != frame_b2.bits
        )
        anc = InterferenceDecoder()
        ber_anc_drift = np.mean(
            anc.decode(drifting, frame_a2.bits, 0, offset2, len(frame_b2.bits))[0] != frame_b2.bits
        )
        assert ber_drift > ber_static
        assert ber_anc_drift < ber_drift

    def test_subtraction_requires_forward_order(self):
        received, frame_a, frame_b, offset = _make_collision(seed=13)
        with pytest.raises(DecodingError):
            SubtractionDecoder().decode(received, frame_b.bits, offset, 0, len(frame_a.bits))

    def test_subtraction_requires_clean_head(self):
        received, frame_a, frame_b, _ = _make_collision(seed=14)
        with pytest.raises(DecodingError):
            SubtractionDecoder().decode(
                received, frame_a.bits, 0, 2, len(frame_b.bits)
            )
